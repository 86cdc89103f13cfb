"""Dense symmetric-matrix primitives.

Norms, half-vectorization (column-major over the lower triangle) and
Cholesky factorization.  All functions are pure; matrices are plain float64
numpy arrays.
"""

from __future__ import annotations

import warnings

import numpy as np

__all__ = [
    "NotPositiveDefiniteError",
    "as_sym",
    "vech_index",
    "vech_pairs",
    "vech",
    "unvech",
    "vech_outer_rows",
    "sup_norm",
    "spectral_norm",
    "frobenius_norm",
    "matrix_l1_norm",
    "cholesky",
]

ASYM_WARN_TOL = 1e-12


class NotPositiveDefiniteError(ValueError):
    """Cholesky factorization failed: the matrix is not positive definite."""


def as_sym(a: np.ndarray) -> np.ndarray:
    """Validate and symmetrize a square matrix.

    Kernel sums drift at floating-point level, so asymmetry up to
    ``ASYM_WARN_TOL`` is silently averaged out; anything larger is averaged
    with a warning.  A NaN or infinite entry raises ValueError.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError("matrix dimension must be >= 1")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    asym = np.max(np.abs(a - a.T)) if a.size else 0.0
    if asym > ASYM_WARN_TOL:
        warnings.warn(
            f"symmetrizing matrix with asymmetry {asym:g} > {ASYM_WARN_TOL:g}",
            stacklevel=2,
        )
    return (a + a.T) / 2.0


def vech_index(j: int, k: int, p: int) -> int:
    """Linear position of entry (j, k), 1-based with j >= k, in the
    column-major lower-triangle enumeration of a p x p symmetric matrix."""
    if not (1 <= k <= j <= p):
        raise IndexError(f"need 1 <= k <= j <= p, got (j={j}, k={k}, p={p})")
    return (k - 1) * p - (k - 1) * (k - 2) // 2 + (j - k)


def vech_pairs(p: int) -> tuple[np.ndarray, np.ndarray]:
    """0-based (row, col) index arrays of the column-major lower triangle.

    Length p(p+1)/2; position i holds the pair mapped to linear index i.
    """
    r, c = np.triu_indices(p)
    # row-major upper triangle transposed == column-major lower triangle
    return c, r


def vech(m: np.ndarray) -> np.ndarray:
    """Half-vectorize the lower triangle of a symmetric matrix by columns.

    Accepts a single p x p matrix or a stacked (..., p, p) array.
    """
    m = np.asarray(m, dtype=np.float64)
    p = m.shape[-1]
    rows, cols = vech_pairs(p)
    return m[..., rows, cols]


def unvech(v: np.ndarray, p: int) -> np.ndarray:
    """Inverse of :func:`vech`; exact round trip."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1] != p * (p + 1) // 2:
        raise ValueError(f"vector length {v.shape[-1]} != p(p+1)/2 for p={p}")
    rows, cols = vech_pairs(p)
    out = np.zeros(v.shape[:-1] + (p, p))
    out[..., rows, cols] = v
    out[..., cols, rows] = v
    return out


def vech_outer_rows(
    d_t: np.ndarray, k0: int = 0, k1: int | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """The outer products d_i d_i^T of the columns d_i of ``d_t`` (p x n),
    half-vectorized and transposed: one row per vech position of the
    entries (j, k), j >= k, of matrix columns k0..k1-1 (all by default), one
    column per i.  Row (j, k) is d_t[j] * d_t[k]; ``out`` receives it when
    given."""
    p = d_t.shape[0]
    k1 = p if k1 is None else k1
    if out is None:
        width = (k1 - k0) * p - (k1 * (k1 - 1) - k0 * (k0 - 1)) // 2
        out = np.empty((width, d_t.shape[1]))
    start = 0
    for k in range(k0, k1):
        np.multiply(d_t[k:], d_t[k], out=out[start : start + p - k])
        start += p - k
    return out


def sup_norm(m: np.ndarray) -> float:
    """Maximum absolute entry."""
    return float(np.max(np.abs(m)))


def frobenius_norm(m: np.ndarray) -> float:
    """Square root of the sum of squared entries."""
    return float(np.sqrt(np.sum(np.square(m))))


def matrix_l1_norm(m: np.ndarray) -> float:
    """Maximum absolute column sum."""
    return float(np.max(np.sum(np.abs(m), axis=0)))


def spectral_norm(m: np.ndarray) -> float:
    """Largest absolute eigenvalue of a symmetric matrix (its 2-norm)."""
    return float(np.max(np.abs(np.linalg.eigvalsh(m))))


def cholesky(m: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L @ L.T == M for positive-definite M (only the
    lower triangle of M is read).

    Raises :class:`NotPositiveDefiniteError` when the factorization fails or
    is not finite.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    try:
        low = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc
    if not np.all(np.isfinite(low)):
        raise NotPositiveDefiniteError("Cholesky factor is not finite")
    return low
