"""Dense symmetric-matrix primitives.

Norms, half-vectorization (column-major over the lower triangle) and
Cholesky factorization.  All functions are pure; matrices are plain float64
numpy arrays.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "NotPositiveDefiniteError",
    "vech_pairs",
    "vech",
    "unvech",
    "sup_norm",
    "spectral_norm",
    "frobenius_norm",
    "matrix_l1_norm",
]

ASYM_TOL = 1e-12


class NotPositiveDefiniteError(ValueError):
    """Cholesky factorization failed: the matrix is not positive definite."""


def as_sym(a: np.ndarray) -> np.ndarray:
    """A finite, nonempty square matrix that ``check_symmetric`` accepts,
    averaged with its transpose: kernel sums drift at floating-point level,
    and the average removes that drift.  Anything else raises ValueError."""
    a = np.asarray(a, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    a = check_symmetric(a)
    if a.shape[0] < 1:
        raise ValueError("matrix dimension must be >= 1")
    return (a + a.T) / 2.0


@functools.lru_cache(maxsize=64)
def vech_pairs(p: int) -> tuple[np.ndarray, np.ndarray]:
    """0-based (row, col) index arrays of the column-major lower triangle.

    Length p(p+1)/2; position i holds the pair mapped to linear index i.
    Built once per p; both arrays are read-only.
    """
    r, c = np.triu_indices(p)
    r.flags.writeable = c.flags.writeable = False
    # row-major upper triangle transposed == column-major lower triangle
    return c, r


def vech(m: np.ndarray) -> np.ndarray:
    """Half-vectorize the lower triangle of a symmetric matrix by columns.

    Accepts a single p x p matrix or a stacked (..., p, p) array.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"expected a (..., p, p) array, got shape {m.shape}")
    rows, cols = vech_pairs(m.shape[-1])
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


def sup_norm(m: np.ndarray) -> float:
    """Maximum absolute entry."""
    return float(np.max(np.abs(m)))


def frobenius_norm(m: np.ndarray) -> float:
    """Square root of the sum of squared entries."""
    return float(np.sqrt(np.sum(np.square(m))))


def matrix_l1_norm(m: np.ndarray) -> float:
    """Maximum absolute column sum."""
    return float(np.max(np.sum(np.abs(m), axis=0)))


def check_symmetric(m: np.ndarray) -> np.ndarray:
    """``m`` as float64 after checking it is a square matrix whose asymmetry
    max|m - m^T| is at most ``ASYM_TOL`` relative to max(1, max|m|);
    raises ValueError otherwise.  Routines that read one triangle would
    silently misread anything else."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    asym = (m - m.T).max(initial=0.0)  # antisymmetric: its max is max|.|
    # the tolerance times max(1, max|m|), with max|m| found only when needed
    if asym > ASYM_TOL and asym > ASYM_TOL * np.abs(m).max():
        raise ValueError(f"matrix is not symmetric: max|m - m^T| = {asym:g}")
    return m


def spectral_norm(m: np.ndarray) -> float:
    """Largest absolute eigenvalue of a symmetric matrix (its 2-norm); a
    non-square or asymmetric ``m`` raises ValueError (see
    :func:`check_symmetric`)."""
    return float(np.max(np.abs(np.linalg.eigvalsh(check_symmetric(m)))))


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
