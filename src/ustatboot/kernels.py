"""Order-two symmetric matrix-valued kernels.

Two concrete kernels are provided: the sample-covariance kernel
h(x1, x2) = (x1 - x2)(x1 - x2)^T / 2 and the Kendall concordance kernel
h_mk(x1, x2) = 2 * 1{(x1m - x2m)(x1k - x2k) > 0}.  User kernels plug in
through :class:`CustomKernel`.

Besides single-pair evaluation, each kernel exposes two batched operations
that dominate runtime and are implemented with closed forms / matmuls where
possible:

* ``u_stat(data)``        -- average of h over all unordered pairs, a p x p
  matrix;
* ``cross_mean(xs, ys)``  -- mean over rows y of h(x_i, y), for every row x_i,
  as an (n_x, p(p+1)/2) matrix whose row i is the half-vectorization
  (``matstat.vech`` order, the lower triangle by columns) of that symmetric
  mean.  The bootstrap reads only these distinct entries, so no (n_x, p, p)
  array is built.

Kendall as a sign-matrix product: with s = sign(x1 - x2) and a = |s|,
2 * 1{s_m s_k > 0} = s_m s_k + a_m a_k exactly, ties included, so sums of h
over a set of pairs are S^T S + A^T A for the stacked sign rows S and their
absolute values A.  S holds values in {-1, 0, 1} and is stored as float32;
every partial sum of its products is an integer, and float32 holds integers
exactly up to 2^24, so each block product is exact (size bounds at
``_KENDALL_BLOCK``).  Blocks accumulate in float64, and results are
bit-identical to the pair loop of :class:`Kernel`.

A^T A is a count, not a product.  Over a block of N active pairs, a_m is 1 on
every pair unless column m has a tie, so (A^T A)[m, k] is N when neither
column is tied, the number of untied pairs of column m when only m is tied,
and the product of the two tied columns' |s| when both are.  The kernels find
the columns where the compared data repeat a value (one sort per column; a
superset of the truly tied columns, which changes no count) and multiply only
B = [|S[:, tied]|, 1_active], whose small Gram holds every entry of A^T A.
The counts are the same integers the full product gives, so results do not
change by a bit; data without ties run one float32 product per block, not two.

Kendall ties: the indicator is strictly positive, so tied coordinates
contribute 0 (the continuous-distribution convention; discrete data users
should be aware no half-credit correction is applied).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .matstat import vech, vech_pairs

__all__ = [
    "Kernel",
    "CovarianceKernel",
    "KendallKernel",
    "CustomKernel",
    "check_data",
]

# rows of the first sample per block of Kendall sign products (32 keeps a
# block's sign matrices in L2 cache at n = 200, p = 40).  A float32 product
# entry sums the signs of one row's n_y pairs (cross_mean) or of at most
# _KENDALL_BLOCK * n pairs (u_stat); the sum is exact below 2^24 terms, so
# for n_y < 2^24 and n < 2^19.
_KENDALL_BLOCK = 32


def check_data(data: np.ndarray, min_rows: int = 2) -> np.ndarray:
    """Validate an n x p data matrix."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError(f"data must be 2-dimensional, got shape {data.shape}")
    if data.shape[0] < min_rows:
        raise ValueError(f"need at least {min_rows} rows, got {data.shape[0]}")
    if not np.all(np.isfinite(data)):
        raise ValueError("data contains NaN or infinite values")
    return data


def _check_pair(x1: np.ndarray, x2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    if x1.shape != x2.shape or x1.ndim != 1:
        raise ValueError(f"argument shapes differ: {x1.shape} vs {x2.shape}")
    return x1, x2


def _check_samples(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    xs = check_data(xs, min_rows=1)
    ys = check_data(ys, min_rows=1)
    if xs.shape[1] != ys.shape[1]:
        raise ValueError("dimension mismatch between the two samples")
    return xs, ys


def _signs(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """float32 sign(x_i - y_j) as an (n_x, n_y, p) array, by comparison."""
    x, y = xs[:, None, :], ys[None, :, :]
    s = np.empty((xs.shape[0], ys.shape[0], xs.shape[1]), dtype=np.float32)
    np.greater(x, y, out=s)
    s -= np.less(x, y)
    return s


def _tied_columns(data: np.ndarray) -> np.ndarray:
    """Indices of the columns of ``data`` that repeat a value: every column
    where two of its rows can tie, and possibly more."""
    srt = np.sort(data, axis=0)
    return np.flatnonzero((srt[1:] == srt[:-1]).any(axis=0))


def _abs_gram_slots(p: int, tied: np.ndarray) -> np.ndarray:
    """Column of B = [|S[:, tied]|, 1_active] that stands for each data
    column in A^T A: its own if tied, else the active-pair indicator."""
    slots = np.full(p, tied.size)
    slots[tied] = np.arange(tied.size)
    return slots


def _abs_gram(s: np.ndarray, tied: np.ndarray, active: np.ndarray | float) -> np.ndarray:
    """B^T B for sign rows s (..., N, p), with B = [|s[..., tied]|, active]
    and ``active`` the 0/1 indicator of the N pairs (or the scalar 1)."""
    b = np.empty(s.shape[:-1] + (tied.size + 1,), dtype=np.float32)
    np.abs(s[..., tied], out=b[..., :-1])
    b[..., -1] = active
    return np.matmul(b.swapaxes(-1, -2), b)


class Kernel:
    """Symmetric kernel of order two.  Subclasses implement ``__call__``;
    the batched operations have generic pair-loop fallbacks."""

    kind = "custom"

    def __call__(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def u_stat(self, data: np.ndarray) -> np.ndarray:
        """C(n,2)^{-1} sum over i<j of h(X_i, X_j)."""
        data = check_data(data)
        n, p = data.shape
        acc = np.zeros((p, p))
        for i in range(n - 1):
            for j in range(i + 1, n):
                acc += self(data[i], data[j])
        return acc / (n * (n - 1) / 2)

    def cross_mean(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """For every row x_i of ``xs``, the mean over rows y_j of ``ys`` of
        h(x_i, y_j), half-vectorized.  Returns a new (n_xs, p(p+1)/2) float64
        array in ``matstat.vech`` order, which the caller may modify in
        place."""
        xs, ys = _check_samples(xs, ys)
        rows, cols = vech_pairs(xs.shape[1])
        out = np.zeros((xs.shape[0], rows.size))
        for i, x in enumerate(xs):
            for y in ys:
                out[i] += self(x, y)[rows, cols]
        return out / ys.shape[0]


class CovarianceKernel(Kernel):
    """h(x1, x2) = (x1 - x2)(x1 - x2)^T / 2; E h = Cov(X) for iid arguments."""

    kind = "covariance"

    def __call__(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        x1, x2 = _check_pair(x1, x2)
        d = x1 - x2
        return np.outer(d, d) / 2.0

    def u_stat(self, data: np.ndarray) -> np.ndarray:
        # exact algebraic identity with the demeaned sum of squares
        data = check_data(data)
        n = data.shape[0]
        c = data - data.mean(axis=0)
        return (c.T @ c) / (n - 1)

    def cross_mean(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        # mean_j h(x, y_j) = ((x - ybar)(x - ybar)^T + C) / 2, with C the
        # mean of (y_j - ybar)(y_j - ybar)^T.  vech column block k holds the
        # entries (j, k), j >= k: one product of column k with columns k..p-1
        xs, ys = _check_samples(xs, ys)
        ybar = ys.mean(axis=0)
        cy = ys - ybar
        d = xs - ybar
        p = d.shape[1]
        out = np.empty((d.shape[0], p * (p + 1) // 2))
        start = 0
        for k in range(p):
            np.multiply(d[:, k:], d[:, k, None], out=out[:, start : start + p - k])
            start += p - k
        out += vech((cy.T @ cy) / ys.shape[0])
        out /= 2.0
        return out


class KendallKernel(Kernel):
    """h_mk(x1, x2) = 2 * 1{(x1m - x2m)(x1k - x2k) > 0}; entries in {0, 2}.

    The batched operations are exact float32 sign-matrix products (see the
    module docstring).
    """

    kind = "kendall"

    def __call__(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        x1, x2 = _check_pair(x1, x2)
        d = x1 - x2
        pos = (d > 0).astype(np.float64)
        neg = (d < 0).astype(np.float64)
        return 2.0 * (np.outer(pos, pos) + np.outer(neg, neg))

    def u_stat(self, data: np.ndarray) -> np.ndarray:
        # unordered pairs i < j only: block rows against every later row,
        # with the block's own pairs j <= i zeroed out of the sign matrix
        data = check_data(data)
        n, p = data.shape
        tied = _tied_columns(data)
        slots = _abs_gram_slots(p, tied)
        abs_entries = np.ix_(slots, slots)
        acc = np.zeros((p, p))
        for start in range(0, n, _KENDALL_BLOCK):
            block = data[start : start + _KENDALL_BLOCK]
            s = _signs(block, data[start:])
            done = np.tril(np.ones(s.shape[:2], dtype=bool))
            s[done] = 0.0
            s = s.reshape(-1, p)
            acc += s.T @ s
            acc += _abs_gram(s, tied, ~done.reshape(-1))[abs_entries]
        return acc / (n * (n - 1) / 2)

    def cross_mean(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        # every pair (x_i, y_j) is active; each block's p x p products are
        # half-vectorized straight into the output rows
        xs, ys = _check_samples(xs, ys)
        n_x, p = xs.shape
        rows, cols = vech_pairs(p)
        tied = _tied_columns(np.vstack([xs, ys]))
        slots = _abs_gram_slots(p, tied)
        slot_rows, slot_cols = slots[rows], slots[cols]
        out = np.empty((n_x, rows.size))
        for start in range(0, n_x, _KENDALL_BLOCK):
            s = _signs(xs[start : start + _KENDALL_BLOCK], ys)
            block = out[start : start + _KENDALL_BLOCK]
            block[...] = np.matmul(s.transpose(0, 2, 1), s)[:, rows, cols]
            block += _abs_gram(s, tied, 1.0)[:, slot_rows, slot_cols]
        out /= ys.shape[0]
        return out


class CustomKernel(Kernel):
    """Wrap a user evaluation callback returning a dense p x p matrix.

    The callback must be symmetric in its two arguments and reentrant; with
    ``debug=True`` symmetry is asserted on every evaluation (doubles cost).
    """

    kind = "custom"

    def __init__(
        self,
        fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
        debug: bool = False,
    ):
        self.fn = fn
        self.debug = debug

    def __call__(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        x1, x2 = _check_pair(x1, x2)
        h = np.asarray(self.fn(x1, x2), dtype=np.float64)
        if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] != x1.shape[0]:
            raise ValueError(f"custom kernel returned shape {h.shape}, expected p x p")
        if self.debug:
            h_swap = np.asarray(self.fn(x2, x1), dtype=np.float64)
            if not np.allclose(h, h_swap, rtol=0, atol=1e-10):
                raise ValueError("custom kernel is not symmetric in its arguments")
        return h
