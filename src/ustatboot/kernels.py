"""Order-two symmetric matrix-valued kernels.

Two concrete kernels are provided: the sample-covariance kernel
h(x1, x2) = (x1 - x2)(x1 - x2)^T / 2 and the Kendall sign-product kernel
h(x1, x2) = s s^T + 1 with s = sign(x1 - x2).  User kernels plug in
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

Kendall as a sign-matrix product: with s = sign(x1 - x2) the kernel is
h = s s^T + 1, so sums of h over a set of N pairs are S^T S + N for the
stacked sign rows S.  Where neither coordinate ties (almost surely for
continuous laws), s_m s_k + 1 = 2 * 1{s_m s_k > 0}, the concordance kernel
of the paper; for every law, ties included, E h = tau_a + 1 with tau_a
Kendall's tau-a matrix.  S holds values in {-1, 0, 1} and is stored as
float32; every partial sum of its products is an integer, and float32 holds
integers exactly up to 2^24, so each block product is exact (size bounds at
``_KENDALL_BLOCK``).  Blocks accumulate in float64, and results are
bit-identical to the pair loop of :class:`Kernel`.
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


class Kernel:
    """Symmetric kernel of order two.  Subclasses implement ``__call__``;
    the batched operations have generic pair-loop fallbacks."""

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
    """h(x1, x2) = s s^T + 1 with s = sign(x1 - x2); entries in {0, 1, 2}.

    Entry (m, k) is 2 for a concordant pair of coordinates, 0 for a
    discordant one and 1 where either ties, so E h = tau_a + 1.  The batched
    operations are exact float32 sign-matrix products (see the module
    docstring).
    """

    def __call__(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        x1, x2 = _check_pair(x1, x2)
        s = np.sign(x1 - x2)
        return np.outer(s, s) + 1.0

    def u_stat(self, data: np.ndarray) -> np.ndarray:
        # unordered pairs i < j only: block rows against every later row,
        # with the block's own pairs j <= i zeroed out of the sign matrix;
        # the "+ 1" of every pair starts the sum
        data = check_data(data)
        n, p = data.shape
        pairs = n * (n - 1) / 2
        acc = np.full((p, p), pairs)
        for start in range(0, n, _KENDALL_BLOCK):
            block = data[start : start + _KENDALL_BLOCK]
            s = _signs(block, data[start:])
            s[np.tril(np.ones(s.shape[:2], dtype=bool))] = 0.0
            s = s.reshape(-1, p)
            acc += s.T @ s
        return acc / pairs

    def cross_mean(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        # each block's p x p products are half-vectorized straight into the
        # output rows, which get the "+ 1" of their n_y pairs while the block
        # is still in cache
        xs, ys = _check_samples(xs, ys)
        n_x, p = xs.shape
        n_y = ys.shape[0]
        rows, cols = vech_pairs(p)
        out = np.empty((n_x, rows.size))
        for start in range(0, n_x, _KENDALL_BLOCK):
            s = _signs(xs[start : start + _KENDALL_BLOCK], ys)
            block = out[start : start + _KENDALL_BLOCK]
            block[...] = np.matmul(s.transpose(0, 2, 1), s)[:, rows, cols]
            block += n_y
        out /= n_y
        return out


class CustomKernel(Kernel):
    """Wrap a user evaluation callback returning a dense p x p matrix.

    The callback must be symmetric in its two arguments and reentrant; with
    ``debug=True`` symmetry is asserted on every evaluation (doubles cost).
    """

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
