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
  array is built; for the covariance kernel it reads the factors of
  ``CovarianceKernel.cross_factors`` instead and builds no (n_x, p(p+1)/2)
  matrix either.

Kendall as a sign-matrix product: with s = sign(x1 - x2) the kernel is
h = s s^T + 1, so sums of h over a set of N pairs are S^T S + N for the
stacked sign rows S.  Where neither coordinate ties (almost surely for
continuous laws), s_m s_k + 1 = 2 * 1{s_m s_k > 0}, the concordance kernel
of the paper; for every law, ties included, E h = tau_a + 1 with tau_a
Kendall's tau-a matrix.  Only ranks enter: each call codes every column
once by dense rank (equal values, -0.0 and 0.0 included, share a code;
``cross_mean`` codes both samples together), as int16 below 2^15 rows, where
every code difference fits, and int32 from there.  Each block of
``_KENDALL_BLOCK`` (16) rows of S is built as code differences in one
integer work array, signed in place and cast into one float32 work array;
these, the block products and their vech take come from the per-thread pool
of ``_work_array``, so repeated calls at one shape allocate none of them.
Every partial sum of S's products is an integer, exact in float32 up to
2^24: a ``cross_mean`` entry sums n_y signs and a ``u_stat`` block at most
16 n, so products are exact for n_y <= 2^24 and n <= 2^20.  Pair counts are
added and blocks accumulate in float64, so results are bit-identical to the
pair loop of :class:`Kernel`.
"""

from __future__ import annotations

import threading
from typing import Callable

import numpy as np

from .matstat import vech, vech_outer_rows, vech_pairs

__all__ = [
    "Kernel",
    "CovarianceKernel",
    "KendallKernel",
    "CustomKernel",
    "check_data",
]

# rows of the first sample per block of Kendall sign products: at n = 200,
# p = 40 a block's int16 differences and float32 signs take 0.77 MB, and
# 32-row blocks made cross_mean about 2x slower on a 2 MB-L2 x86 core; size
# bounds in the module docstring
_KENDALL_BLOCK = 16

# bytes (2^20 doubles) of the largest work array the pool keeps
_POOL_BYTES = 2**23

_pool = threading.local()


def _work_array(role: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """An uninitialized work array for ``role`` from this thread's pool.

    The pool keeps one array per role and replaces it when the role's shape
    or dtype changes, so repeated calls at one shape reuse pages that are
    already mapped instead of faulting in fresh ones.  An array above
    ``_POOL_BYTES`` is allocated fresh and not kept.  The caller must
    overwrite what it reads, never return the array or a view of it, and
    not ask for the same role while it still uses the array."""
    pool = vars(_pool)
    a = pool.get(role)
    if a is None or a.shape != shape or a.dtype != dtype:
        a = np.empty(shape, dtype)
        if a.nbytes <= _POOL_BYTES:
            pool[role] = a
    return a


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


def _rank_codes(data: np.ndarray) -> np.ndarray:
    """Per-column dense rank codes of an (n, p) array as an (n, p) int16 array
    (int32 from 2^15 rows): equal values share a code, so code differences
    have the signs of the data's differences."""
    # the flat positions in data of each column's values, in ascending order
    order = np.argsort(data.T) * data.shape[1] + np.arange(data.shape[1])[:, None]
    ranked = data.take(order)
    steps = np.zeros(order.shape, np.int16 if data.shape[0] < 2**15 else np.int32)
    np.not_equal(ranked[:, 1:], ranked[:, :-1], out=steps[:, 1:])
    codes = np.empty(data.shape, steps.dtype)
    np.put(codes, order, np.cumsum(steps, axis=1, out=steps))
    return codes


def _sign_block(
    d_buf: np.ndarray, s_buf: np.ndarray, x: np.ndarray, y: np.ndarray, upper=None
) -> np.ndarray:
    """float32 sign(x_i - y_j) of rank codes as an (n_x, n_y, p) view of
    ``s_buf``, via the code differences in ``d_buf``; with ``upper`` the
    pairs j <= i are zeroed first."""
    b = len(x)
    d = d_buf[: b * y.size].reshape(b, *y.shape)
    np.subtract(x[:, None], y[None], out=d)
    if upper is not None:
        d[:, :b] *= upper[:b, :b]
    np.sign(d, out=d)
    s = s_buf[: d.size].reshape(d.shape)
    np.copyto(s, d)
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

    def cross_factors(
        self, xs: np.ndarray, ys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(d^T, vech(C)) with d = xs - ybar as a contiguous (p, n_x) array
        and C the mean of (y_j - ybar)(y_j - ybar)^T, so that
        mean_j h(x_i, y_j) = (d_i d_i^T + C) / 2."""
        xs, ys = _check_samples(xs, ys)
        ybar = ys.mean(axis=0)
        cy = ys - ybar
        d_t = np.subtract(xs.T, ybar[:, None], order="C")
        return d_t, vech((cy.T @ cy) / ys.shape[0])

    @staticmethod
    def mean_from_factors(d_t: np.ndarray, c: np.ndarray) -> np.ndarray:
        """``cross_mean`` from its factors (d^T, vech(C)) of
        ``cross_factors``: a new (n_x, p(p+1)/2) array."""
        # vech row (j, k) of the transposed result is d_j * d_k over the rows
        # of xs: one product per vech position, no (n_x, p, p) array
        out = vech_outer_rows(d_t)
        out += c[:, None]
        out /= 2.0
        return out.T

    def cross_mean(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return self.mean_from_factors(*self.cross_factors(xs, ys))


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
        # unordered pairs i < j only: a block of rows against itself and every
        # later row in one product, its own pairs j <= i masked to 0; the
        # "+ 1" of every pair starts the sum
        data = check_data(data)
        n, p = data.shape
        pairs = n * (n - 1) / 2
        acc = np.full((p, p), pairs)
        codes = _rank_codes(data)
        upper = np.triu(np.ones((_KENDALL_BLOCK,) * 2, codes.dtype), 1)[:, :, None]
        rows = min(n, _KENDALL_BLOCK)
        d_buf = _work_array("kendall.diff", (rows * n * p,), codes.dtype)
        s_buf = _work_array("kendall.sign", d_buf.shape, np.float32)
        for start in range(0, n, _KENDALL_BLOCK):
            block = codes[start : start + _KENDALL_BLOCK]
            s = _sign_block(d_buf, s_buf, block, codes[start:], upper).reshape(-1, p)
            acc += s.T @ s
        return acc / pairs

    def cross_mean(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        # xs and ys are coded together, so a tie across the samples shares a
        # code; one take half-vectorizes each block's p x p products, and the
        # "+ 1" of their n_y pairs is added on the way into the output rows
        xs, ys = _check_samples(xs, ys)
        n_x, p = xs.shape
        n_y = ys.shape[0]
        codes = _rank_codes(np.concatenate((xs, ys)))
        at = np.ravel_multi_index(vech_pairs(p), (p, p))
        block = min(n_x, _KENDALL_BLOCK)
        d_buf = _work_array("kendall.diff", (block * n_y * p,), codes.dtype)
        s_buf = _work_array("kendall.sign", d_buf.shape, np.float32)
        prod = _work_array("kendall.prod", (block, p, p), np.float32)
        vech_buf = _work_array("kendall.vech", (block, at.size), np.float32)
        out = np.empty((n_x, at.size))
        for start in range(0, n_x, _KENDALL_BLOCK):
            stop = min(start + _KENDALL_BLOCK, n_x)
            s = _sign_block(d_buf, s_buf, codes[start:stop], codes[n_x:])
            b = len(s)
            np.matmul(s.transpose(0, 2, 1), s, out=prod[:b])
            np.take(prod[:b].reshape(b, -1), at, axis=1, out=vech_buf[:b], mode="clip")
            np.add(vech_buf[:b], n_y, out=out[start:stop], dtype=np.float64)
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
