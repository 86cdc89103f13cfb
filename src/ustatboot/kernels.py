"""Order-two symmetric matrix-valued kernels.

Two concrete kernels are provided: the sample-covariance kernel
h(x1, x2) = (x1 - x2)(x1 - x2)^T / 2 and the Kendall sign-product kernel
h(x1, x2) = s s^T + 1 with s = sign(x1 - x2).  A user kernel subclasses
:class:`Kernel` and defines ``__call__`` (a symmetric p x p matrix per pair
of rows; the pair-loop ``u_stat`` and ``cross_mean`` reject other shapes and
an h asymmetric beyond ``matstat.check_symmetric``'s tolerance).

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

Each kernel builds the decoupled Hajek estimates of
``bootstrap.estimate_g_decoupled`` (``Kernel._estimates``).  Each estimates
object fixes one exponent k, ``_exponent32``, when it is built, and fills
any vech column block of ghat on request as float32 columns x in a buffer
the caller passes, with x 2^k the block (``_float32_block``).  By default
ghat = ``cross_mean(main, train)`` - vech(``u_stat(train)``) is materialized
(:class:`DecoupledGEstimates`), k is the binary exponent of max |ghat|, and
a block is ghat's slice divided by 2^k and rounded once.  Covariance
ghat (j, k) is d_j * (d_k / 2) + C_jk / 2 - U_jk with d = main - mean(train),
C the mean of the training half's centred outer products and U = U(train);
its estimates keep only d^T, vech(C) / 2 and vech(U), and ``g_hat`` halves
d^T when it builds ghat.  Halving is exact, so that ghat equals the
materialized one bit for bit.  Its blocks are filled in float32 from
d^T / 2^a, its half and vech(C / 2 - U) / 4^a, each rounded to float32 once
per estimates object, with k = 2a: they differ from ghat's float32 cast by
a few float32 roundings (the ``bootstrap`` module docstring bounds the
draws' error).

Kendall as a sign-matrix product: with s = sign(x1 - x2) the kernel is
h = s s^T + 1, so sums of h over a set of N pairs are S^T S + N for the
stacked sign rows S.  Where neither coordinate ties (almost surely for
continuous laws), s_m s_k + 1 = 2 * 1{s_m s_k > 0}, the concordance kernel
of the paper; for every law, ties included, E h = tau_a + 1 with tau_a
Kendall's tau-a matrix.  Only ranks enter: each call codes every column
once by dense rank (equal values, -0.0 and 0.0 included, share a code;
``cross_mean`` codes both samples together), as int16 below 2^15 rows, where
every code difference fits, and int32 from there.  For both methods
``_sign_blocks`` builds each block of ``_KENDALL_BLOCK`` (16) rows of S as
code differences in one integer work array, signed in place and cast into
one float32 work array; these, the block products and their vech take come
from the per-thread pool of ``_work_array``, so repeated calls at one shape
allocate none of them.  Every partial sum of S's products is an integer,
exact in float32 up to 2^24: a ``cross_mean`` entry sums n_y signs and a
``u_stat`` block at most 16 n, so products are exact for n_y <= 2^24 and
n <= 2^20.  Pair counts are added and blocks accumulate in float64, so
results are bit-identical to the pair loop of :class:`Kernel`.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .matstat import check_symmetric, vech, vech_pairs

__all__ = ["Kernel", "CovarianceKernel", "KendallKernel"]

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


def _sign_blocks(x: np.ndarray, y: np.ndarray | None = None):
    """Yield (start, s) per block of ``_KENDALL_BLOCK`` rows x[start:start + b]
    of the rank codes x, with s = float32 sign(x_i - y_j), the signed code
    differences, as a (b, n_y, p) view of a pooled array: against every row
    of y, or with no y against x[start:] with the pairs j <= i zeroed, so
    that each unordered pair of rows of x is signed once.  Each s is valid
    until the next block."""
    if y is None:
        upper = np.triu(np.ones((_KENDALL_BLOCK,) * 2, x.dtype), 1)[:, :, None]
    size = min(len(x), _KENDALL_BLOCK) * len(x if y is None else y) * x.shape[1]
    d_buf = _work_array("kendall.diff", (size,), x.dtype)
    s_buf = _work_array("kendall.sign", (size,), np.float32)
    for start in range(0, len(x), _KENDALL_BLOCK):
        block = x[start : start + _KENDALL_BLOCK]
        against = x[start:] if y is None else y
        b = len(block)
        d = d_buf[: b * against.size].reshape(b, *against.shape)
        np.subtract(block[:, None], against[None], out=d)
        if y is None:
            d[:, :b] *= upper[:b, :b]
        np.sign(d, out=d)
        s = s_buf[: d.size].reshape(d.shape)
        np.copyto(s, d)
        yield start, s


def _exponent(x: np.ndarray) -> int:
    """The binary exponent k of max |x|: max |x| / 2^k lies in [1/2, 1), or
    k = 0 when x is 0."""
    return math.frexp(max(x.max(), -x.min()))[1]


class DecoupledGEstimates:
    """Per-row Hajek projection estimates ghat_i, half-vectorized (row i of
    ``g_hat`` is ``vech(ghat_i)``: ghat_i is symmetric, so this holds every
    distinct entry), and the training-half U-statistic they were centered
    with.  ``_float32_block`` hands ghat to ``draw_bootstrap`` one vech
    column block at a time, as float32 columns x with x 2^k equal to the
    block, where k = ``_exponent32`` is fixed when the estimates are built.
    This class holds ghat materialized, and k is the ``_exponent`` of the
    whole ghat."""

    def __init__(self, g_hat: np.ndarray, train_u: np.ndarray):
        p = train_u.shape[0]
        if g_hat.ndim != 2 or g_hat.shape[1] != p * (p + 1) // 2:
            raise ValueError(
                f"g_hat must be (n, p(p+1)/2) for p = {p}, got {g_hat.shape}"
            )
        if g_hat.size == 0:
            raise ValueError(f"g_hat must not be empty, got shape {g_hat.shape}")
        self.g_hat = g_hat  # (n, p(p+1)/2)
        self.train_u = train_u  # (p, p)
        self.n = g_hat.shape[0]
        self._exponent32 = _exponent(g_hat)

    @property
    def p(self) -> int:
        return self.train_u.shape[0]

    def _float32_block(self, k0: int, lo: int, hi: int, buf: np.ndarray) -> np.ndarray:
        """A float32 view x of the flat ``buf`` with x 2^k equal to
        ghat[:, lo:hi], k = ``_exponent32``, for the block of the
        ``bootstrap._column_blocks`` schedule that starts at matrix column
        k0: here g_hat[:, lo:hi] / 2^k rounded once.  Dividing by a power of
        two is exact and puts the largest |ghat| in [1/2, 1), so no finite
        entry overflows float32, and products with x scale back exactly.
        The copy takes the slice's layout (of a row-major or of a
        column-major ghat), so the cast streams through both."""
        x = self.g_hat[:, lo:hi]
        if x.strides[0] < x.strides[1]:
            out = buf[: x.size].reshape(x.shape[::-1]).T
        else:
            out = buf[: x.size].reshape(x.shape)
        return np.multiply(x, math.ldexp(1.0, -self._exponent32), out=out)


class Kernel:
    """Symmetric kernel of order two.  Subclasses implement ``__call__``;
    the batched operations have generic pair-loop fallbacks."""

    def __call__(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _pair(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """h(x1, x2), checked symmetric p x p: the pair loops would broadcast
        less, and ``cross_mean`` reads one triangle of h."""
        h = self(x1, x2)
        if np.shape(h) != (x1.size, x1.size):
            raise ValueError(f"kernel returned shape {np.shape(h)}, expected p x p")
        return check_symmetric(h)

    def u_stat(self, data: np.ndarray) -> np.ndarray:
        """C(n,2)^{-1} sum over i<j of h(X_i, X_j)."""
        data = check_data(data)
        n, p = data.shape
        acc = np.zeros((p, p))
        for i in range(n - 1):
            for j in range(i + 1, n):
                acc += self._pair(data[i], data[j])
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
                out[i] += self._pair(x, y)[rows, cols]
        return out / ys.shape[0]

    def _estimates(self, main: np.ndarray, train: np.ndarray) -> DecoupledGEstimates:
        """``bootstrap.estimate_g_decoupled`` for two checked halves of one
        shape; by default ghat is materialized (see the module docstring)."""
        train_u = self.u_stat(train)
        g_hat = self.cross_mean(main, train)  # a new array, centered in place
        g_hat -= vech(train_u)
        return DecoupledGEstimates(g_hat=g_hat, train_u=train_u)


def _cross_factors(xs: np.ndarray, ys: np.ndarray) -> tuple[tuple, np.ndarray]:
    """(d^T, vech(G) / (2 n_y)) with d = xs - ybar, d^T a contiguous (p, n_x)
    array, so that the covariance kernel's mean_j h(x_i, y_j) =
    (d_i d_i^T + G / n_y) / 2; and the centred Gram G of ``ys`` itself."""
    xs, ys = _check_samples(xs, ys)
    ybar = ys.mean(axis=0)
    cy = ys - ybar
    gram = cy.T @ cy
    d_t = np.subtract(xs.T, ybar[:, None], order="C")
    return (d_t, vech(gram) / (2 * ys.shape[0])), gram


def _vech_rows(factors: tuple, k0: int, lo: int, out: np.ndarray):
    """Fill and return ``out`` with the rows for vech positions lo, lo + 1,
    ... (the first is (k0, k0)): row (j, k) is d_j * (d_k / 2) + c_jk for
    ``factors`` (d^T, d^T / 2, vech(c)).  With c = C / 2 that is the
    covariance kernel's mean over the second sample; halving is exact, so it
    is (d_j d_k + C_jk) / 2 bit for bit.  Every operation runs in ``out``'s
    dtype."""
    d_t, half_d_t, half_c = factors
    p, start, k, hi = d_t.shape[0], 0, k0, lo + len(out)
    while start < len(out):
        np.multiply(d_t[k:], half_d_t[k], out=out[start : start + p - k])
        start, k = start + p - k, k + 1
    out += half_c[lo:hi, None]
    return out


class _CovarianceEstimates(DecoupledGEstimates):
    """Covariance-kernel ghat from its ``_cross_factors``: column (j, k) is
    d_j * (d_k / 2) + C_jk / 2 - U_jk with U = ``train_u``.  Only ``g_hat``
    builds the (n, p(p+1)/2) matrix; ``_float32_block`` fills a float32
    block from d^T / 2^a, its exact half and vech(C / 2 - U) / 4^a, rounded
    once here, with k = 2a; a is the larger of the exponents of max |d| and
    of sqrt(max |C / 2 - U|), so every factor and block entry is below 2 in
    magnitude and none overflows float32."""

    def __init__(self, factors: tuple[np.ndarray, np.ndarray], train_u: np.ndarray):
        self._factors = factors
        self._u = vech(train_u)
        self.train_u = train_u
        self.n = factors[0].shape[1]
        d_t, half_c = factors
        c = half_c - self._u
        a = max(_exponent(d_t), math.ceil(_exponent(c) / 2))
        d32 = np.ldexp(d_t, -a).astype(np.float32)
        c32 = np.ldexp(c, -2 * a).astype(np.float32)
        self._factors32 = (d32, d32 / np.float32(2), c32)
        self._exponent32 = 2 * a

    @property
    def g_hat(self) -> np.ndarray:
        """ghat built on demand, bit for bit ``cross_mean`` - vech(U)."""
        d_t, half_c = self._factors
        out = np.empty((self._u.size, self.n))
        _vech_rows((d_t, d_t / 2.0, half_c), 0, 0, out)
        out -= self._u[:, None]
        return out.T

    def _float32_block(self, k0: int, lo: int, hi: int, buf: np.ndarray) -> np.ndarray:
        x = buf[: (hi - lo) * self.n].reshape(hi - lo, self.n)
        return _vech_rows(self._factors32, k0, lo, x).T


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
        (d_t, half_c), _ = _cross_factors(xs, ys)
        out = np.empty((half_c.size, d_t.shape[1]))
        return _vech_rows((d_t, d_t / 2.0, half_c), 0, 0, out).T

    def _estimates(self, main: np.ndarray, train: np.ndarray) -> DecoupledGEstimates:
        # only ghat's factors are kept (module docstring); U(train) = G / (n - 1)
        factors, gram = _cross_factors(main, train)
        return _CovarianceEstimates(factors, gram / (train.shape[0] - 1))


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
        for _, s in _sign_blocks(_rank_codes(data)):
            s = s.reshape(-1, p)
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
        prod = _work_array("kendall.prod", (block, p, p), np.float32)
        vech_buf = _work_array("kendall.vech", (block, at.size), np.float32)
        out = np.empty((n_x, at.size))
        for start, s in _sign_blocks(codes[:n_x], codes[n_x:]):
            b = len(s)
            np.matmul(s.transpose(0, 2, 1), s, out=prod[:b])
            np.take(prod[:b].reshape(b, -1), at, axis=1, out=vech_buf[:b], mode="clip")
            np.add(vech_buf[:b], n_y, out=out[start : start + b], dtype=np.float64)
        out /= n_y
        return out

