"""Gaussian wild bootstrap for sup-norms of order-two U-statistics.

Pipeline: split the sample into a main and a training half, estimate the
Hajek projection at each main row against the training half (the decoupled
estimator), then perturb the estimates with iid standard normal multipliers
and read quantiles and decisions off the sorted draws at one rank, ``_rank``.

The draws never hold the (B, p(p+1)/2) product of the multipliers with ghat,
nor, for the covariance kernel, ghat itself.  ``draw_bootstrap`` reads ghat
one vech column block at a time (the entries (j, k), j >= k, of whole matrix
columns k, about ``_BLOCK_SIZE`` / n of them per block): one GEMM per
block, then a running maximum per draw of that block's signed max or
max |.|.  For the covariance kernel, column (j, k) of ghat is
d_j * d_k / 2 + D_jk with d = main - mean(train) and D = C / 2 - U(train),
so the estimates keep only d^T and vech(C) and build each block when it is
asked for, in one reused buffer; every other kernel's ghat is materialized
and handed out in slices.  The (B, n) multipliers and every work array of a
draw come from the per-thread pool of ``kernels._work_array``, so repeated
draws at one shape allocate none of them; what a draw returns is always a
new array.

Two scalings of the multiplier statistic are implemented, each paired with
the centred maximum of ``ustat.sup_stat`` whose law it approximates:

* ``raw``          -- signed max of n^{-1/2} sum_i ghat_{i,mk} e_i, for
  sqrt(n) max(U - EU) / 2 (the scale of the Gaussian-approximation theory);
* ``applications`` -- 2 n^{-1} max |sum_i ghat_{i,mk} e_i|, for max |U - EU|
  (the scale of the statistical applications).

``BootstrapDraws.statistic`` takes that maximum at the draws' own scaling and
restriction, so a statistic and its critical values cannot disagree on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .kernels import CovarianceKernel, Kernel, _work_array, check_data
from .matstat import vech, vech_outer_rows
from .rngutil import SeedLike, substream
from .ustat import UStatResult, check_maximum, compute_u, entry_max, sup_stat

__all__ = [
    "DegenerateBootstrapError",
    "DecoupledGEstimates",
    "check_level",
    "BootstrapDraws",
    "split_sample",
    "estimate_g_decoupled",
    "draw_bootstrap",
    "bootstrap_halves",
    "quantile",
]

# doubles per draw block of ghat (n rows by its vech columns, 512 KB): a
# block takes whole matrix columns until it holds this many, about 330 vech
# columns at n = 200, so that its operand and product stay in cache
_BLOCK_SIZE = 2**16


def _column_blocks(p: int, n: int) -> list[tuple[int, int, int, int, np.ndarray]]:
    """(k0, k1, lo, hi, diag) per block of a ghat with n rows: matrix columns
    k0..k1-1, which fill the vech positions lo..hi-1, and the block offsets
    of their diagonal entries (k, k), each the first of its column, as an
    ``np.intp`` index array."""
    blocks = []
    k0 = lo = 0
    while k0 < p:
        k1, hi, diag = k0, lo, []
        while k1 < p and (hi - lo) * n < _BLOCK_SIZE:
            diag.append(hi - lo)
            hi += p - k1
            k1 += 1
        blocks.append((k0, k1, lo, hi, np.array(diag, np.intp)))
        k0, lo = k1, hi
    return blocks


class DegenerateBootstrapError(FloatingPointError):
    """Every multiplier draw is 0 (ghat vanishes, e.g. on constant data), so
    no critical value is informative."""


class DecoupledGEstimates:
    """Per-row Hajek projection estimates ghat_i, half-vectorized (row i of
    ``g_hat`` is ``vech(ghat_i)``: ghat_i is symmetric, so this holds every
    distinct entry), and the training-half U-statistic they were centered
    with.  ``blocks`` hands ghat to ``draw_bootstrap`` in vech column blocks;
    this class holds ghat materialized and hands out slices of it."""

    def __init__(self, g_hat: np.ndarray, train_u: np.ndarray):
        p = train_u.shape[0]
        if g_hat.ndim != 2 or g_hat.shape[1] != p * (p + 1) // 2:
            raise ValueError(
                f"g_hat must be (n, p(p+1)/2) for p = {p}, got {g_hat.shape}"
            )
        self.g_hat = g_hat  # (n, p(p+1)/2)
        self.train_u = train_u  # (p, p)
        self.n = g_hat.shape[0]

    @property
    def p(self) -> int:
        return self.train_u.shape[0]

    def blocks(self, e: np.ndarray, schedule: list):
        """Yield (a, x) per block (k0, k1, lo, hi, diag) of the
        ``_column_blocks`` schedule, with a @ x = e @ g_hat[:, lo:hi] for the
        (b, n) multipliers e.  Each a and x is valid until the next block is
        asked for."""
        for _, _, lo, hi, _ in schedule:
            yield e, self.g_hat[:, lo:hi]


class _CovarianceEstimates(DecoupledGEstimates):
    """Covariance-kernel ghat from its factors: column (j, k) is
    (d_j * d_k + C_jk) / 2 - U_jk with d^T = ``d_t`` (p x n), vech(C) = ``c``
    and U = ``train_u``.  Only ``g_hat`` builds the (n, p(p+1)/2) matrix."""

    def __init__(self, d_t: np.ndarray, c: np.ndarray, train_u: np.ndarray):
        self._d_t = d_t
        self._c = c
        self.train_u = train_u
        self.n = d_t.shape[1]

    @property
    def g_hat(self) -> np.ndarray:
        """ghat built on demand, bit for bit ``CovarianceKernel.cross_mean``
        minus ``vech(train_u)``."""
        out = CovarianceKernel.mean_from_factors(self._d_t, self._c)
        out -= vech(self.train_u)
        return out

    def blocks(self, e: np.ndarray, schedule: list):
        # [e / 2 | row sums of e] @ [d_j * d_k | D_jk]^T folds the halving
        # and the constant D = C / 2 - U into the GEMM
        n = self.n
        a = _work_array("bootstrap.operand", (e.shape[0], n + 1))
        np.multiply(e, 0.5, out=a[:, :n])
        a[:, n] = e.sum(axis=1)
        const = self._c / 2.0 - vech(self.train_u)
        width = max(hi - lo for _, _, lo, hi, _ in schedule)
        buf = _work_array("bootstrap.block", (width, n + 1))
        for k0, k1, lo, hi, _ in schedule:
            rows = buf[: hi - lo]
            vech_outer_rows(self._d_t, k0, k1, rows[:, :n])
            rows[:, n] = const[lo:hi]
            yield a, rows.T


def check_level(alpha: float) -> None:
    """Raise ValueError unless alpha and 1 - alpha both lie in (0, 1): for
    alpha below about 1e-16, 1 - alpha rounds to 1 and has no rank."""
    if not (0.0 < alpha < 1.0 and 1.0 - alpha < 1.0):
        raise ValueError(f"alpha and 1 - alpha must lie in (0, 1), got {alpha!r}")


def _rank(alpha: float, b: int) -> int:
    """The 1-based rank of the inf-quantile at level alpha among b sorted
    draws: ceil(alpha * b), at least 1.

    Levels like 1 - 0.95 carry rounding error of a few units of double
    precision at 1, so alpha * b within that distance of an integer is taken
    as that integer (ceil(0.05 * 200) is 10, not 11)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    k = alpha * b
    rank = round(k)
    if abs(k - rank) > 4 * b * math.ulp(1.0):
        rank = math.ceil(k)
    return max(rank, 1)


@dataclass(frozen=True, eq=False)
class BootstrapDraws:
    """Sorted multiplier-bootstrap draws defining the quantile function; a
    non-finite draw raises FloatingPointError."""

    values: np.ndarray  # ascending
    scaling: str
    restriction: str

    def __post_init__(self):
        if not np.isfinite(self.values).all():
            raise FloatingPointError("bootstrap draws must be finite")

    @property
    def b(self) -> int:
        return self.values.shape[0]

    def statistic(self, u: UStatResult, target: np.ndarray) -> float:
        """The centred maximum of U whose law these draws approximate."""
        return sup_stat(u, target, self.scaling, self.restriction)

    def _count(self, statistic: float, side: str) -> int:
        """Draws below (``left``) or at most (``right``) the statistic; a NaN
        statistic, which would count as above every draw, raises."""
        if math.isnan(statistic):
            raise ValueError("the statistic is NaN")
        return int(np.searchsorted(self.values, statistic, side))

    def covers(self, statistic: float, alphas: Iterable[float]) -> np.ndarray:
        """statistic <= quantile(self, alpha) per alpha: fewer than
        ``_rank(alpha, b)`` draws lie below the statistic."""
        below, b = self._count(statistic, "left"), self.b
        return np.array([below < _rank(a, b) for a in alphas])

    def rejects(self, statistic: float, alphas: Iterable[float]) -> np.ndarray:
        """statistic >= quantile(self, 1 - alpha) per alpha: at least
        ``_rank(1 - alpha, b)`` draws lie at or below the statistic.  Counts
        decide, not ``p_value <= alpha``, which fails at b = 100 with 10 draws
        above and alpha = 1 - 0.9 = 0.09999999999999998."""
        at_most, b = self._count(statistic, "right"), self.b
        return np.array([at_most >= _rank(1.0 - a, b) for a in alphas])

    def p_value(self, statistic: float) -> float:
        """The share of draws above the statistic."""
        return (self.b - self._count(statistic, "right")) / self.b


def split_sample(
    data: np.ndarray, seed: SeedLike, *key: int
) -> tuple[np.ndarray, np.ndarray]:
    """Randomly split into two disjoint halves of size floor(N/2) each.

    An odd leftover row is dropped.  Deterministic in (seed, key).
    """
    data = check_data(data, min_rows=4)
    rng = substream(seed, *key)
    perm = rng.permutation(data.shape[0])
    half = data.shape[0] // 2
    return data[perm[:half]], data[perm[half : 2 * half]]


def estimate_g_decoupled(
    main: np.ndarray, train: np.ndarray, kernel: Kernel
) -> DecoupledGEstimates:
    """Decoupled estimator of g at every main row:

    ghat_i = n^{-1} sum_j h(X_i, X'_j) - C(n,2)^{-1} sum_{j<l} h(X'_j, X'_l),

    each half-vectorized into one row of ``g_hat``.  For the covariance
    kernel only the factors of ghat are kept (see the module docstring).
    """
    main = check_data(main)
    train = check_data(train)
    if main.shape != train.shape:
        raise ValueError(
            f"main and train shapes differ: {main.shape} vs {train.shape}"
        )
    train_u = kernel.u_stat(train)
    if isinstance(kernel, CovarianceKernel):
        return _CovarianceEstimates(*kernel.cross_factors(main, train), train_u)
    g_hat = kernel.cross_mean(main, train)  # a new array, centered in place
    g_hat -= vech(train_u)
    return DecoupledGEstimates(g_hat=g_hat, train_u=train_u)


def draw_bootstrap(
    g: DecoupledGEstimates,
    b: int,
    scaling: str = "applications",
    restriction: str = "all",
    seed: SeedLike = 0,
    *key: int,
) -> BootstrapDraws:
    """Generate b multiplier draws from the one substream (seed, *key).

    The b multiplier vectors are the rows of one (b, n) standard normal
    matrix from that substream, filled in row order, so draw d depends only
    on (seed, key, n, d): the draws of a smaller b are a prefix of those of
    a larger one, and results do not depend on execution order or
    parallelism.  ghat comes in vech column blocks (``g.blocks``); each
    block's multiplier sums are one GEMM, which ``ustat.entry_max`` reduces
    per draw over every entry or the off-diagonal ones (a block's diagonal
    positions are masked in place), and a running maximum over the blocks
    gives each draw's signed max or max |.|.  Every scaling and restriction
    uses the same multiplier rows.  Raises ``DegenerateBootstrapError`` when
    every draw is 0."""
    if b < 1:
        raise ValueError("b must be >= 1")
    check_maximum(scaling, restriction, g.p)
    n = g.n
    schedule = _column_blocks(g.p, n)
    width = max(hi - lo for _, _, lo, hi, _ in schedule)
    out = _work_array("bootstrap.product", (b, width))
    values = np.full(b, -np.inf)
    e = _work_array("bootstrap.multipliers", (b, n))
    substream(seed, *key).standard_normal(out=e)
    for (*_, diag), (a, x) in zip(schedule, g.blocks(e, schedule)):
        s = np.matmul(a, x, out=out[:, : x.shape[1]])
        block_max = entry_max(s, diag, scaling, restriction)
        np.maximum(values, block_max, out=values)
    if not values.any():
        raise DegenerateBootstrapError(
            "every bootstrap draw is 0: the decoupled estimates vanish"
        )
    if scaling == "raw":
        values = values / math.sqrt(n)
    else:
        values = 2.0 * values / n
    values.sort()
    return BootstrapDraws(values=values, scaling=scaling, restriction=restriction)


def bootstrap_halves(
    data: np.ndarray,
    kernel: Kernel,
    b: int,
    scaling: str = "applications",
    restriction: str = "all",
    seed: SeedLike = 0,
    *key: int,
) -> tuple[UStatResult, BootstrapDraws]:
    """The front end every application shares: split ``data`` into a main
    and a training half on the substream (seed, *key), then return the
    U-statistic of the main half and b sorted multiplier draws of the
    decoupled estimates of the main half against the training half, drawn
    on the same key with its last entry plus one."""
    if not key:
        raise ValueError("bootstrap_halves needs a nonempty key")
    main, train = split_sample(data, seed, *key)
    g = estimate_g_decoupled(main, train, kernel)
    return compute_u(main, kernel), draw_bootstrap(
        g, b, scaling, restriction, seed, *key[:-1], key[-1] + 1
    )


def quantile(draws: BootstrapDraws, alpha: float) -> float:
    """Empirical inf-quantile: the draw at ``_rank(alpha, B)``, the
    ceil(alpha * B)-th order statistic."""
    return float(draws.values[_rank(alpha, draws.b) - 1])
