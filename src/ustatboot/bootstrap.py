"""Gaussian wild bootstrap for sup-norms of order-two U-statistics.

Pipeline: split the sample into a main and a training half, estimate the
Hajek projection at each main row against the training half (the decoupled
estimator), then perturb the estimates with iid standard normal multipliers
and read quantiles and decisions off the sorted draws at one rank, ``_rank``.

The draws never hold the (B, p(p+1)/2) product of the multipliers with
ghat.  ``draw_bootstrap`` reads ghat one vech column block at a time (the
entries (j, k), j >= k, of whole matrix columns k, about ``_BLOCK_SIZE`` / n
of them per block): one GEMM of the (B, n) multipliers e with the block's
columns of ghat, then a running maximum per draw of that block's signed max
or max |.|.  Each kernel builds its estimates in ``kernels``
(``Kernel._estimates``), and every kernel's estimates hand the draws each
block of ghat as float32 columns x and an exponent k, x 2^k the block
(``DecoupledGEstimates._float32_blocks``): by default slices of a
materialized ghat, scaled and cast, and for the covariance kernel blocks
filled in float32 from factors.  The multipliers and every work array of a
draw come from the per-thread pool of ``kernels._work_array``, so repeated
draws at one shape allocate none of them; what a draw returns is always a
new array.

Only the block products run in float32.  The multipliers are drawn in
float64 from their substream and rounded once to float32.  A materialized
block of ghat is divided by 2^k, k the binary exponent of its largest
|entry|, and rounded once to float32.  Covariance ghat (j, k) is
d_j d_k / 2 + C_jk / 2 - U_jk (``kernels``); its estimates round d / 2^a,
its exact half and (C / 2 - U) / 4^a to float32 once, a the larger of the
exponents of max |d| and of sqrt(max |C / 2 - U|), and fill each block
entry with one float32 product and one float32 add, with k = 2a.  The GEMM
and the block's maximum run in float32, and the maximum is multiplied back
by 2^k in float64, where the running maximum, the scaling and the sort
stay.  Powers of two scale exactly, so the draws are exactly
scale-equivariant, and no block overflows float32, whatever the scale of
the data.  A float32 sum of n products errs by at most
gamma_{n+r} sum_i |e_i| m_i, with gamma_m = m 2^-24 / (1 - m 2^-24)
(Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002,
sec. 3.1), in any summation order: r = 2 and m_i = |ghat_i| for a
materialized block, r = 5 and m_i = |d_ij d_ik| / 2 + |C_jk / 2 - U_jk|
for a covariance block (the roundings of e_i, d_j, d_k, their product and
the add).  That is a relative error of about 1e-6 at most, against a Monte
Carlo error of a B = 200 quantile of a few percent.  The bound holds while
the scaled float32 entries are normal (at least 2^-126); an entry below
that, 2^-126 or less of the block's largest or of 4^a, adds at most
2^-150 2^k per rounding.

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

import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .kernels import DecoupledGEstimates, Kernel, _work_array, check_data
from .rngutil import substream
from .ustat import UStatResult, check_maximum, compute_u, entry_max, sup_stat

__all__ = [
    "DegenerateBootstrapError",
    "DecoupledGEstimates",
    "BootstrapDraws",
    "split_sample",
    "estimate_g_decoupled",
    "draw_bootstrap",
    "bootstrap_halves",
    "quantile",
]

# entries per draw block of ghat (n rows by its vech columns; 256 KB as the
# float32 block, and 512 KB as a materialized ghat's float64 slice): a block
# takes whole matrix columns until it holds this many, about 330 vech
# columns at n = 200, so that the block and its product stay in cache
_BLOCK_SIZE = 2**16

# doubles per chunk of the float64 multiplier fill (128 KB), which is cast
# into the float32 multipliers before the next chunk is drawn
_NORMALS_CHUNK = 2**14


@functools.lru_cache(maxsize=64)
def _column_blocks(p: int, n: int) -> tuple[tuple[int, int, int, np.ndarray], ...]:
    """(k0, lo, hi, diag) per block of a ghat with n rows: the vech positions
    lo..hi-1 of whole matrix columns from k0 on, and the block offsets of
    their diagonal entries (k, k), each the first of its column, as a
    read-only ``np.intp`` index array.  Built once per (p, n)."""
    blocks = []
    k0 = lo = 0
    while k0 < p:
        k1, hi, diag = k0, lo, []
        while k1 < p and (hi - lo) * n < _BLOCK_SIZE:
            diag.append(hi - lo)
            hi += p - k1
            k1 += 1
        diag = np.array(diag, np.intp)
        diag.flags.writeable = False
        blocks.append((k0, lo, hi, diag))
        k0, lo = k1, hi
    return tuple(blocks)


class DegenerateBootstrapError(FloatingPointError):
    """Every multiplier draw is 0 (ghat vanishes, e.g. on constant data), so
    no critical value is informative."""


def check_level(alpha: float) -> None:
    """Raise ValueError unless alpha and 1 - alpha both lie in (0, 1): for
    alpha below about 1e-16, 1 - alpha rounds to 1 and has no rank."""
    if not (0.0 < alpha < 1.0 and 1.0 - alpha < 1.0):
        raise ValueError(f"alpha and 1 - alpha must lie in (0, 1), got {alpha!r}")


def check_b(b: int) -> None:
    """Raise unless b, the number of draws, is an integer >= 1, checked as
    ``rngutil.substream`` checks seeds: ``operator.index``, and no bool."""
    if isinstance(b, bool):
        raise TypeError("b must be an integer, not bool")
    try:
        b = operator.index(b)
    except TypeError:
        raise TypeError(f"b must be an integer, got {b!r}") from None
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")


def _checked(alphas: Iterable[float]):
    """Each level of ``alphas`` once ``check_level`` has passed it."""
    for alpha in alphas:
        check_level(alpha)
        yield alpha


def _rank(alpha: float, b: int) -> int:
    """The 1-based rank of the inf-quantile at level alpha among b sorted
    draws: ceil(alpha * b), at least 1.

    Levels like 1 - 0.95 carry rounding error of a few units of double
    precision at 1, so alpha * b within that distance of an integer is taken
    as that integer (ceil(0.05 * 200) is 10, not 11).  Callers check the
    level they are given with ``check_level``."""
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
        return np.array([below < _rank(a, b) for a in _checked(alphas)])

    def rejects(self, statistic: float, alphas: Iterable[float]) -> np.ndarray:
        """statistic >= quantile(self, 1 - alpha) per alpha: at least
        ``_rank(1 - alpha, b)`` draws lie at or below the statistic.  Counts
        decide, not ``p_value <= alpha``, which fails at b = 100 with 10 draws
        above and alpha = 1 - 0.9 = 0.09999999999999998."""
        at_most, b = self._count(statistic, "right"), self.b
        return np.array([at_most >= _rank(1.0 - a, b) for a in _checked(alphas)])

    def p_value(self, statistic: float) -> float:
        """The share of draws above the statistic."""
        return (self.b - self._count(statistic, "right")) / self.b


def split_sample(
    data: np.ndarray, seed: int, *key: int
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

    each half-vectorized into one row of ``g_hat``.  The kernel builds the
    estimates (``Kernel._estimates``, see ``kernels``).
    """
    main = check_data(main)
    train = check_data(train)
    if main.shape != train.shape:
        raise ValueError(
            f"main and train shapes differ: {main.shape} vs {train.shape}"
        )
    return kernel._estimates(main, train)


def _multipliers(b: int, n: int, seed: int, *key: int) -> np.ndarray:
    """The (b, n) standard normal multipliers of the substream (seed, *key)
    as a pooled float32 array: drawn in float64 in chunks of rows into a
    small pooled buffer, each cast before the next is drawn.  Fills from one
    generator continue bit for bit, so the rows are those of one (b, n)
    float64 fill, rounded."""
    rng = substream(seed, *key)
    e = _work_array("bootstrap.multipliers", (b, n), np.float32)
    rows = min(b, max(1, _NORMALS_CHUNK // n))
    chunk = _work_array("bootstrap.normals", (rows, n))
    for start in range(0, b, rows):
        part = chunk[: min(rows, b - start)]
        rng.standard_normal(out=part)
        e[start : start + len(part)] = part
    return e


def draw_bootstrap(
    g: DecoupledGEstimates,
    b: int,
    scaling: str = "applications",
    restriction: str = "all",
    seed: int = 0,
    *key: int,
) -> BootstrapDraws:
    """Generate b multiplier draws from the one substream (seed, *key).

    The b multiplier vectors are the rows of one (b, n) standard normal
    matrix from that substream, filled in row order, so draw d depends only
    on (seed, key, n, d): the draws of a smaller b are a prefix of those of
    a larger one, and results do not depend on execution order or
    parallelism.  ghat comes in float32 vech column blocks
    (``g._float32_blocks``); each block's multiplier sums are one float32
    GEMM (the module docstring has its scaling and error bound), which
    ``ustat.entry_max`` reduces per draw over every entry or the
    off-diagonal ones (a block's diagonal positions are masked in place),
    and a running maximum over the blocks gives each draw's signed max or
    max |.|.  Every scaling and restriction uses the same multiplier rows.
    Raises ``DegenerateBootstrapError`` when every draw is 0."""
    check_b(b)
    check_maximum(scaling, restriction, g.p)
    n = g.n
    schedule = _column_blocks(g.p, n)
    width = max(hi - lo for _, lo, hi, _ in schedule)
    e = _multipliers(b, n, seed, *key)
    # the products are column-major: ``entry_max`` then reduces each draw
    # across contiguous columns, which is faster for float32
    out = _work_array("bootstrap.product", (width, b), np.float32)
    values = np.full(b, -np.inf)
    for (*_, diag), (x, k) in zip(schedule, g._float32_blocks(schedule)):
        s = np.matmul(e, x, out=out[: x.shape[1]].T)
        block_max = entry_max(s, diag, scaling, restriction)
        np.maximum(values, np.ldexp(block_max, k, dtype=np.float64), out=values)
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
    seed: int = 0,
    *key: int,
) -> tuple[UStatResult, BootstrapDraws]:
    """The front end every application shares: split ``data`` into a main
    and a training half on the substream (seed, *key), then return the
    U-statistic of the main half and b sorted multiplier draws of the
    decoupled estimates of the main half against the training half, drawn
    on the same key with its last entry plus one.  No key means (0,).  Keys
    one apart in their last entry share a substream (the draws of one are
    the split of the other), so independent calls take keys that differ
    elsewhere or by two or more in the last entry."""
    key = key or (0,)
    main, train = split_sample(data, seed, *key)
    g = estimate_g_decoupled(main, train, kernel)
    return compute_u(main, kernel), draw_bootstrap(
        g, b, scaling, restriction, seed, *key[:-1], key[-1] + 1
    )


def quantile(draws: BootstrapDraws, alpha: float) -> float:
    """Empirical inf-quantile: the draw at ``_rank(alpha, B)``, the
    ceil(alpha * B)-th order statistic."""
    check_level(alpha)
    return float(draws.values[_rank(alpha, draws.b) - 1])
