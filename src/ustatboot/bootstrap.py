"""Gaussian wild bootstrap for sup-norms of order-two U-statistics.

Pipeline: split the sample into a main and a training half, estimate the
Hajek projection at each main row against the training half (the decoupled
estimator), then perturb the estimates with iid standard normal multipliers
and read quantiles off the sorted draws.

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

import numpy as np

from .kernels import Kernel, check_data
from .matstat import vech
from .rngutil import SeedLike, substream, substream_normals
from .ustat import UStatResult, check_scaling, compute_u, sup_stat, vech_columns

__all__ = [
    "DecoupledGEstimates",
    "BootstrapDraws",
    "QuantileEstimate",
    "split_sample",
    "estimate_g_decoupled",
    "draw_bootstrap",
    "bootstrap_halves",
    "quantile",
]

@dataclass(frozen=True, eq=False)
class DecoupledGEstimates:
    """Per-row Hajek projection estimates ghat_i, half-vectorized (row i is
    ``vech(ghat_i)``: ghat_i is symmetric, so this holds every distinct
    entry), and the training-half U-statistic they were centered with."""

    g_hat: np.ndarray  # (n, p(p+1)/2)
    train_u: np.ndarray  # (p, p)

    def __post_init__(self) -> None:
        p = self.p
        if self.g_hat.ndim != 2 or self.g_hat.shape[1] != p * (p + 1) // 2:
            raise ValueError(
                f"g_hat must be (n, p(p+1)/2) for p = {p}, got {self.g_hat.shape}"
            )

    @property
    def n(self) -> int:
        return self.g_hat.shape[0]

    @property
    def p(self) -> int:
        return self.train_u.shape[0]


@dataclass(frozen=True, eq=False)
class BootstrapDraws:
    """Sorted multiplier-bootstrap draws defining the quantile function."""

    values: np.ndarray  # ascending
    scaling: str
    restriction: str

    @property
    def b(self) -> int:
        return self.values.shape[0]

    def statistic(self, u: UStatResult, target: np.ndarray) -> float:
        """The centred maximum of U whose law these draws approximate."""
        return sup_stat(u, target, self.scaling, self.restriction)


@dataclass(frozen=True)
class QuantileEstimate:
    """Empirical inf-quantile (an order statistic of the draws)."""

    alpha: float
    value: float
    b: int


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

    each half-vectorized into one row of ``g_hat``.
    """
    main = check_data(main)
    train = check_data(train)
    if main.shape != train.shape:
        raise ValueError(
            f"main and train shapes differ: {main.shape} vs {train.shape}"
        )
    g_hat = kernel.cross_mean(main, train)  # a new array, centered in place
    train_u = kernel.u_stat(train)
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
    parallelism.  The draws are one GEMM with the (n, p(p+1)/2) matrix
    ``g.g_hat`` (all entries, as it is) or its off-diagonal columns; every
    scaling and restriction uses the same multiplier rows."""
    if b < 1:
        raise ValueError("b must be >= 1")
    check_scaling(scaling)
    mat = g.g_hat[:, vech_columns(g.p, restriction)]
    n = g.n
    s = substream_normals(seed, *key, rows=b, cols=n) @ mat
    if scaling == "raw":
        values = s.max(axis=1) / math.sqrt(n)
    else:
        # max |s| per draw without an |s| temporary
        values = 2.0 * np.maximum(s.max(axis=1), -s.min(axis=1)) / n
    values.sort()
    return BootstrapDraws(values=values, scaling=scaling, restriction=restriction)


def bootstrap_halves(
    main: np.ndarray,
    train: np.ndarray,
    kernel: Kernel,
    b: int,
    scaling: str = "applications",
    restriction: str = "all",
    seed: SeedLike = 0,
    *key: int,
) -> tuple[UStatResult, BootstrapDraws]:
    """The front end every application shares: the U-statistic of the main
    half and b sorted multiplier draws of the decoupled estimates of the
    main half against the training half, keyed (seed, *key)."""
    g = estimate_g_decoupled(main, train, kernel)
    return compute_u(main, kernel), draw_bootstrap(
        g, b, scaling, restriction, seed, *key
    )


def quantile(draws: BootstrapDraws, alpha: float) -> QuantileEstimate:
    """Empirical inf-quantile: the ceil(alpha * B)-th order statistic.

    Levels like 1 - 0.95 carry rounding error of a few units of double
    precision at 1, so alpha * B within that distance of an integer is taken
    as that integer (ceil(0.05 * 200) is 10, not 11).  Raises
    FloatingPointError if the selected draw is not finite.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    b = draws.b
    k = alpha * b
    rank = round(k)
    if abs(k - rank) > 4 * b * math.ulp(1.0):
        rank = math.ceil(k)
    value = float(draws.values[max(rank, 1) - 1])
    if not math.isfinite(value):
        raise FloatingPointError(f"bootstrap quantile at level {alpha} is {value}")
    return QuantileEstimate(alpha=alpha, value=value, b=b)
