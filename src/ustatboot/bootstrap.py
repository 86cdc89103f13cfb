"""Gaussian wild bootstrap for sup-norms of order-two U-statistics.

Pipeline: split the sample into a main and a training half, estimate the
Hajek projection at each main row against the training half (the decoupled
estimator), then perturb the estimates with iid standard normal multipliers
and read quantiles off the sorted draws.

Two scalings of the multiplier statistic are implemented:

* ``raw``          -- signed max of n^{-1/2} sum_i ghat_{i,mk} e_i (the scale
  of the Gaussian-approximation theory);
* ``applications`` -- 2 n^{-1} max |sum_i ghat_{i,mk} e_i| (the scale of the
  statistical applications, matching ||U - EU||).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import Kernel, check_data
from .matstat import vech, vech_pairs
from .rngutil import SeedLike, substream
from .ustat import UStatResult, compute_u

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

SCALINGS = ("raw", "applications")
RESTRICTIONS = ("all", "offdiag")


@dataclass(frozen=True)
class DecoupledGEstimates:
    """Per-row Hajek projection estimates ghat_i and the training-half
    U-statistic they were centered with."""

    g_hat: np.ndarray  # (n, p, p)
    train_u: np.ndarray  # (p, p)

    @property
    def n(self) -> int:
        return self.g_hat.shape[0]

    @property
    def p(self) -> int:
        return self.g_hat.shape[1]


@dataclass(frozen=True)
class BootstrapDraws:
    """Sorted multiplier-bootstrap draws defining the quantile function."""

    values: np.ndarray  # ascending
    scaling: str
    restriction: str

    @property
    def b(self) -> int:
        return self.values.shape[0]


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

    ghat_i = n^{-1} sum_j h(X_i, X'_j) - C(n,2)^{-1} sum_{j<l} h(X'_j, X'_l).
    """
    main = check_data(main)
    train = check_data(train)
    if main.shape != train.shape:
        raise ValueError(
            f"main and train shapes differ: {main.shape} vs {train.shape}"
        )
    cross = kernel.cross_mean(main, train)
    train_u = kernel.u_stat(train)
    return DecoupledGEstimates(g_hat=cross - train_u, train_u=train_u)


def _multiplier_matrix(g: DecoupledGEstimates, restriction: str) -> np.ndarray:
    """(n, n_entries) matrix of ghat entries over which the max is taken.

    ghat_i is symmetric, so the half-vectorization carries every distinct
    entry; the off-diagonal restriction keeps pairs with j > k.
    """
    flat = vech(g.g_hat)
    if restriction == "all":
        return flat
    if restriction == "offdiag":
        rows, cols = vech_pairs(g.p)
        return flat[:, rows != cols]
    raise ValueError(f"restriction must be one of {RESTRICTIONS}, got {restriction!r}")


def draw_bootstrap(
    g: DecoupledGEstimates,
    b: int,
    scaling: str = "applications",
    restriction: str = "all",
    seed: SeedLike = 0,
    *key: int,
) -> BootstrapDraws:
    """Generate b multiplier draws; draw d uses the substream (seed, *key, d)
    so results do not depend on execution order or parallelism."""
    if b < 1:
        raise ValueError("b must be >= 1")
    if scaling not in SCALINGS:
        raise ValueError(f"scaling must be one of {SCALINGS}, got {scaling!r}")
    mat = _multiplier_matrix(g, restriction)
    n = g.n
    values = np.empty(b)
    for d in range(b):
        e = substream(seed, *key, d).standard_normal(n)
        s = e @ mat
        if scaling == "raw":
            values[d] = np.max(s) / math.sqrt(n)
        else:
            values[d] = 2.0 * np.max(np.abs(s)) / n
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
