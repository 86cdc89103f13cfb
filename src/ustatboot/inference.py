"""Simultaneous sup-norm hypothesis tests backed by the wild bootstrap.

Each test splits the sample into a main half (statistic) and a training half
(decoupled Hajek estimates), draws multiplier-bootstrap critical values at
the applications scaling and rejects when statistic >= critical value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bootstrap import bootstrap_halves, check_level, quantile
from .kernels import CovarianceKernel, Kernel, KendallKernel
from .matstat import as_sym
from .rngutil import SeedLike

__all__ = ["TestResult", "test_covariance", "test_kendall", "test_ustat_mean"]


@dataclass(frozen=True)
class TestResult:
    statistic: float
    critical_value: float
    alpha: float
    reject: bool
    b: int
    p_value: float  # the share of draws above the statistic


def _run_test(
    data: np.ndarray,
    kernel: Kernel,
    u0: np.ndarray,
    alpha: float,
    b: int,
    seed: SeedLike,
    key: tuple[int, ...],
    restriction: str,
) -> TestResult:
    check_level(alpha)
    u, draws = bootstrap_halves(
        data, kernel, b, "applications", restriction, seed, *key, 0
    )
    stat = draws.statistic(u, u0)
    return TestResult(
        statistic=stat,
        critical_value=quantile(draws, 1.0 - alpha),
        alpha=alpha,
        reject=bool(draws.rejects(stat, (alpha,))[0]),
        b=b,
        p_value=draws.p_value(stat),
    )


def test_covariance(
    data: np.ndarray,
    sigma0: np.ndarray,
    alpha: float,
    b: int = 200,
    seed: SeedLike = 0,
    *key: int,
) -> TestResult:
    """H0: Sigma = Sigma0, tested on the maximum absolute off-diagonal
    deviation of the sample covariance from Sigma0."""
    return _run_test(
        data, CovarianceKernel(), as_sym(sigma0), alpha, b, seed, key, "offdiag"
    )


def test_kendall(
    data: np.ndarray,
    t0: np.ndarray,
    alpha: float,
    b: int = 200,
    seed: SeedLike = 0,
    *key: int,
) -> TestResult:
    """H0: Kendall's tau-a matrix = T0 off the diagonal.

    Tau-a counts a pair with a tie in either coordinate as neither
    concordant nor discordant, so its diagonal is the share of untied pairs
    (1 for continuous data) and only the off-diagonal entries are tested.
    The sign-product kernel has mean matrix tau_a + 11^T, so T0 is shifted
    up by one per entry to compare on the kernel scale; the shift cancels in
    the decoupled Hajek estimates.
    """
    t0 = as_sym(t0)
    return _run_test(
        data, KendallKernel(), t0 + 1.0, alpha, b, seed, key, "offdiag"
    )


def test_ustat_mean(
    data: np.ndarray,
    kernel: Kernel,
    u0: np.ndarray,
    alpha: float,
    b: int = 200,
    seed: SeedLike = 0,
    *key: int,
    restriction: str = "all",
) -> TestResult:
    """H0: E U = U0 for a generic order-two kernel."""
    return _run_test(data, kernel, as_sym(u0), alpha, b, seed, key, restriction)
