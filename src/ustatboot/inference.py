"""Simultaneous sup-norm hypothesis tests backed by the wild bootstrap.

Each test splits the sample into a main half (statistic) and a training half
(decoupled Hajek estimates), draws multiplier-bootstrap critical values at
the applications scaling and rejects when statistic >= critical value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bootstrap import BootstrapDraws, bootstrap_halves, check_level, quantile
from .kernels import CovarianceKernel, Kernel, KendallKernel, check_data
from .matstat import as_sym

__all__ = [
    "TestResult",
    "covariance_null_draws",
    "kendall_null_draws",
    "test_covariance",
    "test_kendall",
    "test_ustat_mean",
]


@dataclass(frozen=True)
class TestResult:
    statistic: float
    critical_value: float
    alpha: float
    reject: bool
    b: int
    p_value: float  # the share of draws above the statistic
    # the sorted draws, so that one bootstrap decides every other level too
    # (``draws.rejects(statistic, alphas)``)
    draws: BootstrapDraws = field(compare=False, repr=False)


def _null_draws(
    data: np.ndarray,
    kernel: Kernel,
    u0: np.ndarray,
    b: int,
    seed: int,
    *key: int,
    restriction: str = "all",
) -> tuple[float, BootstrapDraws]:
    """The statistic and sorted draws of ``test_ustat_mean`` at its
    applications scaling, without a critical value, decision or p-value."""
    u0 = as_sym(u0)
    p = check_data(data).shape[1]
    if u0.shape != (p, p):
        raise ValueError(f"null matrix shape {u0.shape} does not match p = {p}")
    u, draws = bootstrap_halves(
        data, kernel, b, "applications", restriction, seed, *key
    )
    return draws.statistic(u, u0), draws


def _decide(stat: float, draws: BootstrapDraws, alpha: float) -> TestResult:
    """The level-alpha test of ``stat`` against its sorted ``draws``."""
    return TestResult(
        statistic=stat,
        critical_value=quantile(draws, 1.0 - alpha),
        alpha=alpha,
        reject=bool(draws.rejects(stat, (alpha,))[0]),
        b=draws.b,
        p_value=draws.p_value(stat),
        draws=draws,
    )


def test_ustat_mean(
    data: np.ndarray,
    kernel: Kernel,
    u0: np.ndarray,
    alpha: float,
    b: int = 200,
    seed: int = 0,
    *key: int,
    restriction: str = "all",
) -> TestResult:
    """H0: E U = U0 for a generic order-two kernel, under the key rule of
    ``bootstrap_halves``, which keeps test_size's two tests on the keys
    (tag, r, 1) and (tag, r, 4) independent."""
    check_level(alpha)
    return _decide(
        *_null_draws(data, kernel, u0, b, seed, *key, restriction=restriction),
        alpha,
    )


def covariance_null_draws(
    data: np.ndarray, sigma0: np.ndarray, b: int = 200, seed: int = 0, *key: int
) -> tuple[float, BootstrapDraws]:
    """The statistic and sorted draws of ``test_covariance``, which decide
    every level at once (``draws.rejects(statistic, alphas)``)."""
    return _null_draws(
        data, CovarianceKernel(), sigma0, b, seed, *key, restriction="offdiag"
    )


def test_covariance(
    data: np.ndarray,
    sigma0: np.ndarray,
    alpha: float,
    b: int = 200,
    seed: int = 0,
    *key: int,
) -> TestResult:
    """H0: Sigma = Sigma0, tested on the maximum absolute off-diagonal
    deviation of the sample covariance from Sigma0."""
    check_level(alpha)
    return _decide(*covariance_null_draws(data, sigma0, b, seed, *key), alpha)


def kendall_null_draws(
    data: np.ndarray, t0: np.ndarray, b: int = 200, seed: int = 0, *key: int
) -> tuple[float, BootstrapDraws]:
    """The statistic and sorted draws of ``test_kendall``, which decide
    every level at once (``draws.rejects(statistic, alphas)``).

    Tau-a counts a pair with a tie in either coordinate as neither
    concordant nor discordant, so its diagonal is the share of untied pairs
    (1 for continuous data) and only the off-diagonal entries are tested.
    The sign-product kernel has mean matrix tau_a + 11^T, so T0 is shifted
    up by one per entry to compare on the kernel scale; the shift cancels in
    the decoupled Hajek estimates.
    """
    return _null_draws(
        data, KendallKernel(), as_sym(t0) + 1.0, b, seed, *key,
        restriction="offdiag",
    )


def test_kendall(
    data: np.ndarray,
    t0: np.ndarray,
    alpha: float,
    b: int = 200,
    seed: int = 0,
    *key: int,
) -> TestResult:
    """H0: Kendall's tau-a matrix = T0 off the diagonal, on the statistic
    and draws of ``kendall_null_draws``."""
    check_level(alpha)
    return _decide(*kendall_null_draws(data, t0, b, seed, *key), alpha)
