"""Simultaneous sup-norm hypothesis tests backed by the wild bootstrap.

Each test splits the sample into a main half (statistic) and a training half
(decoupled Hajek estimates) and returns the statistic with its sorted
multiplier-bootstrap draws at the applications scaling.  The draws decide
every level: ``t.draws.rejects(t.statistic, alphas)`` rejects where the
statistic is at least ``quantile(t.draws, 1 - alpha)``, and
``t.draws.p_value(t.statistic)`` is the share of draws above it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bootstrap import BootstrapDraws, bootstrap_halves, check_b
from .kernels import CovarianceKernel, Kernel, KendallKernel, check_data
from .matstat import as_sym

__all__ = ["TestResult", "test_covariance", "test_kendall", "test_ustat_mean"]


@dataclass(frozen=True, eq=False)
class TestResult:
    statistic: float
    draws: BootstrapDraws = field(repr=False)  # sorted; they decide every level


def test_ustat_mean(
    data: np.ndarray,
    kernel: Kernel,
    u0: np.ndarray,
    b: int = 200,
    seed: int = 0,
    *key: int,
    restriction: str = "all",
) -> TestResult:
    """H0: E U = U0 for a generic order-two kernel, under the key rule of
    ``bootstrap_halves``, which keeps test_size's two tests on the keys
    (tag, r, 1) and (tag, r, 4) independent.  U0 and b are checked before
    the split."""
    u0 = as_sym(u0)
    p = check_data(data).shape[1]
    if u0.shape != (p, p):
        raise ValueError(f"null matrix shape {u0.shape} does not match p = {p}")
    check_b(b)
    u, draws = bootstrap_halves(
        data, kernel, b, "applications", restriction, seed, *key
    )
    return TestResult(draws.statistic(u, u0), draws)


def test_covariance(
    data: np.ndarray, sigma0: np.ndarray, b: int = 200, seed: int = 0, *key: int
) -> TestResult:
    """H0: Sigma = Sigma0, tested on the maximum absolute off-diagonal
    deviation of the sample covariance from Sigma0."""
    return test_ustat_mean(
        data, CovarianceKernel(), sigma0, b, seed, *key, restriction="offdiag"
    )


def test_kendall(
    data: np.ndarray, t0: np.ndarray, b: int = 200, seed: int = 0, *key: int
) -> TestResult:
    """H0: Kendall's tau-a matrix = T0 off the diagonal.

    Tau-a counts a pair with a tie in either coordinate as neither
    concordant nor discordant, so its diagonal is the share of untied pairs
    (1 for continuous data) and only the off-diagonal entries are tested.
    The sign-product kernel has mean matrix tau_a + 11^T, so T0 is shifted
    up by one per entry to compare on the kernel scale; the shift cancels in
    the decoupled Hajek estimates.
    """
    return test_ustat_mean(
        data, KendallKernel(), as_sym(t0) + 1.0, b, seed, *key,
        restriction="offdiag",
    )
