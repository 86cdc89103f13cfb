import math

import numpy as np
import pytest

from ustatboot.bootstrap import draw_bootstrap, estimate_g_decoupled, quantile, split_sample
from ustatboot.distributions import build_v, contaminated_normal, population_sigma, sample
from ustatboot.inference import (
    test_covariance as covariance_test,
    test_kendall as kendall_test,
    test_ustat_mean as ustat_mean_test,
)
from ustatboot.kernels import CovarianceKernel
from ustatboot.ustat import compute_u, sup_stat


@pytest.fixture(scope="module")
def m1_data():
    model = contaminated_normal(build_v("d1", 8), epsilon=0.2, nu=1.5)
    return model, sample(model, 400, 0, 100)


def test_covariance_test_deterministic(m1_data):
    model, data = m1_data
    sigma0 = population_sigma(model)
    a = covariance_test(data, sigma0, 0.05, 100, 7)
    b = covariance_test(data, sigma0, 0.05, 100, 7)
    assert a == b
    assert a.b == 100 and a.alpha == 0.05
    assert a.statistic >= 0 and a.critical_value >= 0


def test_covariance_test_follows_stream_layout(m1_data):
    # the split uses the substream (seed, *key, 0) and the draws (seed, *key, 1)
    model, data = m1_data
    sigma0 = population_sigma(model)
    seed, key, kernel = 11, (7, 3), CovarianceKernel()
    res = covariance_test(data, sigma0, 0.1, 50, seed, *key)
    main, train = split_sample(data, seed, *key, 0)
    stat = sup_stat(compute_u(main, kernel), sigma0, restriction="offdiag")
    g = estimate_g_decoupled(main, train, kernel)
    draws = draw_bootstrap(g, 50, "applications", "offdiag", seed, *key, 1)
    assert res.statistic == stat
    assert res.critical_value == quantile(draws, 0.9).value


def test_covariance_test_rejects_gross_violation(m1_data):
    model, data = m1_data
    sigma0 = population_sigma(model)
    wrong = sigma0.copy()
    wrong[0, 1] = wrong[1, 0] = wrong[0, 1] + 5.0
    res = covariance_test(data, wrong, 0.05, 100, 7)
    assert res.reject


def test_covariance_test_holds_under_h0(m1_data):
    model, data = m1_data
    res = covariance_test(data, population_sigma(model), 0.2, 200, 7)
    # a single H0 dataset at alpha=0.2: rejection is possible but the
    # statistic must at least be of the bootstrap scale
    assert res.statistic < 5 * res.critical_value


def test_kendall_test_shift_invariance(m1_data):
    # the tau target enters only through the statistic; an off-diagonal
    # change in T0 shifts the statistic but not the critical value
    _, data = m1_data
    t0 = np.eye(8)
    a = kendall_test(data, t0, 0.05, 50, 3)
    t1 = t0.copy()
    t1[0, 1] = t1[1, 0] = 0.9
    b = kendall_test(data, t1, 0.05, 50, 3)
    assert a.critical_value == b.critical_value
    assert b.statistic >= 0.9 - a.statistic - 1e-12
    assert b.reject


def _binomial_band(reps, prob, tail):
    """Least and greatest counts c with P(X <= c) >= tail and
    P(X >= c) >= tail, for X ~ Binomial(reps, prob)."""
    pmf = np.array(
        [math.comb(reps, k) * prob**k * (1 - prob) ** (reps - k) for k in range(reps + 1)]
    )
    cdf, sf = np.cumsum(pmf), np.cumsum(pmf[::-1])[::-1]
    inside = np.flatnonzero((cdf >= tail) & (sf >= tail))
    return int(inside[0]), int(inside[-1])


def test_kendall_test_size_on_tied_data():
    # independent 3-level columns: a pair ties in a column with probability
    # 1/3 and the true off-diagonal tau_a is 0, so the level-0.05 test of
    # T0 = I must reject at about rate 0.05
    reps, alpha = 200, 0.05
    rng = np.random.default_rng(15)
    rejections = 0
    for rep in range(reps):
        data = rng.integers(0, 3, (400, 10)).astype(np.float64)
        rejections += kendall_test(data, np.eye(10), alpha, 200, 15, rep).reject
    lo, hi = _binomial_band(reps, alpha, 1e-4)
    assert lo <= rejections <= hi, (rejections, lo, hi)


def test_ustat_mean_custom_restriction(m1_data):
    model, data = m1_data
    sigma0 = population_sigma(model)
    res = ustat_mean_test(data, CovarianceKernel(), sigma0, 0.05, 100, 5, restriction="all")
    assert res.b == 100
    res_off = ustat_mean_test(
        data, CovarianceKernel(), sigma0, 0.05, 100, 5, restriction="offdiag"
    )
    # the off-diagonal statistic can only be smaller or equal
    assert res_off.statistic <= res.statistic + 1e-12


def test_alpha_validation(m1_data):
    _, data = m1_data
    with pytest.raises(ValueError):
        covariance_test(data, np.eye(8), 0.0)


@pytest.mark.parametrize("run_test", [covariance_test, kendall_test])
def test_non_finite_data_raises(m1_data, run_test):
    # a NaN must not turn into critical_value=nan, reject=False
    model, data = m1_data
    data = data.copy()
    data[3, 2] = np.nan
    with pytest.raises(ValueError):
        run_test(data, np.eye(data.shape[1]), 0.05, 50, 7)
