import math

import numpy as np
import pytest

from ustatboot.bootstrap import (
    DegenerateBootstrapError,
    draw_bootstrap,
    estimate_g_decoupled,
    quantile,
    split_sample,
)
from ustatboot import inference
from ustatboot.distributions import build_v, contaminated_normal, population_sigma, sample
from ustatboot.inference import (
    test_covariance as covariance_test,
    test_kendall as kendall_test,
    test_ustat_mean as ustat_mean_test,
)
from ustatboot.kernels import CovarianceKernel
from ustatboot.ustat import compute_u, kendall_tau_matrix, sup_stat


@pytest.fixture(scope="module")
def m1_data():
    model = contaminated_normal(build_v("d1", 8), epsilon=0.2, nu=1.5)
    return model, sample(model, 400, 0, 100)


def test_covariance_test_deterministic(m1_data):
    model, data = m1_data
    sigma0 = population_sigma(model)
    a = covariance_test(data, sigma0, 100, 7)
    b = covariance_test(data, sigma0, 100, 7)
    assert a.statistic == b.statistic
    np.testing.assert_array_equal(a.draws.values, b.draws.values)
    assert a.draws.b == 100
    assert repr(a) == f"TestResult(statistic={a.statistic!r})"
    assert a.statistic >= 0 and quantile(a.draws, 0.95) >= 0


def test_covariance_test_follows_stream_layout(m1_data):
    # bootstrap_halves' key rule: the split uses the substream (seed, *key)
    # and the draws the key with its last entry plus one, (seed, 7, 4) here;
    # no key means the key (0,)
    model, data = m1_data
    sigma0 = population_sigma(model)
    seed, key, kernel = 11, (7, 3), CovarianceKernel()
    res = covariance_test(data, sigma0, 50, seed, *key)
    main, train = split_sample(data, seed, *key)
    stat = sup_stat(compute_u(main, kernel), sigma0, restriction="offdiag")
    g = estimate_g_decoupled(main, train, kernel)
    draws = draw_bootstrap(g, 50, "applications", "offdiag", seed, 7, 4)
    assert res.statistic == stat
    np.testing.assert_array_equal(res.draws.values, draws.values)
    unkeyed = covariance_test(data, sigma0, 50, seed)
    main, train = split_sample(data, seed, 0)
    g = estimate_g_decoupled(main, train, kernel)
    draws_0 = draw_bootstrap(g, 50, "applications", "offdiag", seed, 1)
    zero_key = covariance_test(data, sigma0, 50, seed, 0)
    assert unkeyed.statistic == zero_key.statistic
    np.testing.assert_array_equal(unkeyed.draws.values, zero_key.draws.values)
    np.testing.assert_array_equal(unkeyed.draws.values, draws_0.values)
    # the result's draws decide each level against the per-level quantile,
    # written the ways callers compute a level
    assert res.draws.p_value(res.statistic) == np.count_nonzero(draws.values > stat) / 50
    for i in range(1, 20):
        for alpha in (i / 20, i * 0.05, 1.0 - (20 - i) / 20, 1.0 - (20 - i) * 0.05):
            reject = res.draws.rejects(res.statistic, (alpha,))[0]
            assert reject == (stat >= quantile(draws, 1.0 - alpha)), alpha


def test_covariance_test_rejects_gross_violation(m1_data):
    model, data = m1_data
    sigma0 = population_sigma(model)
    wrong = sigma0.copy()
    wrong[0, 1] = wrong[1, 0] = wrong[0, 1] + 5.0
    res = covariance_test(data, wrong, 100, 7)
    assert res.draws.rejects(res.statistic, (0.05,))[0]


@pytest.mark.parametrize("run_test", [covariance_test, kendall_test])
def test_degenerate_bootstrap_raises(run_test):
    # constant data make every decoupled estimate and so every draw zero; a
    # zero critical value is no test, so the bootstrap fails loudly instead
    # of rejecting at the tie statistic == critical value == 0
    with pytest.raises(DegenerateBootstrapError, match="every bootstrap draw is 0"):
        run_test(np.ones((20, 3)), np.zeros((3, 3)), 50, 7)


def test_covariance_test_holds_under_h0(m1_data):
    model, data = m1_data
    res = covariance_test(data, population_sigma(model), 200, 7)
    # a single H0 dataset at alpha=0.2: rejection is possible but the
    # statistic must at least be of the bootstrap scale
    assert res.statistic < 5 * quantile(res.draws, 0.8)


def test_kendall_test_shift_invariance(m1_data):
    # the tau target enters only through the statistic; an off-diagonal
    # change in T0 shifts the statistic but not the critical value
    _, data = m1_data
    t0 = np.eye(8)
    a = kendall_test(data, t0, 50, 3)
    t1 = t0.copy()
    t1[0, 1] = t1[1, 0] = 0.9
    b = kendall_test(data, t1, 50, 3)
    np.testing.assert_array_equal(a.draws.values, b.draws.values)
    assert b.statistic >= 0.9 - a.statistic - 1e-12
    assert b.draws.rejects(b.statistic, (0.05,))[0]


@pytest.mark.parametrize("ties", [False, True])
def test_kendall_statistic_is_on_the_tau_scale(m1_data, ties):
    # the statistic is the off-diagonal max |tau_a(main) - T0|: T0 is moved
    # to the kernel scale (tau_a + 1) and back, so any other shift shows
    _, data = m1_data
    if ties:
        data = np.round(data)
    t0 = np.eye(8)
    t0[0, 1] = t0[1, 0] = 0.3
    t0[2, 5] = t0[5, 2] = -0.2
    seed, key = 5, (2, 0)
    main, _ = split_sample(data, seed, *key)
    diff = np.abs(kendall_tau_matrix(main) - t0)
    want = diff[~np.eye(8, dtype=bool)].max()
    got = kendall_test(data, t0, 50, seed, *key).statistic
    assert abs(got - want) <= 4 * math.ulp(2.0), (got, want)


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
    # T0 = I must reject at about rate 0.05; replication rep splits on the
    # key (rep, 0) and draws on (rep, 1), so no two replications share a
    # substream
    reps, alpha = 200, 0.05
    rng = np.random.default_rng(15)
    rejections = 0
    for rep in range(reps):
        data = rng.integers(0, 3, (400, 10)).astype(np.float64)
        res = kendall_test(data, np.eye(10), 200, 15, rep, 0)
        rejections += res.draws.rejects(res.statistic, (alpha,))[0]
    lo, hi = _binomial_band(reps, alpha, 1e-4)
    assert lo <= rejections <= hi, (rejections, lo, hi)


def test_ustat_mean_custom_restriction(m1_data):
    model, data = m1_data
    sigma0 = population_sigma(model)
    res = ustat_mean_test(data, CovarianceKernel(), sigma0, 100, 5, restriction="all")
    assert res.draws.b == 100
    res_off = ustat_mean_test(
        data, CovarianceKernel(), sigma0, 100, 5, restriction="offdiag"
    )
    # the off-diagonal statistic can only be smaller or equal
    assert res_off.statistic <= res.statistic + 1e-12


@pytest.mark.parametrize("b", [0.05, 2.5, True, np.float64(3.0), 0])
@pytest.mark.parametrize("run_test", [covariance_test, kendall_test])
def test_b_is_checked_before_the_bootstrap(m1_data, monkeypatch, run_test, b):
    # a level where alpha used to go, a float or a bool fails before the
    # split, the estimates and the draws, with a message that names b
    _, data = m1_data
    monkeypatch.setattr(inference, "bootstrap_halves", None)
    with pytest.raises((TypeError, ValueError), match="b must be"):
        run_test(data, np.eye(8), b)


@pytest.mark.parametrize("run_test", [covariance_test, kendall_test])
def test_null_matrix_shape_is_checked_before_the_bootstrap(
    m1_data, monkeypatch, run_test
):
    # a 4 x 4 null matrix for p = 3 data fails before the split, the
    # estimates and the B multiplier draws
    data = m1_data[1][:, :3]
    monkeypatch.setattr(inference, "bootstrap_halves", None)
    with pytest.raises(ValueError, match="null matrix"):
        run_test(data, np.eye(4))


@pytest.mark.parametrize("run_test", [covariance_test, kendall_test])
def test_non_finite_data_raises(m1_data, run_test):
    # a NaN must not turn into NaN draws or a statistic that never rejects
    model, data = m1_data
    data = data.copy()
    data[3, 2] = np.nan
    with pytest.raises(ValueError):
        run_test(data, np.eye(data.shape[1]), 50, 7)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("run_test", [covariance_test, kendall_test])
def test_non_finite_null_matrix_raises(m1_data, run_test, bad):
    # a NaN null entry must not turn into statistic=nan, which no draw
    # count would reject
    _, data = m1_data
    null = np.eye(data.shape[1])
    null[0, 1] = null[1, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        run_test(data, null, 50, 7)


@pytest.mark.parametrize("run_test", [covariance_test, kendall_test])
def test_asymmetric_null_matrix_raises(m1_data, run_test):
    # one symmetry rule (matstat.check_symmetric): no averaged-away asymmetry
    _, data = m1_data
    null = np.eye(data.shape[1])
    null[0, 1] = 0.5
    with pytest.raises(ValueError, match="not symmetric"):
        run_test(data, null, 50, 7)
