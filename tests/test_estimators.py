import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ustatboot import estimators
from ustatboot.distributions import build_v, contaminated_normal, sample
from ustatboot.estimators import (
    ClimeInfeasibleError,
    error_metrics,
    select_lambda_star,
    select_tau_star,
    solve_clime,
    solve_dantzig_linfun,
    threshold_cov,
)


def test_threshold_strict_inequality():
    s = np.array([[1.0, 0.5], [0.5, -0.5]])
    out = threshold_cov(s, 0.5)
    np.testing.assert_array_equal(out, np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        threshold_cov(s, -0.1)
    with pytest.raises(ValueError):
        threshold_cov(s, float("nan"))


@given(
    st.integers(min_value=0, max_value=2**31),
    st.floats(0.0, 3.0),
    st.floats(0.0, 3.0),
)
@settings(max_examples=60, deadline=None)
def test_threshold_idempotent_and_monotone(seed, t1, t2):
    s = np.random.default_rng(seed).standard_normal((4, 4))
    out = threshold_cov(s, t1)
    np.testing.assert_array_equal(threshold_cov(out, t1), out)
    lo, hi = sorted([t1, t2])
    # a larger threshold kills a superset of entries
    killed_lo = threshold_cov(s, lo) == 0.0
    killed_hi = threshold_cov(s, hi) == 0.0
    assert np.all(killed_hi | ~killed_lo | killed_lo)
    assert np.all(killed_lo <= killed_hi)


def test_select_tau_and_lambda():
    assert select_tau_star(0.3, 1.0) == pytest.approx(0.3)
    assert select_tau_star(0.3, 0.5) == pytest.approx(0.6)
    assert select_lambda_star(0.3, 2.0) == pytest.approx(0.6)
    with pytest.raises(ValueError):
        select_tau_star(0.3, 0.0)
    for m_bound in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and > 0"):
            select_lambda_star(0.3, m_bound)


def test_error_metrics_oracle():
    est = np.diag([2.0, 1.0])
    truth = np.eye(2)
    m = error_metrics(est, truth)
    assert m["spectral"] == pytest.approx(1.0, rel=1e-8)
    assert m["frob_per_p"] == pytest.approx(0.5)
    assert m["sup"] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        error_metrics(np.eye(2), np.eye(3))


def brute_force_dantzig(s, b, lam):
    """Vertex enumeration on the (w+, w-) slack form of
    min |w|_1 s.t. |S w - b|_inf <= lam."""
    p = b.size
    a_ub = np.block([[s, -s], [-s, s]])
    b_ub = np.concatenate([lam + b, lam - b])
    m, n = a_ub.shape
    full = np.hstack([a_ub, np.eye(m)])
    c_full = np.concatenate([np.ones(n), np.zeros(m)])
    best = None
    for cols in itertools.combinations(range(n + m), m):
        sub = full[:, cols]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        z = np.linalg.solve(sub, b_ub)
        if np.any(z < -1e-9):
            continue
        val = float(c_full[list(cols)] @ z)
        if best is None or val < best:
            best = val
    return best


@pytest.mark.parametrize("seed", range(10))
def test_dantzig_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, 4))
    s = rng.standard_normal((p, p))
    s = (s + s.T) / 2 + p * np.eye(p)
    w0 = rng.standard_normal(p)
    lam = float(rng.uniform(0.05, 0.5))
    b = s @ w0 + rng.uniform(-0.9, 0.9, size=p) * lam
    sol = solve_dantzig_linfun(s, b, lam)
    assert sol.feasible
    ref = brute_force_dantzig(s, b, lam)
    assert sol.l1 == pytest.approx(ref, abs=1e-8)


def test_dantzig_zero_solution_when_lambda_large():
    s = np.eye(3)
    b = np.array([0.1, -0.2, 0.05])
    sol = solve_dantzig_linfun(s, b, 1.0)
    np.testing.assert_allclose(sol.theta, 0.0, atol=1e-10)
    assert sol.l1 == pytest.approx(0.0, abs=1e-10)
    assert sol.support().size == 0


def test_dantzig_lambda_zero_solves_exactly():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3))
    s = a @ a.T + np.eye(3)
    b = rng.standard_normal(3)
    sol = solve_dantzig_linfun(s, b, 0.0)
    assert sol.feasible
    np.testing.assert_allclose(sol.theta, np.linalg.solve(s, b), atol=1e-8)


def test_dantzig_validation():
    with pytest.raises(ValueError):
        solve_dantzig_linfun(np.eye(2), np.zeros(2), -0.1)
    with pytest.raises(ValueError):
        solve_dantzig_linfun(np.eye(3), np.zeros(2), 0.1)


def test_clime_lambda_zero_inverts():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((4, 4))
    sigma = a @ a.T + 4 * np.eye(4)
    omega = solve_clime(sigma, 0.0)
    np.testing.assert_allclose(omega, np.linalg.inv(sigma), atol=1e-8)
    np.testing.assert_array_equal(omega, omega.T)


def test_clime_symmetrization_picks_smaller_magnitude():
    sigma = np.array([[1.0, 0.4], [0.4, 1.0]])
    omega = solve_clime(sigma, 0.05)
    assert np.all(omega == omega.T)
    # feasibility of the symmetrized estimate within a small slack
    assert np.max(np.abs(sigma @ omega - np.eye(2))) <= 0.05 + 0.05


def test_clime_equals_column_dantzig_solutions():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((30, 5))
    s = a.T @ a / 30
    lam = 0.1
    cols = np.column_stack(
        [solve_dantzig_linfun(s, np.eye(5)[k], lam).theta for k in range(5)]
    )
    expected = np.where(np.abs(cols) <= np.abs(cols.T), cols, cols.T)
    np.testing.assert_array_equal(solve_clime(s, lam), expected)


def test_clime_validation():
    with pytest.raises(ValueError):
        solve_clime(np.eye(2), -0.1)
    with pytest.raises(ValueError):
        solve_clime(np.ones((2, 3)), 0.1)


def test_clime_infeasible_reports_columns():
    # S theta = e_k with S = 0 is infeasible at lambda < 1
    with pytest.raises(ClimeInfeasibleError) as err:
        solve_clime(np.zeros((2, 2)), 0.5)
    assert err.value.columns == [0, 1]


def _record_lp(monkeypatch):
    """The solution of every LP that solve_clime / the Dantzig solver runs."""
    seen = []

    def recording(*args):
        sol = real(*args)
        seen.append(sol)
        return sol

    real = estimators.solve_lp
    monkeypatch.setattr(estimators, "solve_lp", recording)
    return seen


def test_clime_column_after_infeasible_starts_cold(monkeypatch):
    seen = _record_lp(monkeypatch)
    with pytest.raises(ClimeInfeasibleError) as err:
        solve_clime(np.zeros((2, 2)), 0.5)
    assert err.value.columns == [0, 1]
    assert [sol.status for sol in seen] == ["infeasible", "infeasible"]


def test_clime_column_pivot_counts(monkeypatch):
    # the clime_eval regime: AR(1) rho = 0.7, p = 20, n = 1000, lambda < 1.
    # Only the row lambda - 1 of each column LP starts infeasible, and at
    # lambda = 0.85 one dual pivot from the slack basis repairs it.  The
    # two-phase solver with warm-started columns took 39 pivots in all at
    # lambda = 0.85 (two in most columns) and 176 at lambda = 0.25
    model = contaminated_normal(build_v("ar1", 20, rho=0.7), epsilon=0.2, nu=1.5)
    x = sample(model, 1000, 3)
    s = x.T @ x / 1000
    seen = _record_lp(monkeypatch)
    omega = solve_clime(s, 0.85)
    assert np.any(omega != 0.0)
    assert len(seen) == 20 and all(sol.pivots <= 1 for sol in seen)
    seen.clear()
    solve_clime(s, 0.25)
    assert len(seen) == 20
    assert sum(sol.pivots for sol in seen) < 176
