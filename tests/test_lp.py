import itertools

import numpy as np
import pytest

from ustatboot import lp
from ustatboot.lp import LpProblem, LpSolution, _pivot, solve_lp


def brute_force_lp(c, a_ub, b_ub):
    """Exact optimum by basic-solution enumeration of the slack form.

    min c^T x, A x <= b, x >= 0 becomes [A | I] z = b, z >= 0; every optimum
    (if one exists) is attained at a basic solution.
    """
    a_ub = np.atleast_2d(np.asarray(a_ub, dtype=float))
    c = np.asarray(c, dtype=float)
    b_ub = np.asarray(b_ub, dtype=float).ravel()
    m, n = a_ub.shape
    full = np.hstack([a_ub, np.eye(m)])
    c_full = np.concatenate([c, np.zeros(m)])
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


def test_simple_known_lp():
    # max x + y s.t. x + 2y <= 4, 3x + y <= 6 -> (8/5, 6/5), value 14/5
    sol = solve_lp(LpProblem(c=[-1.0, -1.0], a_ub=[[1, 2], [3, 1]], b_ub=[4, 6]))
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x, [8 / 5, 6 / 5], atol=1e-9)
    assert sol.objective == pytest.approx(-14 / 5, abs=1e-9)


def test_negative_rhs_handled():
    # x >= 2 written as -x <= -2; minimize x
    sol = solve_lp(LpProblem(c=[1.0], a_ub=[[-1.0]], b_ub=[-2.0]))
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(2.0, abs=1e-9)


def test_infeasible_detected():
    # x <= -1 with x >= 0
    sol = solve_lp(LpProblem(c=[1.0], a_ub=[[1.0]], b_ub=[-1.0]))
    assert sol.status == "infeasible"
    assert sol.x is None


def test_unbounded_detected():
    sol = solve_lp(LpProblem(c=[-1.0], a_ub=[[0.0]], b_ub=[1.0]))
    assert sol.status == "unbounded"


def test_degenerate_equality_pair():
    # x = 3 via two inequalities
    sol = solve_lp(LpProblem(c=[1.0], a_ub=[[1.0], [-1.0]], b_ub=[3.0, -3.0]))
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(3.0, abs=1e-9)


def test_zero_objective_feasible():
    sol = solve_lp(LpProblem(c=[0.0, 0.0], a_ub=[[1.0, 1.0]], b_ub=[1.0]))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.0, abs=1e-12)


def test_dimension_validation():
    with pytest.raises(ValueError):
        LpProblem(c=[1.0, 2.0], a_ub=[[1.0]], b_ub=[1.0])
    with pytest.raises(ValueError):
        LpProblem(c=[np.inf], a_ub=[[1.0]], b_ub=[1.0])


@pytest.mark.parametrize("seed", range(30))
def test_random_lps_match_brute_force(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 5))
    n = int(rng.integers(1, 5))
    a = rng.standard_normal((m, n))
    b = rng.uniform(0.1, 2.0, size=m)  # origin feasible
    c = rng.standard_normal(n)
    sol = solve_lp(LpProblem(c=c, a_ub=a, b_ub=b))
    ref = brute_force_lp(c, a, b)
    if sol.status == "optimal":
        assert ref is not None
        assert sol.objective == pytest.approx(ref, abs=1e-8)
        # returned point is feasible
        assert np.all(a @ sol.x <= b + 1e-8)
        assert np.all(sol.x >= -1e-9)
    else:
        # origin is feasible, so only unboundedness is possible; brute force
        # over bounded bases cannot certify that, skip the comparison
        assert sol.status == "unbounded"


def row_loop_pivot(tab, row, col):
    """The Gauss-Jordan pivot as a Python loop over rows (reference)."""
    tab[row] /= tab[row, col]
    for r in range(tab.shape[0]):
        if r != row and tab[r, col] != 0.0:
            tab[r] -= tab[r, col] * tab[row]


@pytest.mark.parametrize("seed", range(10))
def test_pivot_matches_row_loop(seed):
    rng = np.random.default_rng(seed)
    rows, cols = rng.integers(2, 9, size=2)
    tab = rng.standard_normal((rows, cols))
    row, col = int(rng.integers(rows)), int(rng.integers(cols - 1))
    zeros = rng.random(rows) < 0.5
    zeros[row] = False
    tab[zeros, col] = 0.0
    tab[zeros & (rng.random(rows) < 0.3), col] = -0.0  # a zero factor too
    ref = tab.copy()
    row_loop_pivot(ref, row, col)
    _pivot(tab, row, col)
    np.testing.assert_array_equal(tab, ref)


def _mixed_sign_lp(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 5))
    n = int(rng.integers(1, 5))
    a = rng.standard_normal((m, n))
    b = rng.uniform(-0.5, 2.0, size=m)
    b[rng.integers(m)] = -rng.uniform(0.1, 0.5)  # at least one phase-1 row
    c = rng.standard_normal(n)
    return c, a, b


def _certify_unbounded(c, a, b):
    """An unbounded LP keeps improving as a box bound on sum(x) grows."""
    capped = [
        brute_force_lp(c, np.vstack([a, np.ones(a.shape[1])]), np.append(b, cap))
        for cap in (1e3, 2e3)
    ]
    return capped[0] is not None and capped[1] < capped[0] - 1e-6


_MIXED_SEEDS = range(40)


@pytest.mark.parametrize("seed", _MIXED_SEEDS)
def test_mixed_sign_rhs_lps_match_brute_force(seed):
    c, a, b = _mixed_sign_lp(seed)
    sol = solve_lp(LpProblem(c=c, a_ub=a, b_ub=b))
    ref = brute_force_lp(c, a, b)
    if ref is None:
        # no basic feasible solution, so the polyhedron is empty
        assert sol.status == "infeasible"
        assert sol.x is None
    elif sol.status == "optimal":
        assert sol.objective == pytest.approx(ref, abs=1e-8)
        assert np.all(a @ sol.x <= b + 1e-8)
        assert np.all(sol.x >= -1e-9)
    else:
        assert sol.status == "unbounded"
        assert _certify_unbounded(c, a, b)


def test_mixed_sign_cases_cover_every_status():
    statuses = {
        solve_lp(LpProblem(*_mixed_sign_lp(seed))).status for seed in _MIXED_SEEDS
    }
    assert statuses == {"optimal", "infeasible", "unbounded"}


def _record_phases(monkeypatch):
    """Column counts each simplex phase runs over."""
    seen = []

    def recording(tab, basis, ncols):
        seen.append(ncols)
        return real(tab, basis, ncols)

    real = lp._simplex
    monkeypatch.setattr(lp, "_simplex", recording)
    return seen


def test_ratio_tie_leaves_smallest_basic_index():
    # both rows tie on ratio 1 for the entering column 0; Bland's rule makes
    # the later row, whose basic variable 1 has the smaller index, leave
    tab = np.array(
        [
            [1.0, 0.0, 1.0, 1.0],
            [1.0, 1.0, 0.0, 1.0],
            [-1.0, 0.0, 0.0, 0.0],
        ]
    )
    basis = np.array([2, 1])
    assert lp._simplex(tab, basis, 3) == ("optimal", 1)
    np.testing.assert_array_equal(basis, [2, 0])


def test_clime_shaped_lp_takes_one_artificial(monkeypatch):
    # CLIME column k: min |theta|_1 s.t. |S theta - e_k|_inf <= lam, theta =
    # theta+ - theta-; with 0 < lam < 1 only the row lam - 1 is negative
    rng = np.random.default_rng(3)
    p, k, lam = 3, 1, 0.3
    x = rng.standard_normal((20, p))
    s = np.cov(x, rowvar=False)
    e = np.eye(p)[k]
    a = np.block([[s, -s], [-s, s]])
    b = np.concatenate([lam + e, lam - e])
    assert np.sum(b < 0) == 1
    seen = _record_phases(monkeypatch)
    sol = solve_lp(LpProblem(c=np.ones(2 * p), a_ub=a, b_ub=b))
    m, n = a.shape
    assert seen == [n + m + 1, n + m]  # phase 1 with one artificial, phase 2
    assert sol.status == "optimal"
    assert sol.pivots > 0
    assert sol.objective == pytest.approx(brute_force_lp(np.ones(2 * p), a, b), abs=1e-8)
    theta = sol.x[:p] - sol.x[p:]
    assert np.max(np.abs(s @ theta - e)) <= lam + 1e-8


def test_nonnegative_rhs_skips_phase_one(monkeypatch):
    seen = _record_phases(monkeypatch)
    sol = solve_lp(LpProblem(c=[-1.0, -1.0], a_ub=[[1, 2], [3, 1]], b_ub=[4, 6]))
    assert seen == [4]
    assert sol.pivots == 2
    # the all-slack start is already optimal for c >= 0
    assert solve_lp(LpProblem(c=[1.0, 0.0], a_ub=[[1, 2]], b_ub=[4])).pivots == 0
