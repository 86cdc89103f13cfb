import itertools

import numpy as np
import pytest

from ustatboot import lp
from ustatboot.lp import LpProblem, _pivot, solve_lp, solve_lps


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
    # min x + y s.t. x + 2y >= 4, 3x + y >= 6 -> (8/5, 6/5), value 14/5
    sol = solve_lp(
        LpProblem(c=[1.0, 1.0], a_ub=[[-1, -2], [-3, -1]], b_ub=[-4, -6])
    )
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x, [8 / 5, 6 / 5], atol=1e-9)
    assert sol.objective == pytest.approx(14 / 5, abs=1e-9)


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


def test_negative_cost_rejected():
    # min -x with 0 x <= 1 would be unbounded; c >= 0 rules such LPs out
    with pytest.raises(ValueError, match="c must be >= 0"):
        LpProblem(c=[-1.0], a_ub=[[0.0]], b_ub=[1.0])
    with pytest.raises(ValueError, match="c must be >= 0"):
        LpProblem(c=[1.0, -1e-12], a_ub=[[1.0, 1.0]], b_ub=[1.0])


def test_negative_reduced_cost_after_dual_pass_raises(monkeypatch):
    # a basis the dual pass calls optimal must also have reduced costs >= 0;
    # one that does not is a bug, not a solution to pivot on from
    def dual_pass_leaving_a_negative_cost(tabs, basis):
        tabs[:, -1, 0] = -1.0
        return np.ones(len(tabs), dtype=bool), np.zeros(len(tabs), dtype=np.int64)

    monkeypatch.setattr(lp, "_dual_simplex", dual_pass_leaving_a_negative_cost)
    with pytest.raises(lp.SimplexError, match="negative reduced cost"):
        solve_lp(LpProblem(c=[1.0], a_ub=[[1.0]], b_ub=[1.0]))


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


def _nonnegative_cost(rng, n):
    """|N(0, 1)| costs, about 30 % of them zero."""
    c = np.abs(rng.standard_normal(n))
    c[rng.random(n) < 0.3] = 0.0
    return c


@pytest.mark.parametrize("seed", range(30))
def test_random_lps_match_brute_force(seed):
    # with c >= 0 and b > 0 the slack basis is primal and dual feasible, so
    # the solve takes no pivot and the optimum is x = 0
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 5))
    n = int(rng.integers(1, 5))
    a = rng.standard_normal((m, n))
    b = rng.uniform(0.1, 2.0, size=m)  # origin feasible
    c = _nonnegative_cost(rng, n)
    sol = solve_lp(LpProblem(c=c, a_ub=a, b_ub=b))
    assert sol.status == "optimal" and sol.pivots == 0
    np.testing.assert_array_equal(sol.x, np.zeros(n))
    assert sol.objective == 0.0
    assert brute_force_lp(c, a, b) == pytest.approx(0.0, abs=1e-8)


def row_loop_pivot(tab, row, col):
    """The Gauss-Jordan pivot as a Python loop over rows (reference)."""
    tab[row] /= tab[row, col]
    for r in range(tab.shape[0]):
        if r != row and tab[r, col] != 0.0:
            tab[r] -= tab[r, col] * tab[row]


def reference_solve(c, a, b):
    """One problem's dual simplex as a loop over rows (reference): Bland's
    rule, row-loop pivots, x from the sorted basis.  Returns the status, x
    and the pivots."""
    m, n = a.shape
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n], tab[:m, n:-1], tab[:m, -1], tab[-1, :n] = a, np.eye(m), b, c
    basis = list(range(n, n + m))
    pivots = 0
    while rows := [r for r in range(m) if tab[r, -1] < -1e-9]:
        leaving = min(rows, key=lambda r: basis[r])
        cols = [j for j in range(n + m) if tab[leaving, j] < -1e-9]
        if not cols:
            return "infeasible", None, pivots
        ratios = [tab[-1, j] / -tab[leaving, j] for j in cols]
        entering = next(j for j, r in zip(cols, ratios) if r <= min(ratios) + 1e-9)
        row_loop_pivot(tab, leaving, entering)
        basis[leaving] = entering
        pivots += 1
    order = sorted(basis)
    x = np.zeros(n + m)
    x[order] = np.linalg.solve(np.hstack([a, np.eye(m)])[:, order], b)
    return "optimal", x[:n], pivots


@pytest.mark.parametrize("seed", range(10))
def test_pivot_matches_row_loop(seed):
    # tableaux 0 and 2 of a stack of three, each pivoted on its own entry;
    # tableau 1 is left alone
    rng = np.random.default_rng(seed)
    rows, cols = rng.integers(2, 9, size=2)
    tabs = rng.standard_normal((3, rows, cols))
    probs = np.array([0, 2])
    at_row, at_col = rng.integers(rows, size=2), rng.integers(cols - 1, size=2)
    for i, row, col in zip(probs, at_row, at_col):
        zeros = rng.random(rows) < 0.5
        zeros[row] = False
        tabs[i, zeros, col] = 0.0
        tabs[i, zeros & (rng.random(rows) < 0.3), col] = -0.0  # a zero factor too
    ref = tabs.copy()
    for i, row, col in zip(probs, at_row, at_col):
        row_loop_pivot(ref[i], row, col)
    _pivot(tabs, probs, at_row, at_col)
    np.testing.assert_array_equal(tabs, ref)


def _mixed_sign_lp(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 5))
    n = int(rng.integers(1, 5))
    a = rng.standard_normal((m, n))
    b = rng.uniform(-0.5, 2.0, size=m)
    b[rng.integers(m)] = -rng.uniform(0.1, 0.5)  # at least one dual pivot
    c = _nonnegative_cost(rng, n)
    return c, a, b


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
    else:
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(ref, abs=1e-8)
        assert np.all(a @ sol.x <= b + 1e-8)
        assert np.all(sol.x >= -1e-9)


def test_mixed_sign_cases_cover_every_status():
    statuses = {
        solve_lp(LpProblem(*_mixed_sign_lp(seed))).status for seed in _MIXED_SEEDS
    }
    assert statuses == {"optimal", "infeasible"}


def test_with_rhs_shares_validated_block_and_checks_b():
    # a stack (k, m) of right-hand sides shares one c and A, and is validated
    # together with them
    base = dict(c=[1.0, 2.0], a_ub=[[1.0, 0.0], [0.0, 1.0]])
    problem = LpProblem(**base, b_ub=[[3, -1], [0, 2], [1, 1]])
    assert problem.c.shape == (2,) and problem.a_ub.shape == (2, 2)
    assert problem.b_ub.dtype == np.float64 and problem.b_ub.shape == (3, 2)
    np.testing.assert_array_equal(problem.b_ub[0], [3.0, -1.0])
    with pytest.raises(ValueError, match="finite"):
        LpProblem(**base, b_ub=[[1.0, 2.0], [1.0, np.nan]])
    with pytest.raises(ValueError, match="inconsistent dimensions"):
        LpProblem(**base, b_ub=[1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="inconsistent dimensions"):
        LpProblem(**base, b_ub=[[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
    with pytest.raises(ValueError, match="inconsistent dimensions"):
        LpProblem(**base, b_ub=np.ones((2, 2, 2)))
    with pytest.raises(ValueError, match="solve_lps"):
        solve_lp(problem)


def test_dual_ratio_tie_enters_smallest_index():
    # row 0 is infeasible; columns 0 and 1 tie on ratio 0 (dual degenerate),
    # so column 0 enters and the optimum x0 = 1 is reached in one pivot
    tab = np.array(
        [
            [-1.0, -1.0, 1.0, -1.0],
            [0.0, 0.0, 0.0, 0.0],
        ]
    )
    tabs, basis = tab[None].copy(), np.array([[2]])
    optimal, pivots = lp._dual_simplex(tabs, basis)
    assert optimal.tolist() == [True] and pivots.tolist() == [1]
    np.testing.assert_array_equal(basis, [[0]])
    np.testing.assert_array_equal(tabs[0, 0], [1.0, 1.0, -1.0, 1.0])


def test_dual_degenerate_warm_starts_terminate():
    # c = 0 makes every reduced cost zero, so every dual ratio test is a tie;
    # 40 right-hand sides in one stack
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 4))
    rhs = rng.uniform(-1.0, 1.0, size=(40, 4))
    pivots = 0
    for b, sol in zip(rhs, solve_lps(LpProblem(c=np.zeros(4), a_ub=a, b_ub=rhs))):
        ref = brute_force_lp(np.zeros(4), a, b)
        assert sol.status == ("infeasible" if ref is None else "optimal")
        if sol.status == "optimal":
            assert sol.objective == 0.0
            assert np.all(a @ sol.x <= b + 1e-9)
            assert np.all(sol.x >= -1e-9)
            pivots += sol.pivots
    assert pivots > 0


def _stacked_case(seed):
    """c, A and a stack of 12 right-hand sides; row 0 is feasible at the
    slack basis."""
    rng = np.random.default_rng(seed)
    m, n = rng.integers(3, 9), rng.integers(2, 9)
    a = rng.standard_normal((m, n))
    c = _nonnegative_cost(rng, n)
    rhs = rng.uniform(-1.0, 1.0, size=(12, m))
    rhs[0] = rng.uniform(0.1, 1.0, size=m)
    return c, a, rhs


_STACKED_SEEDS = range(20)


@pytest.mark.parametrize("seed", _STACKED_SEEDS)
def test_stacked_solves_equal_solo_solves(seed):
    # a stack mixing rows that are optimal at once, rows that need several
    # pivots and infeasible rows: each row's solution is, bit for bit, the
    # solve of that row alone and the reference loop's, and a problem that
    # finishes early drops out
    c, a, rhs = _stacked_case(seed)
    stacked = solve_lps(LpProblem(c=c, a_ub=a, b_ub=rhs))
    assert len(stacked) == len(rhs)
    for b, sol in zip(rhs, stacked):
        solo = solve_lp(LpProblem(c=c, a_ub=a, b_ub=b))
        ref = reference_solve(c, a, b)
        assert (sol.status, sol.objective, sol.pivots) == (
            solo.status,
            solo.objective,
            solo.pivots,
        )
        assert (sol.status, sol.pivots) == (ref[0], ref[2])
        if sol.x is None:
            assert solo.x is None and ref[1] is None
        else:
            np.testing.assert_array_equal(sol.x, solo.x)
            np.testing.assert_array_equal(sol.x, ref[1])
    assert stacked[0].pivots == 0


def test_stacked_solves_cover_every_case():
    # the stacks above take several pivots in some rows and prove others
    # infeasible, after no pivot or after several
    seen = {
        (sol.status, min(sol.pivots, 2))
        for seed in _STACKED_SEEDS
        for sol in solve_lps(LpProblem(*_stacked_case(seed)))
    }
    assert {("optimal", 2), ("infeasible", 0), ("infeasible", 2)} <= seen
