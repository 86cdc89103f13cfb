"""Dense simplex for small linear programs, with warm starts.

Problems are stated as  min c^T x  subject to  A x <= b, x >= 0.  Slack
variables turn the constraints into equalities.

Cold solve: a two-phase primal simplex.  Rows with b >= 0 start with their
slack in the basis; only rows with b < 0 (sign-flipped) get an artificial
variable, and phase 1 minimizes the sum of those.  Bland's smallest-index
rule is used for both the entering and leaving choices, so the method cannot
cycle.

Warm solve: ``solve_lp(problem, start)`` with ``start`` the optimal solution
of an LP with the same c and A (only b differs, as between the column
problems of CLIME).  The reduced costs c - c_B B^-1 A do not depend on b, so
the start's optimal basis is still dual feasible; the tableau is rebuilt as
B^-1 [A I | b] from the basis inverse the start carries, and a dual simplex
(smallest-index rule on both choices) drives B^-1 b back to >= 0.  A primal
pass then certifies optimality.  A start whose basis columns do not reduce
to I under its inverse, or whose reduced costs are negative for this c, is
ignored and the problem is solved cold; so is a warm solve that finds no
feasible point, so an infeasible status always comes from phase 1.

In both paths x is read from the final basis alone: one linear solve with
the basic columns of [A I] in sorted index order.  Warm and cold solves that
end on the same basis therefore return bit-identical x.  When an artificial
stays basic (a redundant row), x is read from the tableau instead.  Intended
for the CLIME / Dantzig column problems (a few hundred variables at most).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

__all__ = ["LpProblem", "LpSolution", "SimplexError", "solve_lp"]

_TOL = 1e-9
_MAX_ITER = 50_000


class SimplexError(RuntimeError):
    """Iteration cap exceeded."""


def _checked_rhs(b_ub, m: int | None = None) -> np.ndarray:
    b = np.asarray(b_ub, dtype=np.float64).ravel()
    if m is not None and b.size != m:
        raise ValueError(f"b has {b.size} entries, A has {m} rows")
    if not np.all(np.isfinite(b)):
        raise ValueError("LP data must be finite")
    return b


@dataclass(frozen=True, eq=False)
class LpProblem:
    """min c^T x  s.t.  A x <= b,  x >= 0."""

    c: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=np.float64)
        a = np.atleast_2d(np.asarray(self.a_ub, dtype=np.float64))
        b = _checked_rhs(self.b_ub)
        if a.shape != (b.size, c.size):
            raise ValueError(
                f"inconsistent dimensions: c has {c.size} entries, "
                f"A is {a.shape}, b has {b.size}"
            )
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(a))):
            raise ValueError("LP data must be finite")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "a_ub", a)
        object.__setattr__(self, "b_ub", b)

    def with_rhs(self, b_ub) -> LpProblem:
        """The same validated c and A with a new right-hand side; only b is
        checked."""
        new = object.__new__(LpProblem)
        object.__setattr__(new, "c", self.c)
        object.__setattr__(new, "a_ub", self.a_ub)
        object.__setattr__(new, "b_ub", _checked_rhs(b_ub, self.a_ub.shape[0]))
        return new


@dataclass(frozen=True, eq=False)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective: float | None
    # simplex pivots over both phases, including those that drive leftover
    # artificials out of the basis
    pivots: int
    # optimal basis (row order) and its inverse B^-1, the slack block of the
    # final tableau; None unless optimal with no artificial left basic
    basis: np.ndarray | None = field(default=None, repr=False)
    basis_inv: np.ndarray | None = field(default=None, repr=False)


def _pivot(tab: np.ndarray, row: int, col: int) -> None:
    """Gauss-Jordan pivot on (row, col) as one rank-1 update of the rows
    with a nonzero factor in the pivot column."""
    tab[row] /= tab[row, col]
    f = tab[:, col].copy()
    f[row] = 0.0
    nz = np.flatnonzero(f)
    tab[nz] -= np.outer(f[nz], tab[row])


def _simplex(tab: np.ndarray, basis: np.ndarray, ncols: int) -> tuple[str, int]:
    """Minimize the objective in the last tableau row over the first ``ncols``
    columns (last column is the rhs).  Bland's rule throughout.  Returns the
    status and the number of pivots."""
    m = tab.shape[0] - 1
    for it in range(_MAX_ITER):
        improving = np.flatnonzero(tab[-1, :ncols] < -_TOL)
        if improving.size == 0:
            return "optimal", it
        entering = improving[0]
        col = tab[:m, entering]
        rows = np.flatnonzero(col > _TOL)
        ratios = tab[rows, -1] / col[rows]
        # sequential scan: smallest ratio, ties (within _TOL of the running
        # best) broken by the smallest basic index
        leaving, best = -1, np.inf
        for r, ratio in zip(rows.tolist(), ratios.tolist()):
            if ratio < best - _TOL or (
                abs(ratio - best) <= _TOL and basis[r] < basis[leaving]
            ):
                best, leaving = ratio, r
        if leaving < 0:
            return "unbounded", it
        _pivot(tab, leaving, entering)
        basis[leaving] = entering
    raise SimplexError(f"simplex exceeded {_MAX_ITER} iterations")


def _dual_simplex(tab: np.ndarray, basis: np.ndarray, ncols: int) -> tuple[str, int]:
    """Restore a nonnegative rhs from a dual-feasible tableau (reduced costs
    >= 0 in the last row) over the first ``ncols`` columns.  The leaving row
    is the infeasible row with the smallest basic index; the entering column
    has the minimum ratio, ties (within _TOL) to the smallest index.  Returns
    the status ("optimal" or "infeasible") and the number of pivots."""
    m = tab.shape[0] - 1
    for it in range(_MAX_ITER):
        rows = np.flatnonzero(tab[:m, -1] < -_TOL)
        if rows.size == 0:
            return "optimal", it
        leaving = rows[np.argmin(basis[rows])]
        line = tab[leaving, :ncols]
        cols = np.flatnonzero(line < -_TOL)
        if cols.size == 0:
            # the row reads sum_j a_j x_j = rhs < 0 with every a_j >= 0
            return "infeasible", it
        ratios = tab[-1, cols] / -line[cols]
        entering = cols[np.flatnonzero(ratios <= ratios.min() + _TOL)[0]]
        _pivot(tab, leaving, entering)
        basis[leaving] = entering
    raise SimplexError(f"dual simplex exceeded {_MAX_ITER} iterations")


def _optimal(
    problem: LpProblem, tab: np.ndarray, basis: np.ndarray, pivots: int
) -> LpSolution:
    """The optimal solution at ``basis``, x read from the basis alone."""
    c, a, b = problem.c, problem.a_ub, problem.b_ub
    m, n = a.shape
    n_real = n + m
    if np.any(basis >= n_real):
        # a redundant row keeps its artificial basic: read the tableau
        x = np.zeros(tab.shape[1] - 1)
        x[basis] = tab[:m, -1]
        return LpSolution("optimal", x[:n], float(c @ x[:n]), pivots)
    order = np.sort(basis)
    x = np.zeros(n_real)
    x[order] = np.linalg.solve(np.hstack([a, np.eye(m)])[:, order], b)
    return LpSolution(
        "optimal", x[:n], float(c @ x[:n]), pivots,
        basis.copy(), tab[:m, n:n_real].copy(),
    )


def _solve_cold(problem: LpProblem) -> LpSolution:
    """Two-phase primal simplex from the slack / artificial basis."""
    c, a, b = problem.c, problem.a_ub, problem.b_ub
    m, n = a.shape
    n_real = n + m  # structural + slack columns

    # equality form with slacks; flip rows so the rhs is nonnegative, and
    # give each flipped row an artificial as its starting basic variable
    neg = np.flatnonzero(b < 0)
    art = n_real + np.arange(neg.size)
    tab = np.zeros((m + 1, n_real + neg.size + 1))
    tab[:m, :n] = a
    tab[:m, n:n_real] = np.eye(m)
    tab[:m, -1] = b
    tab[neg] *= -1.0
    tab[neg, art] = 1.0
    basis = np.arange(n, n_real)
    basis[neg] = art

    # phase 1: minimize the sum of artificials.  The optimum is >= 0; a
    # positive one means infeasible (phase 1 cannot be unbounded).
    pivots = 0
    if neg.size:
        tab[-1, art] = 1.0
        tab[-1] -= tab[neg].sum(axis=0)
        status, pivots = _simplex(tab, basis, tab.shape[1] - 1)
        if status != "optimal" or tab[-1, -1] < -1e-7:
            return LpSolution("infeasible", None, None, pivots)

        # drive any leftover artificials out of the basis (degenerate rows);
        # a fully zero row is redundant, so its artificial stays basic at
        # zero and never re-enters because phase 2 excludes its column
        for r in np.flatnonzero(basis >= n_real):
            js = np.flatnonzero(np.abs(tab[r, :n_real]) > _TOL)
            if js.size:
                _pivot(tab, r, js[0])
                basis[r] = js[0]
                pivots += 1

    # phase 2 on the structural + slack columns
    cost = np.zeros(tab.shape[1])
    cost[:n] = c
    tab[-1] = cost - cost[basis] @ tab[:m]
    status, more = _simplex(tab, basis, n_real)
    pivots += more
    if status == "unbounded":
        return LpSolution("unbounded", None, None, pivots)
    return _optimal(problem, tab, basis, pivots)


def _warm_tableau(problem: LpProblem, start: LpSolution) -> np.ndarray | None:
    """B^-1 [A I | b] with its reduced-cost row for the start's basis, or
    None when that basis is not a dual-feasible basis of this problem."""
    c, a, b = problem.c, problem.a_ub, problem.b_ub
    m, n = a.shape
    basis, binv = start.basis, start.basis_inv
    if binv is None or binv.shape != (m, m) or np.any(basis >= n + m):
        return None
    tab = np.empty((m + 1, n + m + 1))
    tab[:m, :n] = binv @ a
    tab[:m, n:-1] = binv
    tab[:m, -1] = binv @ b
    eye = np.eye(m)
    if np.max(np.abs(tab[:m, basis] - eye)) > _TOL:
        return None
    tab[:m, basis] = eye
    cost = np.zeros(n + m + 1)
    cost[:n] = c
    tab[-1] = cost - cost[basis] @ tab[:m]
    if np.any(tab[-1, :-1] < -_TOL):
        return None
    return tab


def solve_lp(problem: LpProblem, start: LpSolution | None = None) -> LpSolution:
    """Solve the LP; optimality certified by nonnegative reduced costs.

    ``start``, an optimal solution of an LP with the same c and A, warm
    starts the solve from its basis; any other start solves cold.
    """
    tab = None
    if start is not None and start.basis is not None:
        tab = _warm_tableau(problem, start)
    if tab is None:
        return _solve_cold(problem)
    basis = start.basis.copy()
    ncols = tab.shape[1] - 1
    status, pivots = _dual_simplex(tab, basis, ncols)
    if status == "optimal":
        status, more = _simplex(tab, basis, ncols)
        pivots += more
    if status != "optimal":
        cold = _solve_cold(problem)
        return replace(cold, pivots=cold.pivots + pivots)
    return _optimal(problem, tab, basis, pivots)
