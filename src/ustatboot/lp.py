"""Dense two-phase simplex for small linear programs.

Problems are stated as  min c^T x  subject to  A x <= b, x >= 0.  Slack
variables turn the constraints into equalities.  Rows with b >= 0 start with
their slack in the basis; only rows with b < 0 (sign-flipped) get an
artificial variable, and phase 1 minimizes the sum of those.  Bland's
smallest-index rule is used for both the entering and leaving choices, so
the method cannot cycle.  Intended for the CLIME / Dantzig column problems
(a few hundred variables at most).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LpProblem", "LpSolution", "SimplexError", "solve_lp"]

_TOL = 1e-9
_MAX_ITER = 50_000


class SimplexError(RuntimeError):
    """Iteration cap exceeded."""


@dataclass(frozen=True)
class LpProblem:
    """min c^T x  s.t.  A x <= b,  x >= 0."""

    c: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=np.float64)
        a = np.atleast_2d(np.asarray(self.a_ub, dtype=np.float64))
        b = np.asarray(self.b_ub, dtype=np.float64).ravel()
        if a.shape != (b.size, c.size):
            raise ValueError(
                f"inconsistent dimensions: c has {c.size} entries, "
                f"A is {a.shape}, b has {b.size}"
            )
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("LP data must be finite")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "a_ub", a)
        object.__setattr__(self, "b_ub", b)


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective: float | None
    # simplex pivots over both phases, including those that drive leftover
    # artificials out of the basis
    pivots: int


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


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve the LP; optimality certified by nonnegative reduced costs."""
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

    x = np.zeros(tab.shape[1] - 1)
    x[basis] = tab[:m, -1]
    x_real = x[:n]
    return LpSolution("optimal", x_real, float(c @ x_real), pivots)
