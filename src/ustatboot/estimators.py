"""Regularized estimators tuned by the bootstrap quantile.

Hard-thresholded covariance with tau* = quantile / beta, the CLIME precision
matrix and the Dantzig-type linear functional estimator (both reduced to
small dense LPs), and the error metrics reported for them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bootstrap import QuantileEstimate
from .lp import LpProblem, LpSolution, solve_lp
from .matstat import frobenius_norm, spectral_norm, sup_norm

__all__ = [
    "LinFunSolution",
    "threshold_cov",
    "select_tau_star",
    "select_lambda_star",
    "error_metrics",
    "solve_dantzig_linfun",
    "solve_clime",
    "ClimeInfeasibleError",
]

# feasibility slack accepted when certifying |S theta - b|_inf <= lambda
FEAS_TOL = 1e-8
# entries below this are treated as zero for support reporting only
SUPPORT_TOL = 1e-10


class ClimeInfeasibleError(RuntimeError):
    """One or more CLIME column problems were infeasible."""

    def __init__(self, columns: list[int]):
        self.columns = columns
        super().__init__(f"CLIME infeasible for columns {columns}")


@dataclass(frozen=True, eq=False)
class LinFunSolution:
    """Dantzig-type solution with its feasibility certificate."""

    theta: np.ndarray | None
    lam: float
    l1: float | None
    feasible: bool

    def support(self) -> np.ndarray:
        """Indices with |theta_j| above the support tolerance."""
        if self.theta is None:
            raise ValueError("no solution available")
        return np.flatnonzero(np.abs(self.theta) > SUPPORT_TOL)


def threshold_cov(s_hat: np.ndarray, tau: float) -> np.ndarray:
    """Entrywise hard thresholding with strict inequality |s| > tau."""
    if tau < 0:
        raise ValueError("tau must be >= 0")
    s_hat = np.asarray(s_hat, dtype=np.float64)
    return np.where(np.abs(s_hat) > tau, s_hat, 0.0)


def select_tau_star(q: QuantileEstimate, beta: float) -> float:
    """Bootstrap threshold tau* = quantile / beta; beta = 1 is the
    exactly-sparse case."""
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must be in (0, 1]")
    return q.value / beta


def select_lambda_star(q: QuantileEstimate, m_bound: float) -> float:
    """Bootstrap tuning parameter lambda* = M * quantile, with M an upper
    bound on the matrix L1 norm of Omega (CLIME) or |theta|_1 (linfun)."""
    if m_bound <= 0:
        raise ValueError("m_bound must be positive")
    return m_bound * q.value


def error_metrics(estimate: np.ndarray, truth: np.ndarray) -> dict[str, float]:
    """Spectral error, Frobenius error squared per dimension, sup error."""
    estimate = np.asarray(estimate, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if estimate.shape != truth.shape:
        raise ValueError(f"shape mismatch: {estimate.shape} vs {truth.shape}")
    diff = estimate - truth
    return {
        "spectral": spectral_norm(diff),
        "frob_per_p": frobenius_norm(diff) ** 2 / diff.shape[0],
        "sup": sup_norm(diff),
    }


def _dantzig_lp(s_hat: np.ndarray) -> LpProblem:
    """The Dantzig LP in w = w+ - w-: c = 1 and the constraint block
    [[S, -S], [-S, S]] of |S w - b|_inf <= lambda, validated once; neither
    depends on b or lambda, so each right-hand side comes from ``with_rhs``."""
    p = s_hat.shape[0]
    block = np.block([[s_hat, -s_hat], [-s_hat, s_hat]])
    return LpProblem(c=np.ones(2 * p), a_ub=block, b_ub=np.zeros(2 * p))


def _solve_dantzig(
    s_hat: np.ndarray,
    base: LpProblem,
    b: np.ndarray,
    lam: float,
    start: LpSolution | None = None,
) -> tuple[LinFunSolution, LpSolution]:
    """The Dantzig LP for validated S, its LP and b, warm-started from
    ``start`` when given; returns the LP solution too."""
    p = b.size
    sol = solve_lp(base.with_rhs(np.concatenate([lam + b, lam - b])), start)
    if sol.status != "optimal":
        return LinFunSolution(theta=None, lam=lam, l1=None, feasible=False), sol
    theta = sol.x[:p] - sol.x[p:]
    residual = float(np.max(np.abs(s_hat @ theta - b)))
    est = LinFunSolution(
        theta=theta,
        lam=lam,
        l1=float(np.sum(np.abs(theta))),
        feasible=residual <= lam + FEAS_TOL,
    )
    return est, sol


def solve_dantzig_linfun(
    s_hat: np.ndarray, b: np.ndarray, lam: float
) -> LinFunSolution:
    """min |w|_1 subject to |S w - b|_inf <= lambda.

    LP reformulation with w = w+ - w-, both nonnegative; infeasibility is
    reported in the result, not raised.
    """
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    s_hat = np.asarray(s_hat, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64).ravel()
    p = b.size
    if s_hat.shape != (p, p):
        raise ValueError(f"S shape {s_hat.shape} incompatible with b length {p}")
    return _solve_dantzig(s_hat, _dantzig_lp(s_hat), b, lam)[0]


def solve_clime(s_hat: np.ndarray, lam: float) -> np.ndarray:
    """CLIME precision-matrix estimate: p column problems
    min |theta|_1 s.t. |S theta - e_k|_inf <= lambda, symmetrized by keeping
    the smaller-magnitude entry of each (m, k) pair.  The p LPs share c and
    the constraint block and differ only in e_k, so column k starts from
    column k - 1's optimal basis (cold after an infeasible column)."""
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    s_hat = np.asarray(s_hat, dtype=np.float64)
    p = s_hat.shape[0]
    if s_hat.shape != (p, p):
        raise ValueError(f"S must be square, got shape {s_hat.shape}")
    base = _dantzig_lp(s_hat)
    eye = np.eye(p)
    columns = np.empty((p, p))
    bad: list[int] = []
    sol = None
    for k in range(p):
        est, sol = _solve_dantzig(s_hat, base, eye[k], lam, sol)
        if est.theta is None or not est.feasible:
            bad.append(k)
        else:
            columns[:, k] = est.theta
    if bad:
        raise ClimeInfeasibleError(bad)
    smaller = np.abs(columns) <= np.abs(columns.T)
    return np.where(smaller, columns, columns.T)
