"""Regularized estimators tuned by the bootstrap quantile.

Hard-thresholded covariance with tau* = quantile / beta, the CLIME precision
matrix and the Dantzig-type linear functional estimator (both reduced to
small dense LPs), and the error metrics reported for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lp import LpProblem, solve_lps
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


def threshold_cov(s_hat: np.ndarray, tau: float) -> np.ndarray:
    """Entrywise hard thresholding with strict inequality |s| > tau."""
    if not tau >= 0:
        raise ValueError("tau must be >= 0")
    s_hat = np.asarray(s_hat, dtype=np.float64)
    return np.where(np.abs(s_hat) > tau, s_hat, 0.0)


def select_tau_star(q: float, beta: float) -> float:
    """Bootstrap threshold tau* = q / beta for the bootstrap quantile q;
    beta = 1 is the exactly-sparse case."""
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must be in (0, 1]")
    return q / beta


def select_lambda_star(q: float, m_bound: float) -> float:
    """Bootstrap tuning parameter lambda* = M q for the bootstrap quantile q,
    with M an upper bound on the matrix L1 norm of Omega (CLIME) or
    |theta|_1 (linfun)."""
    if not 0.0 < m_bound < math.inf:
        raise ValueError("m_bound must be finite and > 0")
    return m_bound * q


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


def _dantzig_solutions(s_hat: np.ndarray, b: np.ndarray, lam: float) -> list:
    """min |w|_1 s.t. |S w - b_i|_inf <= lambda for each row b_i of ``b``
    (k, p) and a validated S, as LPs in w = w+ - w- with c = 1, the block
    [[S, -S], [-S, S]] and the stacked right-hand sides [lambda + b_i |
    lambda - b_i], in one pass; each solution carries its residual check."""
    p = s_hat.shape[0]
    problem = LpProblem(
        c=np.ones(2 * p),
        a_ub=np.block([[s_hat, -s_hat], [-s_hat, s_hat]]),
        b_ub=np.hstack([lam + b, lam - b]),
    )
    out = []
    for b_i, sol in zip(b, solve_lps(problem)):
        if sol.status != "optimal":
            out.append(LinFunSolution(None, lam, None, feasible=False))
            continue
        theta = sol.x[:p] - sol.x[p:]
        residual = float(np.max(np.abs(s_hat @ theta - b_i)))
        l1 = float(np.sum(np.abs(theta)))
        out.append(LinFunSolution(theta, lam, l1, residual <= lam + FEAS_TOL))
    return out


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
    return _dantzig_solutions(s_hat, b[None], lam)[0]


def solve_clime(s_hat: np.ndarray, lam: float) -> np.ndarray:
    """CLIME precision-matrix estimate: p column problems
    min |theta|_1 s.t. |S theta - e_k|_inf <= lambda, symmetrized by keeping
    the smaller-magnitude entry of each (m, k) pair.  The p LPs share c = 1
    and the constraint block and differ only in e_k; they are solved as one
    stack, each from the slack basis."""
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    s_hat = np.asarray(s_hat, dtype=np.float64)
    p = s_hat.shape[0]
    if s_hat.shape != (p, p):
        raise ValueError(f"S must be square, got shape {s_hat.shape}")
    sols = _dantzig_solutions(s_hat, np.eye(p), lam)
    bad = [k for k, est in enumerate(sols) if est.theta is None or not est.feasible]
    if bad:
        raise ClimeInfeasibleError(bad)
    columns = np.reshape([est.theta for est in sols], (p, p)).T
    smaller = np.abs(columns) <= np.abs(columns.T)
    return np.where(smaller, columns, columns.T)
