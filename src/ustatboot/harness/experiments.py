"""Experiment implementations.

Every experiment is a pure function of (config, seed): replication r draws
its randomness from substreams keyed by (seed, experiment tag, r, stage), so
output is identical for any worker count and rerun.  Each ``run_*`` builds
what its replications share (the model, Sigma, a derived truth) once and
binds it to the replication function with ``functools.partial``.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable

import numpy as np

from ..bootstrap import BootstrapDraws, bootstrap_halves, quantile
from ..distributions import (
    EllipticalModel,
    contaminated_normal,
    population_sigma,
    sample,
)
from ..estimators import (
    SUPPORT_TOL,
    ClimeInfeasibleError,
    error_metrics,
    select_lambda_star,
    select_tau_star,
    solve_clime,
    solve_dantzig_linfun,
    threshold_cov,
)
from ..gaussian_approx import kolmogorov_distance
from ..inference import test_covariance, test_kendall
from ..kernels import CovarianceKernel
from ..matstat import matrix_l1_norm, sup_norm
from ..ustat import UStatResult, compute_u, sup_stat
from .config import EXPERIMENT_NAMES, ExperimentConfig

__all__ = ["ExperimentResult", "EXPERIMENTS", "run_experiment"]

# distinct substream tags per experiment so a shared master seed never reuses
# a stream across experiments
_TAGS = {name: i for i, name in enumerate(EXPERIMENT_NAMES)}


@dataclass(frozen=True)
class ExperimentResult:
    columns: list[str]
    rows: list[list[Any]]
    summary: dict[str, Any]


def _map_reps(
    rep: Callable[[int], Any], cfg: ExperimentConfig, count: int
) -> list[Any]:
    """Run replications rep(0), ..., rep(count - 1) in index order,
    optionally across a pool of at most ``count`` processes (``rep``, a
    partial holding the run's invariants, is pickled for the workers)."""
    workers = min(cfg.workers, count)
    if workers <= 1:
        return [rep(r) for r in range(count)]
    chunk = max(1, count // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(rep, range(count), chunksize=chunk))


def _bootstrap(
    cfg: ExperimentConfig,
    model: EllipticalModel,
    r: int,
    scaling: str = "applications",
) -> tuple[UStatResult, BootstrapDraws]:
    """Sample 2n rows on the substream (tag, r, 0), then split them on
    (tag, r, 1) and draw covariance-kernel bootstraps on (tag, r, 2) in the
    front end."""
    tag = _TAGS[cfg.experiment]
    data = sample(model, 2 * cfg.n, cfg.seed, tag, r, 0)
    return bootstrap_halves(
        data, CovarianceKernel(), cfg.bootstrap_b, scaling, "all",
        cfg.seed, tag, r, 1,
    )


# ---------------------------------------------------------------------------
# pp_plot: empirical P(T0bar <= a(alpha)) over an alpha grid (raw scaling)
# coverage: P(||S - Sigma||_sup <= a(alpha)) at the applications scaling
# ---------------------------------------------------------------------------

# bootstrap scaling (and so the statistic) and whether the summary reports
# the curve's largest distance from the diagonal
_CURVES = {"pp_plot": ("raw", True), "coverage": ("applications", False)}


def _curve_rep(
    cfg: ExperimentConfig, model: EllipticalModel, sigma: np.ndarray, r: int
) -> np.ndarray:
    scaling, _ = _CURVES[cfg.experiment]
    u, draws = _bootstrap(cfg, model, r, scaling)
    stat = draws.statistic(u, sigma)
    return draws.covers(stat, cfg.alpha_grid)


def run_coverage_curve(cfg: ExperimentConfig) -> ExperimentResult:
    model = cfg.build_model()
    rep = partial(_curve_rep, cfg, model, population_sigma(model))
    hits = np.vstack(_map_reps(rep, cfg, cfg.replications))
    coverage = hits.mean(axis=0)
    rows = [[a, c] for a, c in zip(cfg.alpha_grid, coverage)]
    summary = {}
    if _CURVES[cfg.experiment][1]:
        dev = np.abs(coverage - np.asarray(cfg.alpha_grid))
        summary["max_abs_deviation"] = float(np.max(dev))
    return ExperimentResult(
        columns=["alpha", "empirical_coverage"], rows=rows, summary=summary
    )


# ---------------------------------------------------------------------------
# naive_vs_hajek: three empirical laws of the signed sup statistic
# ---------------------------------------------------------------------------


def _nvh_rep(
    cfg: ExperimentConfig,
    model: EllipticalModel,
    sigma: np.ndarray,
    gaussian: EllipticalModel,
    r: int,
) -> tuple[float, float, float]:
    tag = _TAGS["naive_vs_hajek"]
    kernel = CovarianceKernel()

    data = sample(model, cfg.n, cfg.seed, tag, r, 0)
    t_stat = sup_stat(compute_u(data, kernel), sigma, "raw")

    # Hajek leading term with the known-Sigma population projection:
    # n^{-1/2} sum_i g(X_i) = sqrt(n) (mean_i x_i x_i^T - Sigma) / 2
    data_h = sample(model, cfg.n, cfg.seed, tag, r, 1)
    m2 = (data_h.T @ data_h) / cfg.n
    hajek_stat = sup_stat(UStatResult(u=m2, n=cfg.n), sigma, "raw")

    # naive moment-matched Gaussian data from N(0, Sigma)
    gauss = sample(gaussian, cfg.n, cfg.seed, tag, r, 2, 0)
    naive_stat = sup_stat(compute_u(gauss, kernel), sigma, "raw")
    return t_stat, naive_stat, hajek_stat


def run_naive_vs_hajek(cfg: ExperimentConfig) -> ExperimentResult:
    model = cfg.build_model()
    sigma = population_sigma(model)
    # N(0, Sigma) is the contaminated normal with epsilon = 0
    gaussian = contaminated_normal(sigma, 0.0, 1.0)
    rep = partial(_nvh_rep, cfg, model, sigma, gaussian)
    res = np.array(_map_reps(rep, cfg, cfg.replications))
    t_draws, naive_draws, hajek_draws = res[:, 0], res[:, 1], res[:, 2]
    ks_naive = kolmogorov_distance(t_draws, naive_draws)
    ks_hajek = kolmogorov_distance(t_draws, hajek_draws)
    grid = np.quantile(res.ravel(), np.linspace(0.01, 0.99, 99))
    # each law's empirical CDF at the grid: the count of draws <= t over reps
    cdfs = [np.searchsorted(np.sort(d), grid, "right") / d.size for d in res.T]
    rows = np.column_stack([grid, *cdfs]).tolist()
    return ExperimentResult(
        columns=["grid_point", "cdf_t", "cdf_naive", "cdf_hajek"],
        rows=rows,
        summary={
            "ks_t_naive": ks_naive,
            "ks_t_hajek": ks_hajek,
            "hajek_margin": ks_naive - ks_hajek,
        },
    )


# ---------------------------------------------------------------------------
# threshold_eval: bootstrap-selected hard threshold on a banded sparse truth
# ---------------------------------------------------------------------------


def banded_model(cfg: ExperimentConfig) -> tuple[EllipticalModel, np.ndarray, int]:
    """Exactly banded sparse truth with band half-width k0.

    Hard truncation of an AR(1) scale matrix loses positive definiteness, so
    the band is filled with the autocovariance of a moving-average filter
    with weights rho^j, j = 0..k0: positive definite by construction
    (spectral density |sum_j rho^j e^{i j w}|^2 > 0) and zero beyond the
    band, giving zeta_p = min(2 k0 + 1, p) nonzeros per column.
    """
    model = cfg.build_model()
    k0 = cfg.band_k0
    rho = 0.5 if cfg.model.get("rho") is None else cfg.model["rho"]
    c = rho ** np.arange(k0 + 1)
    gamma = np.array([np.dot(c[: k0 + 1 - h], c[h:]) for h in range(k0 + 1)])
    gamma /= gamma[0]
    dist = np.abs(np.subtract.outer(np.arange(cfg.p), np.arange(cfg.p)))
    v = np.where(dist <= k0, gamma[np.minimum(dist, k0)], 0.0)
    banded = replace(model, v=v)
    sigma = population_sigma(banded)
    zeta_p = int(np.max(np.sum(sigma != 0.0, axis=0)))
    return banded, sigma, zeta_p


def _threshold_rep(
    cfg: ExperimentConfig,
    model: EllipticalModel,
    sigma: np.ndarray,
    zeta_p: int,
    r: int,
) -> list[float]:
    beta = cfg.beta
    u, draws = _bootstrap(cfg, model, r)
    a = quantile(draws, 1.0 - cfg.alpha)
    tau_star = select_tau_star(a, beta)
    est = threshold_cov(u.u, tau_star)
    metrics = error_metrics(est, sigma)
    event = draws.statistic(u, sigma) <= beta * tau_star
    # deterministic bounds of the oracle-threshold analysis at r = 0
    rhs_spec = ((3.0 + 2.0 * beta) / beta + 1.0) * zeta_p * (beta * tau_star)
    rhs_frob = (
        2.0 * ((4.0 + 3.0 * beta**2) / beta**2 + 2.0)
        * zeta_p
        * (beta * tau_star) ** 2
    )
    holds = metrics["spectral"] <= rhs_spec and metrics["frob_per_p"] <= rhs_frob
    tau_delta = cfg.tau_delta_const * np.sqrt(np.log(cfg.p) / cfg.n)
    return [
        float(r),
        tau_star,
        metrics["spectral"],
        metrics["frob_per_p"],
        metrics["sup"],
        1.0 if event else 0.0,
        rhs_spec,
        rhs_frob,
        1.0 if holds else 0.0,
        float(tau_delta),
    ]


def run_threshold_eval(cfg: ExperimentConfig) -> ExperimentResult:
    rep = partial(_threshold_rep, cfg, *banded_model(cfg))
    rows = _map_reps(rep, cfg, cfg.replications)
    arr = np.array(rows)
    event_rate = float(arr[:, 5].mean())
    conditional_holds = arr[arr[:, 5] == 1.0, 8]
    violations = int(np.sum(conditional_holds == 0.0))
    return ExperimentResult(
        columns=[
            "replication",
            "tau_star",
            "spectral_err",
            "frob_err_per_p",
            "sup_err",
            "event",
            "bound_rhs_spectral",
            "bound_rhs_frob",
            "bound_holds",
            "tau_delta",
        ],
        rows=rows,
        summary={
            "event_rate": event_rate,
            "conditional_bound_violations": violations,
            "mean_tau_star": float(arr[:, 1].mean()),
        },
    )


# ---------------------------------------------------------------------------
# test_size: empirical size of the covariance and Kendall tests under H0
# ---------------------------------------------------------------------------


def _test_size_rep(
    cfg: ExperimentConfig,
    model: EllipticalModel,
    sigma: np.ndarray,
    ind_model: EllipticalModel,
    r: int,
) -> np.ndarray:
    """Rejections over the alpha grid of the library's covariance test of
    H0: Sigma = Sigma0 and Kendall test of T0 = I under independence
    (``ind_model``), on 2n rows sampled on (tag, r, 0) and (tag, r, 3) and
    tested with the keys (tag, r, 1) and (tag, r, 4)."""
    tag, n2, b = _TAGS["test_size"], 2 * cfg.n, cfg.bootstrap_b
    data = sample(model, n2, cfg.seed, tag, r, 0)
    cov = test_covariance(data, sigma, cfg.alpha, b, cfg.seed, tag, r, 1)
    data_k = sample(ind_model, n2, cfg.seed, tag, r, 3)
    ken = test_kendall(data_k, np.eye(cfg.p), cfg.alpha, b, cfg.seed, tag, r, 4)
    return np.concatenate(
        [t.draws.rejects(t.statistic, cfg.alpha_grid) for t in (cov, ken)]
    )


def run_test_size(cfg: ExperimentConfig) -> ExperimentResult:
    model = cfg.build_model()
    # identity scale matrix, same family: the population tau matrix has zero
    # off-diagonal for any elliptical law
    ind_model = replace(model, v=np.eye(cfg.p))
    rep = partial(_test_size_rep, cfg, model, population_sigma(model), ind_model)
    res = np.vstack(_map_reps(rep, cfg, cfg.replications))
    k = len(cfg.alpha_grid)
    size_cov = res[:, :k].mean(axis=0)
    size_ken = res[:, k:].mean(axis=0)
    rows = [
        [a, c, t] for a, c, t in zip(cfg.alpha_grid, size_cov, size_ken)
    ]
    return ExperimentResult(
        columns=["alpha", "empirical_size_cov", "empirical_size_kendall"],
        rows=rows,
        summary={},
    )


# ---------------------------------------------------------------------------
# clime_eval / linfun_eval: bootstrap-tuned l1 estimators
# ---------------------------------------------------------------------------


def _is_zero(estimate: np.ndarray) -> float:
    """1.0 when no entry exceeds the support tolerance (all-zero estimate)."""
    return float(np.all(np.abs(estimate) <= SUPPORT_TOL))


def _clime_truth(
    cfg: ExperimentConfig, sigma: np.ndarray
) -> tuple[np.ndarray, float]:
    """Omega = Sigma^{-1} and the bound M (``m_bound`` or ||Omega||_L1)."""
    omega = np.linalg.inv(sigma)
    return omega, cfg.m_bound if cfg.m_bound is not None else matrix_l1_norm(omega)


def _clime_row(
    s_hat: np.ndarray, q: float, omega: np.ndarray, m_bound: float
) -> list[float]:
    lam = select_lambda_star(q, m_bound)
    try:
        est = solve_clime(s_hat, lam)
    except ClimeInfeasibleError:
        return [lam, np.nan, np.nan, np.nan, 0.0, np.nan]
    metrics = error_metrics(est, omega)
    return [
        lam,
        metrics["spectral"],
        metrics["frob_per_p"],
        metrics["sup"],
        1.0,
        _is_zero(est),
    ]


def _linfun_truth(
    cfg: ExperimentConfig, sigma: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """b = e_1, theta = Sigma^{-1} b and the bound M (``m_bound`` or
    ||theta||_1)."""
    b = np.zeros(cfg.p)
    b[0] = 1.0
    theta = np.linalg.solve(sigma, b)
    m_bound = cfg.m_bound if cfg.m_bound is not None else float(np.sum(np.abs(theta)))
    return b, theta, m_bound


def _linfun_row(
    s_hat: np.ndarray,
    q: float,
    b: np.ndarray,
    theta: np.ndarray,
    m_bound: float,
) -> list[float]:
    lam = select_lambda_star(q, m_bound)
    sol = solve_dantzig_linfun(s_hat, b, lam)
    if sol.theta is None:
        return [lam, np.nan, np.nan, np.nan, 0.0, np.nan]
    diff = sol.theta - theta
    return [
        lam,
        float(np.sum(np.abs(diff))),
        float(np.linalg.norm(diff)),
        float(np.max(np.abs(diff))),
        1.0 if sol.feasible else 0.0,
        _is_zero(sol.theta),
    ]


# the truth built once per run from (cfg, Sigma), the row of (S, a(1 - alpha),
# *truth) after the replication index, its three error columns, and the one
# whose mean over feasible replications is reported
_L1 = {
    "clime_eval": (
        _clime_truth,
        _clime_row,
        ["spectral_err", "frob_err_per_p", "sup_err"],
        "spectral_err",
    ),
    "linfun_eval": (
        _linfun_truth,
        _linfun_row,
        ["err_l1", "err_l2", "err_linf"],
        "err_linf",
    ),
}


def _l1_rep(
    cfg: ExperimentConfig,
    model: EllipticalModel,
    row: Callable[..., list[float]],
    truth: tuple,
    r: int,
) -> list[float]:
    u, draws = _bootstrap(cfg, model, r)
    q = quantile(draws, 1.0 - cfg.alpha)
    return [float(r), *row(u.u, q, *truth)]


def run_l1_eval(cfg: ExperimentConfig) -> ExperimentResult:
    make_truth, row, errors, reported = _L1[cfg.experiment]
    columns = ["replication", "lambda_star", *errors, "feasible", "zero_solution"]
    model = cfg.build_model()
    truth = make_truth(cfg, population_sigma(model))
    rep = partial(_l1_rep, cfg, model, row, truth)
    rows = _map_reps(rep, cfg, cfg.replications)
    arr = np.array(rows)
    ok = arr[:, 5] == 1.0
    mean_err = arr[ok, columns.index(reported)].mean() if ok.any() else np.nan
    return ExperimentResult(
        columns=columns,
        rows=rows,
        summary={
            "feasible_rate": float(ok.mean()),
            f"mean_{reported}": float(mean_err),
            # all-zero share among feasible replications (lambda* large
            # enough for theta = 0 to be feasible) and the lambda* range
            "zero_solution_rate": float(arr[ok, 6].mean()) if ok.any() else np.nan,
            "lambda_star_min": float(arr[:, 1].min()),
            "lambda_star_max": float(arr[:, 1].max()),
        },
    )


# ---------------------------------------------------------------------------
# maximal_ineq_scaling: sup norm of the canonical remainder across n
# ---------------------------------------------------------------------------


def _scaling_rep(
    cfg: ExperimentConfig, model: EllipticalModel, sigma: np.ndarray, r: int
) -> np.ndarray:
    """For every n in the grid: sup norms of the canonical remainder of the
    covariance-kernel U-statistic and of its Hajek part, from closed forms
    with the population projections (mean-zero data)."""
    tag = _TAGS["maximal_ineq_scaling"]
    out = np.empty(2 * len(cfg.n_grid))
    for i, n in enumerate(cfg.n_grid):
        data = sample(model, int(n), cfg.seed, tag, r, i)
        s = data.sum(axis=0)
        g2 = data.T @ data
        canonical = -(np.outer(s, s) - g2) / (n * (n - 1))
        hajek = g2 / n - sigma
        out[i] = sup_norm(canonical)
        out[len(cfg.n_grid) + i] = sup_norm(hajek)
    return out


def _loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.polyfit(np.log(np.asarray(x, float)), np.log(y), 1)[0])


def run_maximal_ineq_scaling(cfg: ExperimentConfig) -> ExperimentResult:
    model = cfg.build_model()
    rep = partial(_scaling_rep, cfg, model, population_sigma(model))
    res = np.vstack(_map_reps(rep, cfg, cfg.replications))
    k = len(cfg.n_grid)
    mean_can = res[:, :k].mean(axis=0)
    mean_haj = res[:, k:].mean(axis=0)
    slope_can = _loglog_slope(np.asarray(cfg.n_grid), mean_can)
    slope_haj = _loglog_slope(np.asarray(cfg.n_grid), mean_haj)
    rows = [
        [int(n), c, h] for n, c, h in zip(cfg.n_grid, mean_can, mean_haj)
    ]
    return ExperimentResult(
        columns=["n", "mean_sup_canonical", "mean_sup_hajek"],
        rows=rows,
        summary={
            "slope_canonical": slope_can,
            "slope_hajek": slope_haj,
        },
    )


EXPERIMENTS: dict[str, Callable[[ExperimentConfig], ExperimentResult]] = {
    "pp_plot": run_coverage_curve,
    "coverage": run_coverage_curve,
    "naive_vs_hajek": run_naive_vs_hajek,
    "threshold_eval": run_threshold_eval,
    "test_size": run_test_size,
    "clime_eval": run_l1_eval,
    "linfun_eval": run_l1_eval,
    "maximal_ineq_scaling": run_maximal_ineq_scaling,
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    return EXPERIMENTS[cfg.experiment](cfg)
