"""Experiment implementations.

Every experiment is a pure function of (config, seed): replication r draws
its randomness from substreams keyed by (seed, experiment tag, r, stage), so
output is identical for any worker count and rerun.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

import numpy as np

from ..bootstrap import draw_bootstrap, estimate_g_decoupled, quantile, split_sample
from ..distributions import EllipticalModel, population_sigma, sample
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
from ..kernels import CovarianceKernel, KendallKernel
from ..matstat import matrix_l1_norm, sup_norm
from ..rngutil import substream
from ..ustat import compute_u, sup_stat
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
    fn: Callable[[ExperimentConfig, int], Any], cfg: ExperimentConfig, count: int
) -> list[Any]:
    """Run replications in index order, optionally across a process pool."""
    if cfg.workers <= 1:
        return [fn(cfg, r) for r in range(count)]
    chunk = max(1, count // (cfg.workers * 8))
    with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
        return list(pool.map(partial(fn, cfg), range(count), chunksize=chunk))


# ---------------------------------------------------------------------------
# pp_plot: empirical P(T0bar <= a(alpha)) over an alpha grid (raw scaling)
# ---------------------------------------------------------------------------


def _pp_rep(cfg: ExperimentConfig, r: int) -> np.ndarray:
    tag = _TAGS["pp_plot"]
    model = cfg.build_model()
    sigma = population_sigma(model)
    data = sample(model, 2 * cfg.n, cfg.seed, tag, r, 0)
    main, train = split_sample(data, cfg.seed, tag, r, 1)
    t0 = sup_stat(compute_u(main, CovarianceKernel()), sigma, sided="signed")
    g = estimate_g_decoupled(main, train, CovarianceKernel())
    draws = draw_bootstrap(g, cfg.bootstrap_b, "raw", "all", cfg.seed, tag, r, 2)
    return np.array(
        [1.0 if t0 <= quantile(draws, a).value else 0.0 for a in cfg.alpha_grid]
    )


def run_pp_plot(cfg: ExperimentConfig) -> ExperimentResult:
    hits = np.vstack(_map_reps(_pp_rep, cfg, cfg.replications))
    coverage = hits.mean(axis=0)
    rows = [[a, c] for a, c in zip(cfg.alpha_grid, coverage)]
    max_dev = float(np.max(np.abs(coverage - np.asarray(cfg.alpha_grid))))
    return ExperimentResult(
        columns=["alpha", "empirical_coverage"],
        rows=rows,
        summary={"max_abs_deviation": max_dev},
    )


# ---------------------------------------------------------------------------
# coverage: P(||S - Sigma||_sup <= a(alpha)) at the applications scaling
# ---------------------------------------------------------------------------


def _coverage_rep(cfg: ExperimentConfig, r: int) -> np.ndarray:
    tag = _TAGS["coverage"]
    model = cfg.build_model()
    sigma = population_sigma(model)
    data = sample(model, 2 * cfg.n, cfg.seed, tag, r, 0)
    main, train = split_sample(data, cfg.seed, tag, r, 1)
    err = sup_norm(compute_u(main, CovarianceKernel()).u - sigma)
    g = estimate_g_decoupled(main, train, CovarianceKernel())
    draws = draw_bootstrap(
        g, cfg.bootstrap_b, "applications", "all", cfg.seed, tag, r, 2
    )
    return np.array(
        [1.0 if err <= quantile(draws, a).value else 0.0 for a in cfg.alpha_grid]
    )


def run_coverage(cfg: ExperimentConfig) -> ExperimentResult:
    hits = np.vstack(_map_reps(_coverage_rep, cfg, cfg.replications))
    coverage = hits.mean(axis=0)
    rows = [[a, c] for a, c in zip(cfg.alpha_grid, coverage)]
    return ExperimentResult(
        columns=["alpha", "empirical_coverage"],
        rows=rows,
        summary={},
    )


# ---------------------------------------------------------------------------
# naive_vs_hajek: three empirical laws of the signed sup statistic
# ---------------------------------------------------------------------------


def _nvh_rep(cfg: ExperimentConfig, r: int) -> tuple[float, float, float]:
    tag = _TAGS["naive_vs_hajek"]
    model = cfg.build_model()
    sigma = population_sigma(model)
    kernel = CovarianceKernel()

    data = sample(model, cfg.n, cfg.seed, tag, r, 0)
    t_stat = sup_stat(compute_u(data, kernel), sigma, sided="signed")

    # Hajek leading term with the known-Sigma population projection:
    # n^{-1/2} sum_i g(X_i) = sqrt(n) (mean_i x_i x_i^T - Sigma) / 2
    data_h = sample(model, cfg.n, cfg.seed, tag, r, 1)
    m2 = (data_h.T @ data_h) / cfg.n
    hajek_stat = float(np.sqrt(cfg.n) * np.max(m2 - sigma) / 2.0)

    # naive moment-matched Gaussian data
    low = np.linalg.cholesky(sigma)
    y = substream(cfg.seed, tag, r, 2).standard_normal((cfg.n, cfg.p)) @ low.T
    naive_stat = sup_stat(compute_u(y, kernel), sigma, sided="signed")
    return t_stat, naive_stat, hajek_stat


def run_naive_vs_hajek(cfg: ExperimentConfig) -> ExperimentResult:
    from ..gaussian_approx import kolmogorov_distance

    res = np.array(_map_reps(_nvh_rep, cfg, cfg.replications))
    t_draws, naive_draws, hajek_draws = res[:, 0], res[:, 1], res[:, 2]
    ks_naive = kolmogorov_distance(t_draws, naive_draws)
    ks_hajek = kolmogorov_distance(t_draws, hajek_draws)
    grid = np.quantile(res.ravel(), np.linspace(0.01, 0.99, 99))
    rows = []
    for t in grid:
        rows.append(
            [
                float(t),
                float(np.mean(t_draws <= t)),
                float(np.mean(naive_draws <= t)),
                float(np.mean(hajek_draws <= t)),
            ]
        )
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
    rho = model.rho if model.rho is not None else 0.5
    c = rho ** np.arange(k0 + 1)
    gamma = np.array([np.dot(c[: k0 + 1 - h], c[h:]) for h in range(k0 + 1)])
    gamma /= gamma[0]
    dist = np.abs(np.subtract.outer(np.arange(cfg.p), np.arange(cfg.p)))
    v = np.where(dist <= k0, gamma[np.minimum(dist, k0)], 0.0)
    banded = EllipticalModel(
        family=model.family,
        v=v,
        nu=model.nu,
        epsilon=model.epsilon,
    )
    sigma = population_sigma(banded)
    zeta_p = int(np.max(np.sum(sigma != 0.0, axis=0)))
    return banded, sigma, zeta_p


def _threshold_rep(cfg: ExperimentConfig, r: int) -> list[float]:
    tag = _TAGS["threshold_eval"]
    model, sigma, zeta_p = banded_model(cfg)
    beta = cfg.beta
    data = sample(model, 2 * cfg.n, cfg.seed, tag, r, 0)
    main, train = split_sample(data, cfg.seed, tag, r, 1)
    s_hat = compute_u(main, CovarianceKernel()).u
    g = estimate_g_decoupled(main, train, CovarianceKernel())
    draws = draw_bootstrap(
        g, cfg.bootstrap_b, "applications", "all", cfg.seed, tag, r, 2
    )
    a = quantile(draws, 1.0 - cfg.alpha)
    tau_star = select_tau_star(a, beta)
    est = threshold_cov(s_hat, tau_star)
    metrics = error_metrics(est, sigma)
    event = sup_norm(s_hat - sigma) <= beta * tau_star
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
    rows = _map_reps(_threshold_rep, cfg, cfg.replications)
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


def _test_size_rep(cfg: ExperimentConfig, r: int) -> np.ndarray:
    tag = _TAGS["test_size"]
    model = cfg.build_model()
    sigma0 = population_sigma(model)
    alphas = np.asarray(cfg.alpha_grid)

    # covariance test under H0: Sigma = Sigma0
    data = sample(model, 2 * cfg.n, cfg.seed, tag, r, 0)
    main, train = split_sample(data, cfg.seed, tag, r, 1)
    cov_kernel = CovarianceKernel()
    stat_cov = sup_stat(
        compute_u(main, cov_kernel), sigma0, off_diag_only=True, scaled=False
    )
    g = estimate_g_decoupled(main, train, cov_kernel)
    draws = draw_bootstrap(
        g, cfg.bootstrap_b, "applications", "offdiag", cfg.seed, tag, r, 2
    )
    cov_reject = np.array(
        [1.0 if stat_cov >= quantile(draws, 1.0 - a).value else 0.0 for a in alphas]
    )

    # Kendall test under independence (identity scale matrix, same family);
    # the population tau matrix has zero off-diagonal for any elliptical law
    ind_model = EllipticalModel(
        family=model.family,
        v=np.eye(cfg.p),
        nu=model.nu,
        epsilon=model.epsilon,
    )
    ken_kernel = KendallKernel()
    data_k = sample(ind_model, 2 * cfg.n, cfg.seed, tag, r, 3)
    main_k, train_k = split_sample(data_k, cfg.seed, tag, r, 4)
    # statistic on the kernel scale: U0 = T0 + 1 entrywise with T0 = I
    u0 = np.eye(cfg.p) + 1.0
    stat_ken = sup_stat(
        compute_u(main_k, ken_kernel), u0, off_diag_only=True, scaled=False
    )
    g_k = estimate_g_decoupled(main_k, train_k, ken_kernel)
    draws_k = draw_bootstrap(
        g_k, cfg.bootstrap_b, "applications", "offdiag", cfg.seed, tag, r, 5
    )
    ken_reject = np.array(
        [1.0 if stat_ken >= quantile(draws_k, 1.0 - a).value else 0.0 for a in alphas]
    )
    return np.concatenate([cov_reject, ken_reject])


def run_test_size(cfg: ExperimentConfig) -> ExperimentResult:
    res = np.vstack(_map_reps(_test_size_rep, cfg, cfg.replications))
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


def _bootstrap_quantile_cov(cfg: ExperimentConfig, tag: int, r: int):
    """Shared front end: sample, split, sample covariance and its bootstrap
    quantile at level 1 - alpha (applications scaling)."""
    model = cfg.build_model()
    sigma = population_sigma(model)
    data = sample(model, 2 * cfg.n, cfg.seed, tag, r, 0)
    main, train = split_sample(data, cfg.seed, tag, r, 1)
    s_hat = compute_u(main, CovarianceKernel()).u
    g = estimate_g_decoupled(main, train, CovarianceKernel())
    draws = draw_bootstrap(
        g, cfg.bootstrap_b, "applications", "all", cfg.seed, tag, r, 2
    )
    return sigma, s_hat, quantile(draws, 1.0 - cfg.alpha)


def _is_zero(estimate: np.ndarray) -> float:
    """1.0 when no entry exceeds the support tolerance (all-zero estimate)."""
    return float(np.all(np.abs(estimate) <= SUPPORT_TOL))


def _l1_regime_summary(arr: np.ndarray, ok: np.ndarray) -> dict[str, float]:
    """All-zero share among feasible replications (lambda* large enough for
    theta = 0 to be feasible) and the lambda* range; rows hold lambda* in
    column 1 and the all-zero flag in column 6."""
    return {
        "zero_solution_rate": float(arr[ok, 6].mean()) if ok.any() else np.nan,
        "lambda_star_min": float(arr[:, 1].min()),
        "lambda_star_max": float(arr[:, 1].max()),
    }


def _clime_rep(cfg: ExperimentConfig, r: int) -> list[float]:
    sigma, s_hat, q = _bootstrap_quantile_cov(cfg, _TAGS["clime_eval"], r)
    omega = np.linalg.inv(sigma)
    m_bound = cfg.m_bound if cfg.m_bound is not None else matrix_l1_norm(omega)
    lam = select_lambda_star(q, m_bound)
    try:
        est = solve_clime(s_hat, lam)
    except ClimeInfeasibleError:
        return [float(r), lam, np.nan, np.nan, np.nan, 0.0, np.nan]
    metrics = error_metrics(est, omega)
    return [
        float(r),
        lam,
        metrics["spectral"],
        metrics["frob_per_p"],
        metrics["sup"],
        1.0,
        _is_zero(est),
    ]


def run_clime_eval(cfg: ExperimentConfig) -> ExperimentResult:
    rows = _map_reps(_clime_rep, cfg, cfg.replications)
    arr = np.array(rows)
    ok = arr[:, 5] == 1.0
    return ExperimentResult(
        columns=[
            "replication",
            "lambda_star",
            "spectral_err",
            "frob_err_per_p",
            "sup_err",
            "feasible",
            "zero_solution",
        ],
        rows=rows,
        summary={
            "feasible_rate": float(ok.mean()),
            "mean_spectral_err": float(arr[ok, 2].mean()) if ok.any() else np.nan,
            **_l1_regime_summary(arr, ok),
        },
    )


def _linfun_rep(cfg: ExperimentConfig, r: int) -> list[float]:
    sigma, s_hat, q = _bootstrap_quantile_cov(cfg, _TAGS["linfun_eval"], r)
    b = np.zeros(cfg.p)
    b[0] = 1.0
    theta = np.linalg.solve(sigma, b)
    m_bound = cfg.m_bound if cfg.m_bound is not None else float(np.sum(np.abs(theta)))
    lam = select_lambda_star(q, m_bound)
    sol = solve_dantzig_linfun(s_hat, b, lam)
    if sol.theta is None:
        return [float(r), lam, np.nan, np.nan, np.nan, 0.0, np.nan]
    diff = sol.theta - theta
    return [
        float(r),
        lam,
        float(np.sum(np.abs(diff))),
        float(np.linalg.norm(diff)),
        float(np.max(np.abs(diff))),
        1.0 if sol.feasible else 0.0,
        _is_zero(sol.theta),
    ]


def run_linfun_eval(cfg: ExperimentConfig) -> ExperimentResult:
    rows = _map_reps(_linfun_rep, cfg, cfg.replications)
    arr = np.array(rows)
    ok = arr[:, 5] == 1.0
    return ExperimentResult(
        columns=[
            "replication",
            "lambda_star",
            "err_l1",
            "err_l2",
            "err_linf",
            "feasible",
            "zero_solution",
        ],
        rows=rows,
        summary={
            "feasible_rate": float(ok.mean()),
            "mean_err_linf": float(arr[ok, 4].mean()) if ok.any() else np.nan,
            **_l1_regime_summary(arr, ok),
        },
    )


# ---------------------------------------------------------------------------
# maximal_ineq_scaling: sup norm of the canonical remainder across n
# ---------------------------------------------------------------------------


def _scaling_rep(cfg: ExperimentConfig, r: int) -> np.ndarray:
    """For every n in the grid: sup norms of the canonical remainder of the
    covariance-kernel U-statistic and of its Hajek part, from closed forms
    with the population projections (mean-zero data)."""
    tag = _TAGS["maximal_ineq_scaling"]
    model = cfg.build_model()
    sigma = population_sigma(model)
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
    res = np.vstack(_map_reps(_scaling_rep, cfg, cfg.replications))
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
    "pp_plot": run_pp_plot,
    "coverage": run_coverage,
    "naive_vs_hajek": run_naive_vs_hajek,
    "threshold_eval": run_threshold_eval,
    "test_size": run_test_size,
    "clime_eval": run_clime_eval,
    "linfun_eval": run_linfun_eval,
    "maximal_ineq_scaling": run_maximal_ineq_scaling,
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    return EXPERIMENTS[cfg.experiment](cfg)
