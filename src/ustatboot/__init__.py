"""Gaussian wild bootstrap for sup-norms of matrix U-statistics.

Core pipeline: order-two matrix kernels (covariance, Kendall sign product),
Hoeffding decomposition utilities, the decoupled Hajek-projection estimator,
multiplier-bootstrap quantiles, and the statistical applications built on
them (sup-norm tests, adaptive covariance thresholding, CLIME / Dantzig
tuning-parameter selection).
"""

__version__ = "0.1.0"

from .bootstrap import (
    BootstrapDraws,
    DecoupledGEstimates,
    DegenerateBootstrapError,
    bootstrap_halves,
    draw_bootstrap,
    estimate_g_decoupled,
    quantile,
    split_sample,
)
from .distributions import (
    EllipticalModel,
    build_v,
    contaminated_normal,
    elliptic_t,
    kurtosis_kappa,
    population_sigma,
    sample,
)
from .estimators import (
    ClimeInfeasibleError,
    LinFunSolution,
    error_metrics,
    select_lambda_star,
    select_tau_star,
    solve_clime,
    solve_dantzig_linfun,
    threshold_cov,
)
from .inference import TestResult, test_covariance, test_kendall, test_ustat_mean
from .kernels import CovarianceKernel, CustomKernel, Kernel, KendallKernel
from .matstat import (
    NotPositiveDefiniteError,
    frobenius_norm,
    matrix_l1_norm,
    spectral_norm,
    sup_norm,
    unvech,
    vech,
    vech_index,
    vech_pairs,
)
from .ustat import (
    EmpiricalHoeffding,
    UStatResult,
    compute_u,
    kendall_tau_matrix,
    population_f_covariance,
    population_g_covariance,
    sup_stat,
)

__all__ = [
    "__version__",
    "BootstrapDraws",
    "DecoupledGEstimates",
    "DegenerateBootstrapError",
    "bootstrap_halves",
    "draw_bootstrap",
    "estimate_g_decoupled",
    "quantile",
    "split_sample",
    "EllipticalModel",
    "build_v",
    "contaminated_normal",
    "elliptic_t",
    "kurtosis_kappa",
    "population_sigma",
    "sample",
    "ClimeInfeasibleError",
    "LinFunSolution",
    "error_metrics",
    "select_lambda_star",
    "select_tau_star",
    "solve_clime",
    "solve_dantzig_linfun",
    "threshold_cov",
    "TestResult",
    "test_covariance",
    "test_kendall",
    "test_ustat_mean",
    "CovarianceKernel",
    "CustomKernel",
    "Kernel",
    "KendallKernel",
    "NotPositiveDefiniteError",
    "frobenius_norm",
    "matrix_l1_norm",
    "spectral_norm",
    "sup_norm",
    "unvech",
    "vech",
    "vech_index",
    "vech_pairs",
    "EmpiricalHoeffding",
    "UStatResult",
    "compute_u",
    "kendall_tau_matrix",
    "population_f_covariance",
    "population_g_covariance",
    "sup_stat",
]
