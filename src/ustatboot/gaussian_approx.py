"""Gaussian side of the two-step sup-norm approximation.

Covariance of the half-vectorized Hajek projection (empirical and analytic
elliptical forms), sampling of Gaussian maxima, Kolmogorov distances between
empirical distributions, and the naive moment-matched Gaussian-data baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import CovarianceKernel, Kernel
from .matstat import NotPositiveDefiniteError, as_sym, cholesky, vech, vech_pairs
from .rngutil import SeedLike, substream, substream_normals
from .ustat import compute_u, sup_stat, vech_columns

__all__ = [
    "GammaG",
    "DEFAULT_GAMMA_P_CAP",
    "estimate_gamma_g",
    "analytic_gamma_g_elliptical",
    "sample_z_max",
    "kolmogorov_distance",
    "naive_gaussian_ustat_draws",
]

# Gamma_g is p' x p' with p' = p(p+1)/2; direct sampling beyond this cap is
# memory-heavy and the wild bootstrap is the scalable path
DEFAULT_GAMMA_P_CAP = 60

_JITTER_BASE = 1e-10
_JITTER_TRIES = 3


@dataclass(frozen=True)
class GammaG:
    """Covariance of vech(g(X_i)), indexed by column-major lower-triangle
    pairs (j, k) with j >= k."""

    cov: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "cov", as_sym(self.cov))

    @property
    def p_prime(self) -> int:
        return self.cov.shape[0]


def _p_from_p_prime(p_prime: int) -> int:
    p = int((np.sqrt(8 * p_prime + 1) - 1) / 2)
    if p * (p + 1) // 2 != p_prime:
        raise ValueError(f"{p_prime} is not of the form p(p+1)/2")
    return p


def estimate_gamma_g(g_values: np.ndarray) -> GammaG:
    """Empirical covariance (ddof=1) of n symmetric matrices, vech'd."""
    g_values = np.asarray(g_values, dtype=np.float64)
    if g_values.ndim != 3 or g_values.shape[0] < 2:
        raise ValueError("need an (n, p, p) stack with n >= 2")
    flat = vech(g_values)
    centered = flat - flat.mean(axis=0)
    return GammaG(cov=(centered.T @ centered) / (g_values.shape[0] - 1))


def analytic_gamma_g_elliptical(sigma: np.ndarray, kappa: float) -> GammaG:
    """Closed-form Gamma_g of the covariance kernel under an elliptical law:

    Gamma[(j,k),(m,l)] = (kappa_4 + sigma_jm sigma_kl + sigma_jl sigma_km)/4
    with fourth cumulant
    kappa_4 = kappa (sigma_jk sigma_ml + sigma_jm sigma_kl + sigma_jl sigma_km).
    """
    sigma = as_sym(sigma)
    p = sigma.shape[0]
    j, k = vech_pairs(p)
    a = sigma[np.ix_(j, j)] * sigma[np.ix_(k, k)]  # sigma_jm sigma_kl
    b = sigma[np.ix_(j, k)] * sigma[np.ix_(k, j)]  # sigma_jl sigma_km
    c = np.outer(sigma[j, k], sigma[j, k])  # sigma_jk sigma_ml
    return GammaG(cov=(kappa * (a + b + c) + a + b) / 4.0)


def _chol_with_jitter(cov: np.ndarray) -> np.ndarray:
    """Cholesky with escalating diagonal jitter; empirical Gamma_g is often
    numerically singular when n < p'."""
    try:
        return cholesky(cov)
    except NotPositiveDefiniteError:
        pass
    scale = max(float(np.max(np.diag(cov))), np.finfo(float).tiny)
    jitter = _JITTER_BASE * scale
    for _ in range(_JITTER_TRIES):
        try:
            return cholesky(cov + jitter * np.eye(cov.shape[0]))
        except NotPositiveDefiniteError:
            jitter *= 10.0
    raise NotPositiveDefiniteError(
        f"not positive definite after {_JITTER_TRIES} jitter escalations"
    )


def sample_z_max(
    gamma: GammaG,
    b: int,
    sided: str = "signed",
    restriction: str = "all",
    seed: SeedLike = 0,
    *key: int,
) -> np.ndarray:
    """Sorted draws of the max (signed or absolute) over vech coordinates of
    N(0, Gamma_g) vectors.  One Gaussian vector per draw: the normalized sum
    n^{-1/2} sum Z_i is itself N(0, Gamma_g).  Draw d is the Cholesky factor
    times the normals of substream (seed, *key, d); all b are one GEMM.
    Raises ValueError for p above ``DEFAULT_GAMMA_P_CAP``."""
    if b < 1:
        raise ValueError("b must be >= 1")
    if sided not in ("signed", "abs"):
        raise ValueError(f"sided must be 'signed' or 'abs', got {sided!r}")
    p = _p_from_p_prime(gamma.p_prime)
    if p > DEFAULT_GAMMA_P_CAP:
        raise ValueError(
            f"p={p} exceeds the Gamma_g sampling cap {DEFAULT_GAMMA_P_CAP}; "
            "use the wild bootstrap for large p"
        )
    keep = vech_columns(p, restriction)
    if not np.any(gamma.cov):
        return np.zeros(b)
    low = _chol_with_jitter(gamma.cov)
    z = (substream_normals(seed, *key, rows=b, cols=gamma.p_prime) @ low.T)[:, keep]
    values = z.max(axis=1)
    if sided == "abs":
        np.maximum(values, -z.min(axis=1), out=values)
    values.sort()
    return values


def kolmogorov_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Sup distance between the empirical cdfs of two samples."""
    a = np.sort(np.asarray(a, dtype=np.float64).ravel())
    b = np.sort(np.asarray(b, dtype=np.float64).ravel())
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be nonempty")
    support = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, support, side="right") / a.size
    cdf_b = np.searchsorted(b, support, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def naive_gaussian_ustat_draws(
    sigma: np.ndarray,
    n: int,
    kernel: Kernel,
    replications: int,
    seed: SeedLike = 0,
    *key: int,
    target: np.ndarray | None = None,
) -> np.ndarray:
    """Draws of the raw sup statistic sqrt(n) max(U - target) / 2 from
    moment-matched Gaussian data: each replication simulates n iid
    N(0, Sigma) rows, computes the kernel U-statistic and centers it at
    ``target`` (E U under the Gaussian law; defaults to Sigma for the
    covariance kernel)."""
    sigma = as_sym(sigma)
    if target is None:
        if isinstance(kernel, CovarianceKernel):
            target = sigma
        else:
            raise ValueError(
                "target (E U under N(0, Sigma)) must be supplied for "
                "non-covariance kernels"
            )
    if not np.any(sigma):
        return np.zeros(replications)
    low = cholesky(sigma)
    draws = np.empty(replications)
    for r in range(replications):
        y = substream(seed, *key, r).standard_normal((n, sigma.shape[0])) @ low.T
        draws[r] = sup_stat(compute_u(y, kernel), target, "raw")
    return draws
