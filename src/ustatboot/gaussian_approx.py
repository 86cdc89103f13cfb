"""Gaussian side of the two-step sup-norm approximation.

Covariance Gamma_g of the half-vectorized Hajek projection in analytic
elliptical form (its empirical counterpart is ``np.cov(rows, rowvar=False)``
of vech rows), and Kolmogorov distances between empirical distributions.
Gaussian maxima are drawn by the wild bootstrap (:mod:`ustatboot.bootstrap`),
and the naive moment-matched baseline of ``naive_vs_hajek`` is Gaussian data
drawn by :func:`ustatboot.distributions.sample`.
"""

from __future__ import annotations

import numpy as np

from .matstat import as_sym, vech_pairs

__all__ = ["analytic_gamma_g_elliptical", "kolmogorov_distance"]


def analytic_gamma_g_elliptical(sigma: np.ndarray, kappa: float) -> np.ndarray:
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
    return (kappa * (a + b + c) + a + b) / 4.0


def kolmogorov_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Sup distance between the empirical cdfs of two samples."""
    a = np.sort(np.asarray(a, dtype=np.float64).ravel())
    b = np.sort(np.asarray(b, dtype=np.float64).ravel())
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be nonempty")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("samples must be finite")
    support = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, support, side="right") / a.size
    cdf_b = np.searchsorted(b, support, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))
