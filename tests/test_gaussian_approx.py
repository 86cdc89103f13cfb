import numpy as np
import pytest

from ustatboot.distributions import build_v, elliptic_t, kurtosis_kappa, population_sigma, sample
from ustatboot.gaussian_approx import analytic_gamma_g_elliptical, kolmogorov_distance
from ustatboot.matstat import vech, vech_pairs
from ustatboot.ustat import population_g_covariance


def test_kolmogorov_distance_hand_oracle():
    # F({1,2}) vs F({1,3}): cdfs agree except on [2,3) where they differ by 1/2
    assert kolmogorov_distance([1.0, 2.0], [1.0, 3.0]) == pytest.approx(0.5)
    assert kolmogorov_distance([0.0, 1.0], [0.0, 1.0]) == 0.0
    # disjoint supports: distance 1
    assert kolmogorov_distance([0.0, 1.0], [5.0, 6.0]) == 1.0
    with pytest.raises(ValueError):
        kolmogorov_distance([], [1.0])


def test_kolmogorov_distance_rejects_non_finite():
    for a, b in [([np.nan, 1.0], [1.0, 2.0]), ([np.nan], [np.nan]), ([0.0], [np.inf])]:
        with pytest.raises(ValueError):
            kolmogorov_distance(a, b)


def test_kolmogorov_distance_symmetric():
    rng = np.random.default_rng(0)
    a = rng.standard_normal(50)
    b = rng.standard_normal(70) + 0.3
    assert kolmogorov_distance(a, b) == pytest.approx(kolmogorov_distance(b, a))


def test_analytic_gamma_diagonal_t8_identity():
    # Var g_jk = (3 sigma_jj sigma_kk + 4 sigma_jk^2) / 8 for t with nu = 8
    model = elliptic_t(build_v("ar1", 3, rho=0.6), nu=8.0)
    sigma = population_sigma(model)
    gamma = analytic_gamma_g_elliptical(sigma, kurtosis_kappa(model))
    for idx, (j, k) in enumerate(zip(*vech_pairs(3))):
        expected = (3 * sigma[j, j] * sigma[k, k] + 4 * sigma[j, k] ** 2) / 8.0
        assert gamma[idx, idx] == pytest.approx(expected, rel=1e-12)


def test_analytic_gamma_gaussian_case():
    # kappa = 0: Gamma[(j,k),(m,l)] = (sigma_jm sigma_kl + sigma_jl sigma_km)/4
    sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
    gamma = analytic_gamma_g_elliptical(sigma, 0.0)
    # entry ((1,1),(2,1)) in 1-based labels: j=k=1, m=2, l=1
    pairs = list(zip(*vech_pairs(2)))
    i_11, i_21 = pairs.index((0, 0)), pairs.index((1, 0))
    expected = (sigma[0, 1] * sigma[0, 0] + sigma[0, 0] * sigma[0, 1]) / 4.0
    assert gamma[i_11, i_21] == pytest.approx(expected, rel=1e-12)


def test_analytic_gamma_matches_mc_small():
    model = elliptic_t(build_v("d1", 3), nu=8.0)
    sigma = population_sigma(model)
    x = sample(model, 40_000, 7)
    g = np.stack([population_g_covariance(row, sigma) for row in x])
    emp = np.cov(vech(g), rowvar=False)
    ana = analytic_gamma_g_elliptical(sigma, kurtosis_kappa(model))
    big = np.abs(ana) > 0.1
    rel = np.abs(emp[big] - ana[big]) / np.abs(ana[big])
    assert np.max(rel) < 0.12
