import numpy as np
import pytest

from ustatboot.distributions import build_v, elliptic_t, kurtosis_kappa, population_sigma, sample
from ustatboot.gaussian_approx import (
    GammaG,
    analytic_gamma_g_elliptical,
    estimate_gamma_g,
    kolmogorov_distance,
    naive_gaussian_ustat_draws,
    sample_z_max,
)
from ustatboot.kernels import CovarianceKernel, KendallKernel
from ustatboot.matstat import vech_index
from ustatboot.ustat import population_g_covariance


def test_kolmogorov_distance_hand_oracle():
    # F({1,2}) vs F({1,3}): cdfs agree except on [2,3) where they differ by 1/2
    assert kolmogorov_distance([1.0, 2.0], [1.0, 3.0]) == pytest.approx(0.5)
    assert kolmogorov_distance([0.0, 1.0], [0.0, 1.0]) == 0.0
    # disjoint supports: distance 1
    assert kolmogorov_distance([0.0, 1.0], [5.0, 6.0]) == 1.0
    with pytest.raises(ValueError):
        kolmogorov_distance([], [1.0])


def test_kolmogorov_distance_symmetric():
    rng = np.random.default_rng(0)
    a = rng.standard_normal(50)
    b = rng.standard_normal(70) + 0.3
    assert kolmogorov_distance(a, b) == pytest.approx(kolmogorov_distance(b, a))


def test_estimate_gamma_g_matches_numpy_cov():
    rng = np.random.default_rng(1)
    stack = rng.standard_normal((30, 3, 3))
    stack = (stack + stack.transpose(0, 2, 1)) / 2
    gamma = estimate_gamma_g(stack)
    from ustatboot.matstat import vech

    ref = np.cov(vech(stack), rowvar=False)
    np.testing.assert_allclose(gamma.cov, ref, atol=1e-12)
    assert gamma.p_prime == 6


def test_analytic_gamma_diagonal_t8_identity():
    # Var g_jk = (3 sigma_jj sigma_kk + 4 sigma_jk^2) / 8 for t with nu = 8
    model = elliptic_t(build_v("ar1", 3, rho=0.6), nu=8.0)
    sigma = population_sigma(model)
    gamma = analytic_gamma_g_elliptical(sigma, kurtosis_kappa(model))
    for j in range(3):
        for k in range(j + 1):
            idx = vech_index(j + 1, k + 1, 3)
            expected = (3 * sigma[j, j] * sigma[k, k] + 4 * sigma[j, k] ** 2) / 8.0
            assert gamma.cov[idx, idx] == pytest.approx(expected, rel=1e-12)


def test_analytic_gamma_gaussian_case():
    # kappa = 0: Gamma[(j,k),(m,l)] = (sigma_jm sigma_kl + sigma_jl sigma_km)/4
    sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
    gamma = analytic_gamma_g_elliptical(sigma, 0.0)
    # entry ((1,1),(2,1)) in 1-based labels: j=k=1, m=2, l=1
    i_11 = vech_index(1, 1, 2)
    i_21 = vech_index(2, 1, 2)
    expected = (sigma[0, 1] * sigma[0, 0] + sigma[0, 0] * sigma[0, 1]) / 4.0
    assert gamma.cov[i_11, i_21] == pytest.approx(expected, rel=1e-12)


def test_analytic_gamma_matches_mc_small():
    model = elliptic_t(build_v("d1", 3), nu=8.0)
    sigma = population_sigma(model)
    x = sample(model, 40_000, 7)
    g = np.stack([population_g_covariance(row, sigma) for row in x])
    emp = estimate_gamma_g(g)
    ana = analytic_gamma_g_elliptical(sigma, kurtosis_kappa(model))
    big = np.abs(ana.cov) > 0.1
    rel = np.abs(emp.cov[big] - ana.cov[big]) / np.abs(ana.cov[big])
    assert np.max(rel) < 0.12


def test_sample_z_max_deterministic_and_restriction():
    gamma = analytic_gamma_g_elliptical(np.eye(3), 0.0)
    a = sample_z_max(gamma, 30, "signed", "all", 1, 2)
    b = sample_z_max(gamma, 30, "signed", "all", 1, 2)
    np.testing.assert_array_equal(a, b)
    assert np.all(np.diff(a) >= 0)
    c = sample_z_max(gamma, 30, "abs", "offdiag", 1, 2)
    assert np.all(c >= 0)


@pytest.mark.parametrize("sided", ["signed", "abs"])
@pytest.mark.parametrize("restriction", ["all", "offdiag"])
def test_sample_z_max_matches_per_draw_loop(sided, restriction):
    from ustatboot.matstat import cholesky, vech_pairs
    from ustatboot.rngutil import substream

    sigma = 0.5 ** np.abs(np.subtract.outer(np.arange(4), np.arange(4)))
    gamma = analytic_gamma_g_elliptical(sigma, 0.3)
    low = cholesky(gamma.cov)
    rows, cols = vech_pairs(4)
    keep = rows != cols if restriction == "offdiag" else slice(None)
    expected = []
    for d in range(50):
        z = (low @ substream(8, 1, d).standard_normal(gamma.p_prime))[keep]
        expected.append(np.max(z) if sided == "signed" else np.max(np.abs(z)))
    got = sample_z_max(gamma, 50, sided, restriction, 8, 1)
    np.testing.assert_allclose(got, np.sort(expected), atol=1e-12)


def test_sample_z_max_p_cap(monkeypatch):
    import ustatboot.gaussian_approx as ga

    gamma = GammaG(cov=np.eye(6))
    assert sample_z_max(gamma, 5).shape == (5,)
    monkeypatch.setattr(ga, "DEFAULT_GAMMA_P_CAP", 2)
    with pytest.raises(ValueError):
        sample_z_max(gamma, 5)
    with pytest.raises(ValueError):
        sample_z_max(GammaG(cov=np.eye(5)), 5)  # 5 is not p(p+1)/2


def test_naive_gaussian_draws_match_theory_scale():
    sigma = np.eye(2)
    draws = naive_gaussian_ustat_draws(sigma, 100, CovarianceKernel(), 200, 3)
    assert draws.shape == (200,)
    # scaled signed max of sqrt(n)(U - Sigma)/2: centered, O(1) spread
    assert abs(np.mean(draws)) < 2.0
    with pytest.raises(ValueError):
        naive_gaussian_ustat_draws(sigma, 50, KendallKernel(), 10, 0)
