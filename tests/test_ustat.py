import numpy as np
import pytest

from ustatboot.kernels import CovarianceKernel, KendallKernel
from ustatboot.ustat import (
    EmpiricalHoeffding,
    UStatResult,
    compute_u,
    kendall_tau_matrix,
    population_f_covariance,
    population_g_covariance,
    sup_stat,
)


def test_empirical_hoeffding_reconstructs_kernel():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((12, 3))
    for kernel in (CovarianceKernel(), KendallKernel()):
        dec = EmpiricalHoeffding(data, kernel)
        for i in range(5):
            for j in range(i + 1, 5):
                lhs = kernel(data[i], data[j])
                rhs = dec.f_hat(i, j) + dec.g_hat[i] + dec.g_hat[j] + dec.h_bar
                np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_empirical_hoeffding_centering_identities():
    rng = np.random.default_rng(1)
    data = rng.standard_normal((10, 2))
    dec = EmpiricalHoeffding(data, CovarianceKernel())
    n = data.shape[0]
    # g_hat sums to zero and h_bar is the U-statistic
    np.testing.assert_allclose(dec.g_hat.sum(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(
        dec.h_bar, compute_u(data, CovarianceKernel()).u, atol=1e-12
    )
    # empirical degeneracy: sum over i != j of f_hat vanishes
    acc = np.zeros((2, 2))
    for i in range(n):
        for j in range(n):
            if i != j:
                acc += dec.f_hat(i, j)
    np.testing.assert_allclose(acc, 0.0, atol=1e-10)


def test_population_decomposition_covariance():
    # h(x1,x2) = f(x1,x2) + g(x1) + g(x2) + Sigma exactly, any Sigma
    rng = np.random.default_rng(2)
    x1, x2 = rng.standard_normal((2, 4))
    sigma = np.eye(4) * 0.3
    h = CovarianceKernel()(x1, x2)
    rhs = (
        population_f_covariance(x1, x2)
        + population_g_covariance(x1, sigma)
        + population_g_covariance(x2, sigma)
        + sigma
    )
    np.testing.assert_allclose(h, rhs, atol=1e-12)


def test_kendall_tau_perfect_monotone():
    x = np.arange(10.0)
    data = np.column_stack([x, 2 * x + 1, -x])
    tau = kendall_tau_matrix(data)
    expected = np.array([[1.0, 1.0, -1.0], [1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
    np.testing.assert_allclose(tau, expected, atol=1e-12)


def test_kendall_tau_matrix_is_tau_a_on_tied_data():
    # tau_a from its definition: C(n,2)^{-1} sum over i<j of s_m s_k with
    # s = sign(X_i - X_j), so a pair tied in either coordinate adds 0
    rng = np.random.default_rng(8)
    n, p = 40, 4
    data = rng.integers(0, 3, (n, p)).astype(np.float64)
    data[:, 1] += data[:, 0]
    tau = np.zeros((p, p))
    for i in range(n - 1):
        for j in range(i + 1, n):
            s = np.sign(data[i] - data[j])
            tau += np.outer(s, s)
    tau /= n * (n - 1) / 2
    np.testing.assert_allclose(kendall_tau_matrix(data), tau, atol=1e-12)


def test_kendall_tau_arcsine_law():
    # bivariate normal with correlation r has tau = (2/pi) arcsin(r)
    rho = 0.5
    n = 4000
    rng = np.random.default_rng(3)
    z = rng.standard_normal((n, 2))
    data = np.column_stack([z[:, 0], rho * z[:, 0] + np.sqrt(1 - rho**2) * z[:, 1]])
    tau = kendall_tau_matrix(data)[0, 1]
    # asymptotic sd of tau-hat is about 2/(3 sqrt(n)) under independence-scale
    assert tau == pytest.approx(2.0 / np.pi * np.arcsin(rho), abs=4.0 * 2 / (3 * np.sqrt(n)))


def test_sup_stat_variants():
    u = np.array([[1.0, 2.0], [2.0, 0.0]])
    target = np.zeros((2, 2))
    assert sup_stat(UStatResult(u=u, n=16), target) == 2.0
    assert sup_stat(UStatResult(u=u, n=16), target, "raw") == pytest.approx(4.0)
    assert sup_stat(UStatResult(u=-u, n=16), target, "raw") == 0.0
    diag_heavy = UStatResult(u=u + np.diag([5.0, 0.0]), n=16)
    assert sup_stat(diag_heavy, target, restriction="offdiag") == 2.0
    with pytest.raises(ValueError):
        sup_stat(UStatResult(u=u, n=16), target, "bogus")
    with pytest.raises(ValueError):
        sup_stat(UStatResult(u=u, n=16), np.zeros((3, 3)))


def test_sup_stat_from_result():
    rng = np.random.default_rng(4)
    data = rng.standard_normal((9, 2))
    res = compute_u(data, CovarianceKernel())
    assert sup_stat(res, np.zeros((2, 2))) == np.max(np.abs(res.u))
    expected = np.sqrt(9) * np.max(res.u) / 2.0
    assert sup_stat(res, np.zeros((2, 2)), "raw") == pytest.approx(expected)
