import dataclasses

import numpy as np
import pytest

from ustatboot import distributions
from ustatboot.distributions import (
    EllipticalModel,
    build_v,
    contaminated_normal,
    elliptic_t,
    kurtosis_kappa,
    population_sigma,
    sample,
)
from ustatboot.harness.config import model_from_config
from ustatboot.matstat import NotPositiveDefiniteError, cholesky
from ustatboot.rngutil import substream


def test_build_v_kinds():
    v = build_v("d1", 3)
    np.testing.assert_allclose(v, 0.9 * np.ones((3, 3)) + 0.1 * np.eye(3))
    v = build_v("ar1", 3, rho=0.5)
    np.testing.assert_allclose(v, [[1, 0.5, 0.25], [0.5, 1, 0.5], [0.25, 0.5, 1]])
    np.testing.assert_allclose(build_v("identity", 2), np.eye(2))
    with pytest.raises(ValueError):
        build_v("ar1", 3)
    with pytest.raises(ValueError):
        build_v("nope", 3)


def test_model_validation():
    with pytest.raises(ValueError):
        contaminated_normal(np.eye(2), epsilon=1.2, nu=1.5)
    with pytest.raises(ValueError):
        elliptic_t(np.eye(2), nu=4.0)
    with pytest.raises(ValueError):
        EllipticalModel(family="weird", v=np.eye(2), nu=2.0)
    for nu in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="nu must be finite"):
            contaminated_normal(np.eye(2), epsilon=0.2, nu=nu)
        with pytest.raises(ValueError, match="nu must be finite"):
            elliptic_t(np.eye(2), nu=nu)


def test_population_sigma_scalings():
    v = build_v("ar1", 3, rho=0.3)
    m1 = contaminated_normal(v, epsilon=0.2, nu=1.5)
    # 1 - eps + eps nu^2 = 0.8 + 0.2 * 2.25 = 1.25
    np.testing.assert_allclose(population_sigma(m1), 1.25 * v)
    m2 = elliptic_t(v, nu=10.0)
    np.testing.assert_allclose(population_sigma(m2), 1.25 * v)


def test_kurtosis_values():
    m1 = contaminated_normal(np.eye(2), epsilon=0.2, nu=1.5)
    assert kurtosis_kappa(m1) == pytest.approx(0.16, abs=1e-15)
    m2 = elliptic_t(np.eye(2), nu=10.0)
    assert kurtosis_kappa(m2) == pytest.approx(1.0 / 3.0, abs=1e-15)
    gauss = contaminated_normal(np.eye(2), epsilon=0.0, nu=1.0)
    assert kurtosis_kappa(gauss) == pytest.approx(0.0, abs=1e-15)


def test_sample_deterministic_and_shape():
    m = contaminated_normal(build_v("d1", 4), epsilon=0.2, nu=1.5)
    a = sample(m, 10, 0, 1)
    b = sample(m, 10, 0, 1)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (10, 4)
    assert not np.array_equal(a, sample(m, 10, 0, 2))


def test_sample_factors_v_once_per_model(monkeypatch):
    calls = []

    def counting(m):
        calls.append(m)
        return cholesky(m)

    monkeypatch.setattr(distributions, "cholesky", counting)
    m = contaminated_normal(build_v("ar1", 5, rho=0.7), epsilon=0.2, nu=1.5)
    fresh = contaminated_normal(build_v("ar1", 5, rho=0.7), epsilon=0.2, nu=1.5)
    assert calls == []  # a model that is never sampled is never factored
    a = sample(m, 8, 4, 1)
    b = sample(m, 8, 4, 2)
    assert len(calls) == 1
    # the factor is not a field: compare and repr ignore it
    assert "chol" not in {f.name for f in dataclasses.fields(m)}
    assert repr(m) == repr(fresh)
    rng = substream(4, 1)
    g = rng.standard_normal((8, 5)) @ cholesky(m.v).T
    mask = rng.random(8) < 0.2
    g[mask] *= 1.5
    np.testing.assert_array_equal(a, g)
    assert not np.array_equal(a, b)


def test_sample_non_positive_definite_v_raises_at_first_sample():
    m = elliptic_t(np.array([[1.0, 2.0], [2.0, 1.0]]), nu=8.0)
    for _ in range(2):
        with pytest.raises(NotPositiveDefiniteError):
            sample(m, 4, 0)


@pytest.mark.parametrize(
    "model",
    [
        contaminated_normal(build_v("d1", 3), epsilon=0.2, nu=1.5),
        elliptic_t(build_v("ar1", 3, rho=0.7), nu=10.0),
    ],
)
def test_sample_covariance_matches_population(model):
    n = 60_000
    x = sample(model, n, 123)
    emp = (x.T @ x) / n
    sigma = population_sigma(model)
    # entrywise MC tolerance: generous 5-sigma style bound for heavy tails
    tol = 6.0 * np.max(np.abs(sigma)) * np.sqrt((kurtosis_kappa(model) + 3.0) / n)
    np.testing.assert_allclose(emp, sigma, atol=tol)


def test_sample_rows_are_mean_zero():
    m = elliptic_t(build_v("identity", 3), nu=8.0)
    x = sample(m, 50_000, 5)
    np.testing.assert_allclose(x.mean(axis=0), 0.0, atol=0.05)


def test_config_round_trip():
    cfg = {
        "family": "contaminated_normal",
        "nu": 1.5,
        "epsilon": 0.2,
        "v_kind": "ar1",
        "rho": 0.7,
        "p": 4,
    }
    model = model_from_config(cfg)
    assert (model.family, model.nu, model.epsilon, model.p) == (
        "contaminated_normal", 1.5, 0.2, 4
    )
    np.testing.assert_allclose(model.v, build_v("ar1", 4, rho=0.7))


def test_config_rejects_unknown_and_missing_keys():
    with pytest.raises(ValueError):
        model_from_config({"family": "elliptic_t", "nu": 8, "v_kind": "d1", "p": 3, "x": 1})
    with pytest.raises(ValueError):
        model_from_config({"family": "elliptic_t", "nu": 8, "p": 3})
