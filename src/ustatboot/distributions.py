"""Elliptical simulation models and dependence structures.

Two mean-zero elliptical families:

* contaminated normal -- N(0, V) with probability 1 - eps, N(0, nu^2 V) with
  probability eps, applied independently per row;
* elliptic t with nu degrees of freedom -- G / sqrt(W / nu) for G ~ N(0, V)
  and W ~ chi-square(nu), so Cov = nu / (nu - 2) * V.

Scale matrices: the strong-dependence model 0.9 * 11^T + 0.1 * I and AR(1)
models with entries rho^|m-k|.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .matstat import as_sym, cholesky
from .rngutil import SeedLike, substream

__all__ = [
    "EllipticalModel",
    "contaminated_normal",
    "elliptic_t",
    "build_v",
    "sample",
    "population_sigma",
    "kurtosis_kappa",
]

CONTAMINATED = "contaminated_normal"
ELLIPTIC_T = "elliptic_t"

_V_KINDS = ("d1", "ar1", "identity")


@dataclass(frozen=True, eq=False)
class EllipticalModel:
    """Generative spec: family, tail parameters, and scale matrix V."""

    family: str
    v: np.ndarray
    nu: float
    epsilon: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "v", as_sym(self.v))
        if not np.isfinite(self.nu):
            raise ValueError(f"nu must be finite, got {self.nu}")
        if self.family == CONTAMINATED:
            if self.epsilon is None or not 0.0 <= self.epsilon < 1.0:
                raise ValueError("contaminated normal needs epsilon in [0, 1)")
            if self.nu <= 0:
                raise ValueError("contamination scale nu must be positive")
        elif self.family == ELLIPTIC_T:
            if self.nu <= 4:
                # fourth moments must exist for the kurtosis parameter
                raise ValueError("elliptic t needs nu > 4")
        else:
            raise ValueError(f"unknown family {self.family!r}")
        try:  # a huge contamination scale overflows nu^2 or nu^4
            sigma, kappa = population_sigma(self), kurtosis_kappa(self)
        except OverflowError:
            sigma = kappa = np.inf
        if not (np.isfinite(kappa) and np.isfinite(sigma).all()):
            raise ValueError(f"nu = {self.nu} overflows the covariance or kurtosis")

    @property
    def p(self) -> int:
        return self.v.shape[0]

    @functools.cached_property
    def chol(self) -> np.ndarray:
        """Lower Cholesky factor of V, computed at the first use and kept
        (not a field, so outside repr)."""
        return cholesky(self.v)


def contaminated_normal(v: np.ndarray, epsilon: float, nu: float) -> EllipticalModel:
    return EllipticalModel(family=CONTAMINATED, v=v, nu=nu, epsilon=epsilon)


def elliptic_t(v: np.ndarray, nu: float) -> EllipticalModel:
    return EllipticalModel(family=ELLIPTIC_T, v=v, nu=nu)


def build_v(kind: str, p: int, rho: float | None = None) -> np.ndarray:
    """Scale matrix builder.

    ``d1``       -- 0.9 * 11^T + 0.1 * I (strong dependence);
    ``ar1``      -- entries rho^|m-k| (rho=0.7 moderate, rho=0.3 weak);
    ``identity`` -- independence.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    kind = kind.lower()
    if kind == "d1":
        return 0.9 * np.ones((p, p)) + 0.1 * np.eye(p)
    if kind == "ar1":
        if rho is None or not -1.0 < rho < 1.0:
            raise ValueError("ar1 needs rho in (-1, 1)")
        idx = np.arange(p)
        return rho ** np.abs(idx[:, None] - idx[None, :])
    if kind == "identity":
        return np.eye(p)
    raise ValueError(f"unknown V kind {kind!r}; expected one of {_V_KINDS}")


def sample(model: EllipticalModel, n: int, seed: SeedLike, *key: int) -> np.ndarray:
    """Draw n iid rows from the model; deterministic in (seed, key)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = substream(seed, *key)
    g = rng.standard_normal((n, model.p)) @ model.chol.T
    if model.family == CONTAMINATED:
        mask = rng.random(n) < model.epsilon
        g[mask] *= model.nu
        return g
    w = rng.chisquare(model.nu, size=n)
    return g / np.sqrt(w / model.nu)[:, None]


def population_sigma(model: EllipticalModel) -> np.ndarray:
    """True covariance matrix of the model."""
    if model.family == CONTAMINATED:
        return (1.0 - model.epsilon + model.epsilon * model.nu**2) * model.v
    if model.nu <= 2:
        raise ValueError("covariance undefined for t with nu <= 2")
    return model.nu / (model.nu - 2.0) * model.v


def kurtosis_kappa(model: EllipticalModel) -> float:
    """Elliptical kurtosis parameter feeding the fourth-cumulant formula."""
    if model.family == CONTAMINATED:
        eps, nu = model.epsilon, model.nu
        return (1.0 + eps * (nu**4 - 1.0)) / (1.0 + eps * (nu**2 - 1.0)) ** 2 - 1.0
    if model.nu <= 4:
        raise ValueError("kurtosis undefined for t with nu <= 4")
    return 2.0 / (model.nu - 4.0)
