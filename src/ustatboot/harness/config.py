"""Experiment configuration: JSON schema, validation and defaults.

Configs are flat JSON objects.  Unknown keys are rejected so typos fail fast
instead of silently running with defaults.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..bootstrap import check_level
from ..distributions import EllipticalModel, build_v

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "default_config",
    "load_config",
    "model_from_config",
]

EXPERIMENT_NAMES = (
    "pp_plot",
    "naive_vs_hajek",
    "coverage",
    "threshold_eval",
    "test_size",
    "clime_eval",
    "linfun_eval",
    "maximal_ineq_scaling",
)


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _contaminated_model(p: int, v_kind: str, **extra: Any) -> dict[str, Any]:
    """The default contaminated normal (epsilon 0.2, nu 1.5) at scale
    ``v_kind`` with its ``extra`` parameters."""
    return {
        "family": "contaminated_normal",
        "epsilon": 0.2,
        "nu": 1.5,
        "v_kind": v_kind,
        **extra,
        "p": p,
    }


def _is_int(value: Any) -> bool:
    # JSON true/false load as bool, which is an int subclass
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def model_from_config(cfg: dict[str, Any]) -> EllipticalModel:
    """Build a model from its JSON description, the config's ``model`` dict;
    raises ConfigError."""
    unknown = set(cfg) - {"family", "nu", "v_kind", "p", "epsilon", "rho"}
    if unknown:
        raise ConfigError(f"unknown model config keys: {sorted(unknown)}")
    for req in ("family", "nu", "v_kind", "p"):
        if req not in cfg:
            raise ConfigError(f"model config missing {req!r}")
    if not isinstance(cfg["v_kind"], str):
        raise ConfigError(f"model v_kind must be a string, got {cfg['v_kind']!r}")
    if not _is_int(cfg["p"]):
        raise ConfigError(f"model p must be an integer, got {cfg['p']!r}")
    for key in ("nu", "epsilon", "rho"):
        value = cfg.get(key)
        if (key == "nu" or value is not None) and not _is_real(value):
            raise ConfigError(f"model {key} must be a number, got {value!r}")
    try:
        return EllipticalModel(
            family=cfg["family"],
            v=build_v(cfg["v_kind"], cfg["p"], cfg.get("rho")),
            nu=float(cfg["nu"]),
            epsilon=cfg.get("epsilon"),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid model: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved parameters for one experiment run."""

    experiment: str
    model: dict[str, Any]
    n: int = 200
    p: int = 40
    replications: int = 1000
    bootstrap_b: int = 200
    alpha_grid: tuple[float, ...] = tuple(round(0.05 * i, 2) for i in range(1, 20))
    alpha: float = 0.05
    beta: float = 1.0
    seed: int = 0
    workers: int = 1
    # threshold_eval: banding half-width of the sparse truth
    band_k0: int = 2
    # threshold_eval: constant of the universal-threshold comparison column
    tau_delta_const: float = 2.0
    # maximal_ineq_scaling: sample-size grid
    n_grid: tuple[int, ...] = (50, 100, 200, 400, 800)
    # clime_eval / linfun_eval: upper bound M used in lambda* = M a(1-alpha)
    m_bound: float | None = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENT_NAMES:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; "
                f"expected one of {EXPERIMENT_NAMES}"
            )
        counts = ("n", "p", "replications", "bootstrap_b", "workers", "band_k0")
        for name in (*counts, "seed"):
            if not _is_int(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer")
        if not all(_is_int(n) for n in self.n_grid):
            raise ConfigError("n_grid values must be integers")
        reals = ("alpha", "beta", "tau_delta_const")
        if self.m_bound is not None:
            reals += ("m_bound",)
        for name in reals:
            if not _is_real(getattr(self, name)):
                raise ConfigError(f"{name} must be a number")
        if not all(_is_real(a) for a in self.alpha_grid):
            raise ConfigError("alpha_grid values must be numbers")
        for name in counts:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        # an order-two U-statistic of n rows (a bootstrap half) needs two,
        # and the tests of test_size need an off-diagonal entry
        if self.n < 2:
            raise ConfigError("n must be >= 2")
        if self.experiment == "test_size" and self.p < 2:
            raise ConfigError("test_size needs p >= 2")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not self.alpha_grid:
            raise ConfigError("alpha_grid must not be empty")
        for level in (self.alpha, *self.alpha_grid):
            try:
                check_level(level)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        if not 0.0 < self.beta <= 1.0:
            raise ConfigError("beta must lie in (0, 1]")
        if any(n < 4 for n in self.n_grid):
            raise ConfigError("n_grid values must be >= 4")
        if len(set(self.n_grid)) < 2:
            raise ConfigError("n_grid needs at least two distinct sizes for a slope")
        if self.m_bound is not None and not 0.0 < self.m_bound < math.inf:
            raise ConfigError("m_bound must be finite and > 0")
        if not 0.0 < self.tau_delta_const < math.inf:
            raise ConfigError("tau_delta_const must be finite and > 0")
        model = model_from_config(self.model)
        if model.p != self.p:
            raise ConfigError(f"model p={model.p} does not match config p={self.p}")

    def build_model(self):
        return model_from_config(self.model)

    def to_dict(self) -> dict[str, Any]:
        d = dataclasses.asdict(self)
        d["alpha_grid"] = list(self.alpha_grid)
        d["n_grid"] = list(self.n_grid)
        return d


def default_config(experiment: str) -> ExperimentConfig:
    """Canonical defaults for each experiment, sized for desk runtime."""
    if experiment in ("pp_plot", "coverage", "test_size"):
        model = _contaminated_model(40, "d1")
        return ExperimentConfig(experiment=experiment, model=model)
    if experiment == "naive_vs_hajek":
        model = {"family": "elliptic_t", "nu": 8.0, "v_kind": "d1", "p": 40}
        return ExperimentConfig(experiment=experiment, model=model)
    if experiment == "threshold_eval":
        return ExperimentConfig(
            experiment=experiment,
            model=_contaminated_model(40, "ar1", rho=0.7),
            replications=500,
        )
    if experiment in ("clime_eval", "linfun_eval"):
        # lambda* = M a(1 - alpha) with a of order n^{-1/2}: n = 1000 keeps
        # lambda* below 1, where theta = 0 is infeasible (at n = 100 every
        # estimate is the all-zero one)
        return ExperimentConfig(
            experiment=experiment,
            model=_contaminated_model(20, "ar1", rho=0.7),
            p=20,
            n=1000,
            replications=50,
        )
    # maximal_ineq_scaling (the constructor rejects any other name)
    return ExperimentConfig(
        experiment=experiment,
        model=_contaminated_model(10, "d1"),
        p=10,
        replications=200,
    )


def load_config(path: str | Path, experiment: str, **overrides: Any) -> ExperimentConfig:
    """Read a JSON config, validate it against the experiment, apply CLI
    overrides (seed, workers, ...)."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    raw.setdefault("experiment", experiment)
    if raw["experiment"] != experiment:
        raise ConfigError(
            f"config is for experiment {raw['experiment']!r}, not {experiment!r}"
        )
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    raw.update(overrides)
    for key in ("alpha_grid", "n_grid"):
        if key in raw and isinstance(raw[key], list):
            raw[key] = tuple(raw[key])
    try:
        return ExperimentConfig(**raw)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
