import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from ustatboot.bootstrap import draw_bootstrap, estimate_g_decoupled, quantile, split_sample
from ustatboot.distributions import population_sigma, sample
from ustatboot.harness.cli import main as cli_main
from ustatboot.harness.config import (
    EXPERIMENT_NAMES,
    ConfigError,
    ExperimentConfig,
    default_config,
    load_config,
)
from ustatboot.harness.experiments import (
    EXPERIMENTS,
    _nvh_rep,
    banded_model,
    run_experiment,
)
from ustatboot.kernels import CovarianceKernel
from ustatboot.matstat import cholesky, sup_norm
from ustatboot.rngutil import substream
from ustatboot.ustat import compute_u, sup_stat


def small(experiment, **over):
    cfg = default_config(experiment)
    model = dict(cfg.model)
    model["p"] = over.pop("p", 6)
    base = dict(n=30, p=model["p"], replications=4, bootstrap_b=20)
    base.update(over)
    return dataclasses.replace(cfg, model=model, **base)


def test_default_config_every_experiment():
    for name in EXPERIMENT_NAMES:
        cfg = default_config(name)
        assert cfg.experiment == name
        assert cfg.build_model().p == cfg.p
    with pytest.raises(ConfigError):
        default_config("nope")


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="pp_plot", model={"family": "x"})
    with pytest.raises(ConfigError):
        dataclasses.replace(default_config("pp_plot"), alpha=1.5)
    with pytest.raises(ConfigError):
        dataclasses.replace(default_config("pp_plot"), beta=0.0)
    with pytest.raises(ConfigError):
        dataclasses.replace(default_config("pp_plot"), p=7)  # model p mismatch


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    cfg = default_config("pp_plot").to_dict()
    cfg["typo_key"] = 1
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError):
        load_config(path, "pp_plot")


def test_load_config_round_trip_and_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(default_config("coverage").to_dict()))
    cfg = load_config(path, "coverage", seed=9, workers=3)
    assert cfg.seed == 9 and cfg.workers == 3
    with pytest.raises(ConfigError):
        load_config(path, "pp_plot")  # experiment mismatch
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json", "coverage")


def test_banded_model_is_positive_definite_and_sparse():
    cfg = dataclasses.replace(
        default_config("threshold_eval"),
        model={
            "family": "contaminated_normal",
            "epsilon": 0.2,
            "nu": 1.5,
            "v_kind": "ar1",
            "rho": 0.7,
            "p": 12,
        },
        p=12,
    )
    model, sigma, zeta_p = banded_model(cfg)
    assert np.min(np.linalg.eigvalsh(model.v)) > 0
    assert zeta_p == 2 * cfg.band_k0 + 1
    dist = np.abs(np.subtract.outer(np.arange(12), np.arange(12)))
    assert np.all(sigma[dist > cfg.band_k0] == 0.0)
    assert np.all(sigma[dist <= cfg.band_k0] != 0.0)


@pytest.mark.parametrize("name", EXPERIMENT_NAMES)
def test_every_experiment_runs_and_is_deterministic(name):
    over = {"n_grid": (20, 40)} if name == "maximal_ineq_scaling" else {}
    cfg = small(name, **over)
    res1 = EXPERIMENTS[name](cfg)
    res2 = run_experiment(cfg)
    assert res1.columns == res2.columns
    np.testing.assert_array_equal(np.asarray(res1.rows, dtype=float),
                                  np.asarray(res2.rows, dtype=float))
    assert len(res1.rows) > 0


def test_worker_count_does_not_change_results():
    cfg = small("coverage", replications=6)
    serial = run_experiment(cfg)
    parallel = run_experiment(dataclasses.replace(cfg, workers=2))
    np.testing.assert_array_equal(
        np.asarray(serial.rows, dtype=float), np.asarray(parallel.rows, dtype=float)
    )


def test_coverage_replication_follows_stream_layout():
    # replication r samples on (tag, r, 0), splits on (tag, r, 1) and draws
    # on (tag, r, 2), with the experiment's index as its tag
    tag, kernel = EXPERIMENT_NAMES.index("coverage"), CovarianceKernel()
    for seed in range(4):
        cfg = small("coverage", replications=1, seed=seed)
        model = cfg.build_model()
        data = sample(model, 2 * cfg.n, seed, tag, 0, 0)
        main, train = split_sample(data, seed, tag, 0, 1)
        err = sup_norm(compute_u(main, kernel).u - population_sigma(model))
        g = estimate_g_decoupled(main, train, kernel)
        draws = draw_bootstrap(g, cfg.bootstrap_b, "applications", "all", seed, tag, 0, 2)
        expected = [
            [a, 1.0 if err <= quantile(draws, a).value else 0.0] for a in cfg.alpha_grid
        ]
        assert run_experiment(cfg).rows == expected


def test_nvh_naive_draw_is_gaussian_ustat_on_its_substream():
    # the naive statistic is the raw sup of the covariance U-statistic of
    # N(0, Sigma) rows drawn on substream (seed, tag, r, 2, 0)
    tag = EXPERIMENT_NAMES.index("naive_vs_hajek")
    cfg = small("naive_vs_hajek", seed=5)
    sigma = population_sigma(cfg.build_model())
    low = cholesky(sigma)
    for r in range(3):
        y = substream(cfg.seed, tag, r, 2, 0).standard_normal((cfg.n, cfg.p)) @ low.T
        expected = sup_stat(compute_u(y, CovarianceKernel()), sigma, "raw")
        assert _nvh_rep(cfg, r)[1] == expected


@pytest.mark.parametrize("name", ["clime_eval", "linfun_eval"])
def test_l1_defaults_are_not_degenerate(name):
    # lambda* < 1, so theta = 0 is infeasible and no estimate is all zero
    cfg = dataclasses.replace(default_config(name), replications=2)
    summary = run_experiment(cfg).summary
    assert summary["lambda_star_max"] < 1
    assert summary["zero_solution_rate"] == 0


def test_coverage_curves_nondecreasing():
    for name in ("pp_plot", "coverage"):
        cfg = small(name, replications=12, bootstrap_b=40)
        res = run_experiment(cfg)
        cover = [row[1] for row in res.rows]
        assert all(b >= a for a, b in zip(cover, cover[1:]))


def _write_cfg(tmp_path, name, **over):
    cfg = small(name, **over).to_dict()
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return path


def test_cli_dump_defaults(capsys):
    assert cli_main(["--dump-defaults", "pp_plot"]) == 0
    dumped = json.loads(capsys.readouterr().out)
    assert dumped["experiment"] == "pp_plot"


def test_cli_run_writes_csv_and_meta(tmp_path):
    cfg_path = _write_cfg(tmp_path, "coverage")
    out = tmp_path / "out.csv"
    code = cli_main(["coverage", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha,empirical_coverage"
    assert len(lines) == 1 + 19
    meta = json.loads((tmp_path / "out.csv.meta.json").read_text())
    assert meta["experiment"] == "coverage"
    assert meta["rows"] == 19
    assert meta["config"]["n"] == 30


def test_cli_stdout_and_seed_override(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, "coverage")
    assert cli_main(["coverage", "--config", str(cfg_path)]) == 0
    first = capsys.readouterr().out
    assert cli_main(["coverage", "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().out == first
    assert cli_main(["coverage", "--config", str(cfg_path), "--seed", "5"]) == 0
    assert capsys.readouterr().out != first


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"bogus": 1}))
    assert cli_main(["pp_plot", "--config", str(bad)]) == 2
    assert cli_main(["pp_plot", "--config", str(tmp_path / "none.json")]) == 2
    bad.write_text("not json")
    assert cli_main(["pp_plot", "--config", str(bad)]) == 2


@pytest.mark.parametrize(
    "name, over",
    [
        ("pp_plot", {"alpha_grid": []}),
        ("maximal_ineq_scaling", {"n_grid": []}),
        ("maximal_ineq_scaling", {"n_grid": [50]}),
        ("maximal_ineq_scaling", {"n_grid": [50, 50]}),
        ("clime_eval", {"m_bound": -1}),
        ("linfun_eval", {"m_bound": 0}),
        ("pp_plot", {"n": 200.5}),
        ("coverage", {"bootstrap_b": 20.7}),
        ("threshold_eval", {"replications": "2"}),
        ("test_size", {"n": True}),
        ("coverage", {"seed": -1}),
        ("test_size", {"alpha": "0.05"}),
        ("test_size", {"alpha": True}),
        ("coverage", {"beta": True}),
        ("coverage", {"beta": "1"}),
        ("threshold_eval", {"tau_delta_const": "abc"}),
        ("threshold_eval", {"tau_delta_const": True}),
        ("threshold_eval", {"tau_delta_const": 0.0}),
        ("threshold_eval", {"tau_delta_const": float("inf")}),
        ("threshold_eval", {"tau_delta_const": float("nan")}),
        ("clime_eval", {"m_bound": True}),
        ("clime_eval", {"m_bound": "2"}),
        ("linfun_eval", {"m_bound": float("inf")}),
        ("coverage", {"alpha_grid": [0.05, True]}),
        ("coverage", {"alpha_grid": ["0.05"]}),
    ],
)
def test_cli_degenerate_config_exit_code(tmp_path, name, over):
    cfg = small(name, replications=1).to_dict()
    cfg.update(over)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli_main([name, "--config", str(path)]) == 2


def test_cli_requires_experiment():
    assert cli_main([]) == 2


def test_cli_numeric_failure_exit_code(tmp_path, monkeypatch):
    import ustatboot.harness.cli as cli_mod
    from ustatboot.matstat import NotPositiveDefiniteError

    cfg_path = _write_cfg(tmp_path, "coverage")

    def boom(cfg):
        raise NotPositiveDefiniteError(0, -1.0)

    monkeypatch.setattr(cli_mod, "run_experiment", boom)
    assert cli_main(["coverage", "--config", str(cfg_path)]) == 3


def test_console_script_installed(tmp_path):
    cfg_path = _write_cfg(tmp_path, "maximal_ineq_scaling", n_grid=(20, 40))
    out = tmp_path / "mis.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "ustatboot.harness.cli",
         "maximal_ineq_scaling", "--config", str(cfg_path), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
