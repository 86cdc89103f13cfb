import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from ustatboot.bootstrap import draw_bootstrap, estimate_g_decoupled, quantile, split_sample
from ustatboot.distributions import contaminated_normal, population_sigma, sample
from ustatboot.harness.cli import main as cli_main
from ustatboot.harness.config import (
    _READS,
    EXPERIMENT_NAMES,
    ConfigError,
    ExperimentConfig,
    default_config,
    load_config,
)
from ustatboot.harness.experiments import (
    _TAGS,
    EXPERIMENTS,
    _nvh_rep,
    _test_size_rep,
    banded_model,
    run_experiment,
)
from ustatboot.inference import (
    test_covariance as covariance_test,
    test_kendall as kendall_test,
)
from ustatboot.kernels import CovarianceKernel
from ustatboot.lp import SimplexError
from ustatboot.matstat import NotPositiveDefiniteError, cholesky, sup_norm
from ustatboot.rngutil import substream
from ustatboot.ustat import compute_u, sup_stat


# each experiment's substream tag; a new experiment goes last so that no
# existing experiment's streams move
TAGS = {
    "pp_plot": 0,
    "naive_vs_hajek": 1,
    "coverage": 2,
    "threshold_eval": 3,
    "test_size": 4,
    "clime_eval": 5,
    "linfun_eval": 6,
    "maximal_ineq_scaling": 7,
}


def small(experiment, **over):
    # n and bootstrap_b shrink only where the experiment reads them
    cfg = default_config(experiment)
    model = dict(cfg.model)
    model["p"] = over.pop("p", 6)
    sizes = {"n": 30, "bootstrap_b": 20}
    base = {k: v for k, v in sizes.items() if k in _READS[experiment]}
    base.update(p=model["p"], replications=4)
    base.update(over)
    return dataclasses.replace(cfg, model=model, **base)


def test_default_config_every_experiment():
    for name in EXPERIMENT_NAMES:
        cfg = default_config(name)
        assert cfg.experiment == name
        assert cfg.build_model().p == cfg.p
    with pytest.raises(ConfigError):
        default_config("nope")


def test_experiment_tags_are_pinned():
    assert _TAGS == TAGS
    assert list(EXPERIMENT_NAMES) == list(TAGS)
    assert list(EXPERIMENTS) == list(EXPERIMENT_NAMES)


@pytest.mark.parametrize("name", EXPERIMENT_NAMES)
def test_default_config_round_trips_through_json(tmp_path, name):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(default_config(name).to_dict()))
    assert load_config(path, name) == default_config(name)


@pytest.mark.parametrize(
    "field", dataclasses.fields(ExperimentConfig)[2:], ids=lambda f: f.name
)
def test_typed_config_field_rejects_bools_and_strings(field):
    # JSON true and "1" are no numbers, 1.5 is no integer, and an array
    # holding any of them is no array of numbers or integers
    cfg = default_config("maximal_ineq_scaling")
    default = getattr(cfg, field.name)
    entry = default[0] if isinstance(default, tuple) else default
    bad = [True, "1", 1.5] if isinstance(entry, int) else [True, "1"]
    if isinstance(default, tuple):
        bad += [(*default, v) for v in bad]
    for value in bad:
        with pytest.raises(ConfigError, match=f"^{field.name} "):
            dataclasses.replace(cfg, **{field.name: value})


# each run was identical to the default one: the experiment never reads the
# field
UNREAD = [
    ("clime_eval", "beta", 0.5),
    ("coverage", "n_grid", (7, 9)),
    ("threshold_eval", "m_bound", 3.0),
    ("naive_vs_hajek", "bootstrap_b", 7),
    ("maximal_ineq_scaling", "n", 999),
    ("test_size", "alpha", 0.2),
]


@pytest.mark.parametrize("name, field, value", UNREAD, ids=str)
def test_a_field_the_experiment_never_reads_keeps_its_default(
    tmp_path, capsys, name, field, value
):
    cfg = default_config(name)
    message = f"{name} does not read {field};"
    with pytest.raises(ConfigError, match=f"^{message}"):
        dataclasses.replace(cfg, **{field: value})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**cfg.to_dict(), field: value}))
    assert cli_main([name, "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_read_fields_name_every_experiment_and_real_fields():
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)[2:]}
    assert list(_READS) == list(EXPERIMENT_NAMES)
    for reads in _READS.values():
        assert set(reads) <= fields


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="pp_plot", model={"family": "x"})
    # threshold_eval reads alpha and beta, so their range checks decide
    with pytest.raises(ConfigError, match="alpha"):
        dataclasses.replace(default_config("threshold_eval"), alpha=1.5)
    with pytest.raises(ConfigError, match="^beta must lie"):
        dataclasses.replace(default_config("threshold_eval"), beta=0.0)
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


@pytest.mark.parametrize("name", EXPERIMENT_NAMES)
def test_worker_count_does_not_change_results(name):
    over = {"n_grid": (20, 40)} if name == "maximal_ineq_scaling" else {}
    cfg = small(name, replications=6, **over)
    serial = run_experiment(cfg)
    parallel = run_experiment(dataclasses.replace(cfg, workers=2))
    # assert_array_equal counts NaN as equal to NaN
    np.testing.assert_array_equal(
        np.asarray(serial.rows, dtype=float), np.asarray(parallel.rows, dtype=float)
    )
    assert repr(parallel.summary) == repr(serial.summary)


@pytest.mark.parametrize(
    "workers, replications, expected", [(10_000, 3, [3]), (2, 3, [2]), (10_000, 1, [])]
)
def test_worker_pool_is_capped_at_the_replication_count(
    monkeypatch, workers, replications, expected
):
    # an in-process stand-in for the pool records its size; no process starts
    import ustatboot.harness.experiments as experiments_mod

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            assert chunksize >= 1
            return map(fn, items)

    monkeypatch.setattr(experiments_mod, "ProcessPoolExecutor", RecordingPool)
    cfg = small("threshold_eval", replications=replications)
    pooled = run_experiment(dataclasses.replace(cfg, workers=workers))
    assert sizes == expected
    assert repr(pooled) == repr(run_experiment(cfg))


def test_coverage_replication_follows_stream_layout():
    # replication r samples on (tag, r, 0), splits on (tag, r, 1) and draws
    # on (tag, r, 2), with the experiment's index as its tag
    tag, kernel = TAGS["coverage"], CovarianceKernel()
    for seed in range(4):
        cfg = small("coverage", replications=1, seed=seed)
        model = cfg.build_model()
        data = sample(model, 2 * cfg.n, seed, tag, 0, 0)
        main, train = split_sample(data, seed, tag, 0, 1)
        err = sup_norm(compute_u(main, kernel).u - population_sigma(model))
        g = estimate_g_decoupled(main, train, kernel)
        draws = draw_bootstrap(g, cfg.bootstrap_b, "applications", "all", seed, tag, 0, 2)
        expected = [
            [a, 1.0 if err <= quantile(draws, a) else 0.0] for a in cfg.alpha_grid
        ]
        assert run_experiment(cfg).rows == expected


def test_test_size_replication_runs_the_library_tests():
    # replication r samples on (tag, r, 0) and (tag, r, 3) and rejects where
    # the library's covariance and Kendall tests with keys (tag, r, 1) and
    # (tag, r, 4) reject, at every level of the grid
    tag = TAGS["test_size"]
    cfg = small("test_size", seed=3)
    model = cfg.build_model()
    sigma = population_sigma(model)
    ind_model = dataclasses.replace(model, v=np.eye(cfg.p))
    rows = []
    for r in range(cfg.replications):
        cov = covariance_test(
            sample(model, 2 * cfg.n, cfg.seed, tag, r, 0),
            sigma, cfg.bootstrap_b, cfg.seed, tag, r, 1,
        )
        ken = kendall_test(
            sample(ind_model, 2 * cfg.n, cfg.seed, tag, r, 3),
            np.eye(cfg.p), cfg.bootstrap_b, cfg.seed, tag, r, 4,
        )
        rows.append(
            [t.draws.rejects(t.statistic, cfg.alpha_grid) for t in (cov, ken)]
        )
        got = _test_size_rep(cfg, model, sigma, ind_model, r)
        np.testing.assert_array_equal(got, np.concatenate(rows[-1]))
    size = np.mean(rows, axis=0)
    expected = [[a, c, k] for a, c, k in zip(cfg.alpha_grid, *size)]
    assert run_experiment(cfg).rows == expected


def test_nvh_naive_draw_is_gaussian_ustat_on_its_substream():
    # the naive statistic is the raw sup of the covariance U-statistic of
    # N(0, Sigma) rows drawn on substream (seed, tag, r, 2, 0)
    tag = TAGS["naive_vs_hajek"]
    cfg = small("naive_vs_hajek", seed=5)
    model = cfg.build_model()
    sigma = population_sigma(model)
    gaussian = contaminated_normal(sigma, 0.0, 1.0)
    low = cholesky(sigma)
    for r in range(3):
        y = substream(cfg.seed, tag, r, 2, 0).standard_normal((cfg.n, cfg.p)) @ low.T
        expected = sup_stat(compute_u(y, CovarianceKernel()), sigma, "raw")
        assert _nvh_rep(cfg, model, sigma, gaussian, r)[1] == expected


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
        # 1 - 1e-17 rounds to 1.0, which has no upper quantile rank
        ("threshold_eval", {"alpha": 1e-17}),
        ("test_size", {"alpha_grid": [1e-17, 0.05]}),
        # one row per half has no U-statistic; p = 1 has no off-diagonal
        ("pp_plot", {"n": 1}),
        ("coverage", {"n": 1}),
        ("naive_vs_hajek", {"n": 1}),
        ("threshold_eval", {"n": 1}),
        ("test_size", {"n": 1}),
        ("clime_eval", {"n": 1}),
        ("linfun_eval", {"n": 1}),
        (
            "test_size",
            {"p": 1, "model": {**default_config("test_size").model, "p": 1}},
        ),
        # threshold_eval replaces V by its band filter, so a v_kind other
        # than ar1 would be silently ignored
        ("threshold_eval", {"model": {**default_config("test_size").model, "p": 6}}),
        (
            "threshold_eval",
            {
                "model": {
                    **default_config("threshold_eval").model,
                    "v_kind": "identity",
                    "rho": 0.5,
                    "p": 6,
                }
            },
        ),
        # only ar1 reads rho, so another scale would silently ignore it
        (
            "coverage",
            {"model": {**default_config("coverage").model, "rho": 0.3, "p": 6}},
        ),
        (
            "coverage",
            {
                "model": {
                    **default_config("coverage").model,
                    "v_kind": "identity",
                    "rho": 0.5,
                    "p": 6,
                }
            },
        ),
    ],
)
def test_cli_degenerate_config_exit_code(tmp_path, name, over):
    cfg = small(name, replications=1).to_dict()
    cfg.update(over)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli_main([name, "--config", str(path)]) == 2


@pytest.mark.parametrize(
    "field, values",
    [
        ("p", [6.5, 6.0, "6", True]),
        ("nu", [True, "1.5", None, float("nan"), float("inf"), 1e200]),
        ("epsilon", [False, "0.2"]),
        ("rho", [True, "0.7"]),
        ("v_kind", [5, None]),
    ],
)
def test_cli_nested_model_field_exit_code(tmp_path, field, values):
    cfg = small("threshold_eval", replications=1)
    path = tmp_path / "cfg.json"
    for value in values:
        model = {**cfg.model, field: value}
        with pytest.raises(ConfigError):
            dataclasses.replace(cfg, model=model)
        path.write_text(json.dumps({**cfg.to_dict(), "model": model}))
        assert cli_main(["threshold_eval", "--config", str(path)]) == 2


def test_cli_elliptic_t_epsilon_exit_code(tmp_path, capsys):
    # only the contaminated normal reads epsilon: under elliptic_t it would
    # run the same model as without it
    cfg = small("naive_vs_hajek", replications=1)
    model = {**cfg.model, "epsilon": 0.9}
    with pytest.raises(ConfigError, match="elliptic t takes no epsilon"):
        dataclasses.replace(cfg, model=model)
    dataclasses.replace(cfg, model={**cfg.model, "epsilon": None})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**cfg.to_dict(), "model": model}))
    assert cli_main(["naive_vs_hajek", "--config", str(path)]) == 2
    assert "elliptic t takes no epsilon" in capsys.readouterr().err


@pytest.mark.parametrize(
    "model", [5, None, "x", [1, 2]], ids=["int", "null", "string", "array"]
)
def test_cli_model_not_an_object_exit_code(tmp_path, capsys, model):
    cfg = small("coverage", replications=1)
    with pytest.raises(ConfigError, match="^model must be a JSON object$"):
        dataclasses.replace(cfg, model=model)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**cfg.to_dict(), "model": model}))
    assert cli_main(["coverage", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "error: model must be a JSON object\n"


def test_cli_requires_experiment():
    assert cli_main([]) == 2


@pytest.mark.parametrize(
    "error",
    [NotPositiveDefiniteError(0, -1.0), SimplexError("iteration cap")],
    ids=lambda e: type(e).__name__,
)
def test_cli_numeric_failure_exit_code(tmp_path, monkeypatch, error):
    import ustatboot.harness.cli as cli_mod

    cfg_path = _write_cfg(tmp_path, "coverage")

    def boom(cfg):
        raise error

    monkeypatch.setattr(cli_mod, "run_experiment", boom)
    assert cli_main(["coverage", "--config", str(cfg_path)]) == 3


@pytest.mark.parametrize("case", ["no-directory", "directory", "numeric-failure"])
def test_cli_out_is_written_only_after_a_good_run(tmp_path, monkeypatch, capsys, case):
    # an --out that cannot be written is a configuration error found before
    # the run (exit 2); neither exit 2 nor exit 3 leaves a CSV or sidecar
    import ustatboot.harness.cli as cli_mod

    cfg_path = _write_cfg(tmp_path, "coverage")
    out = {
        "no-directory": tmp_path / "missing" / "out.csv",
        "directory": tmp_path / "out.csv",
        "numeric-failure": tmp_path / "out.csv",
    }[case]
    if case == "directory":
        out.mkdir()

    def run(cfg):
        if case != "numeric-failure":
            raise AssertionError("the experiment ran")
        raise FloatingPointError("bootstrap draws must be finite")

    monkeypatch.setattr(cli_mod, "run_experiment", run)
    before = sorted(tmp_path.rglob("*"))
    code = cli_main(["coverage", "--config", str(cfg_path), "--out", str(out)])
    assert code == (3 if case == "numeric-failure" else 2)
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:" if code == 2 else "numeric")
    assert sorted(tmp_path.rglob("*")) == before


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
