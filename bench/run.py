"""Replication benchmark for ustatboot.

Usage (from the repository root):

    python3 bench/run.py --workload test_size --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

One op is one ``run_experiment`` call with the workload's pinned config and
replication count, seeded from ``--seed`` and the op index.  Ops run back to
back in this process (closed loop, one client, ``workers=1``, one BLAS
thread).  A run holds a fixed number of ops, the workload's nominal op rate
times ``--seconds``, so the same seed always runs the same inputs.  Failed
ops (numeric errors raised by the library, non-finite or out-of-range output)
are counted, never re-seeded.  Output gates pooled over the run decide ``correct``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced ops and reports per-layer self times and counts per
replication, plus the tracing overhead (traced minus untraced throughput).
The last stdout line is the JSON result; a fuller record of each run,
including the environment and a reference timing taken at the start and the
end, is written under ``bench/out/``.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads here and in the set-up probes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import importlib
import json
import math
import pkgutil
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOAD_NAMES = ("test_size", "threshold_eval", "clime_eval_n1000", "naive_vs_hajek")
# fresh interpreters timed for setup_s; the median is reported
SETUP_PROBES = 5
# tail percentile of op time: the highest with ten ops beyond it in a
# 25-second clime_eval_n1000 run (68 ops, the fewest of any workload)
TAIL_PCT = 85
OP_SEED_STRIDE = 1_000_000
# a run stops early past this many seconds of ops, so that it ends within
# three minutes even on a host several times slower than the nominal one
MAX_OPS_S = 150.0


def import_library() -> None:
    """Put ``src`` first on the path and import every ustatboot module."""
    if not (SRC / "ustatboot" / "__init__.py").is_file():
        sys.exit(f"error: library source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import ustatboot

    for info in pkgutil.walk_packages(ustatboot.__path__, "ustatboot."):
        importlib.import_module(info.name)


def layers():
    from tracer import Layer

    def kendall_cross(_self, xs, ys):
        return len(xs) * len(ys) * xs.shape[1] ** 2

    def kendall_u(_self, data):
        n, p = data.shape
        return n * (n - 1) // 2 * p * p

    span = [
        ("harness.run_experiment", "ustatboot.harness.experiments", "run_experiment"),
        ("kernels.CovarianceKernel.cross_mean", "ustatboot.kernels", "CovarianceKernel.cross_mean"),
        ("kernels.CovarianceKernel.u_stat", "ustatboot.kernels", "CovarianceKernel.u_stat"),
        ("bootstrap.split_sample", "ustatboot.bootstrap", "split_sample"),
        ("bootstrap.estimate_g_decoupled", "ustatboot.bootstrap", "estimate_g_decoupled"),
        ("bootstrap.draw_bootstrap", "ustatboot.bootstrap", "draw_bootstrap"),
        ("bootstrap.quantile", "ustatboot.bootstrap", "quantile"),
        ("estimators.solve_clime", "ustatboot.estimators", "solve_clime"),
        ("matstat.spectral_norm", "ustatboot.matstat", "spectral_norm"),
        ("matstat.cholesky", "ustatboot.matstat", "cholesky"),
        ("distributions.sample", "ustatboot.distributions", "sample"),
        ("ustat.compute_u", "ustatboot.ustat", "compute_u"),
        ("ustat.sup_stat", "ustatboot.ustat", "sup_stat"),
        ("gaussian_approx.kolmogorov_distance", "ustatboot.gaussian_approx", "kolmogorov_distance"),
    ]
    return [Layer(*s) for s in span] + [
        Layer("kernels.KendallKernel.cross_mean", "ustatboot.kernels",
              "KendallKernel.cross_mean", work_name="kernels.kendall.pair_terms",
              work=kendall_cross),
        Layer("kernels.KendallKernel.u_stat", "ustatboot.kernels", "KendallKernel.u_stat",
              work_name="kernels.kendall.pair_terms", work=kendall_u),
        Layer("lp.solve_lp", "ustatboot.lp", "solve_lp", outcome=lambda sol: sol.status),
        Layer("rngutil.substream", "ustatboot.rngutil", "substream", span=False),
    ]


# per-layer counters reported besides every span layer's self_ms
LAYER_COUNTS = (
    "kernels.kendall.pair_terms",
    "bootstrap.quantile.calls",
    "rngutil.substream.calls",
    "lp.solve_lp.calls",
    "lp.solve_lp.status.optimal",
    "lp.solve_lp.status.infeasible",
    "lp.solve_lp.status.unbounded",
    "matstat.spectral_norm.errors",
)


def caught_errors() -> tuple[type[BaseException], ...]:
    """Numeric failures an op may raise; they count as failed ops."""
    import numpy as np

    from ustatboot import estimators, matstat

    named = (
        getattr(matstat, "SpectralNormError", None),
        getattr(matstat, "NotPositiveDefiniteError", None),
        getattr(estimators, "ClimeInfeasibleError", None),
        np.linalg.LinAlgError,
    )
    return tuple(e for e in named if e is not None)


# -- environment ------------------------------------------------------------


def reference_timing() -> dict[str, float]:
    """Fixed numpy matmul and pure-Python loop, to show slow host windows."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((300, 300))
    matmul = []
    for _ in range(15):
        t0 = time.perf_counter()
        a @ a
        matmul.append(time.perf_counter() - t0)
    loop = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i
        loop.append(time.perf_counter() - t0)
    return {
        "matmul300_ms": statistics.median(matmul) * 1e3,
        "pyloop200k_ms": statistics.median(loop) * 1e3,
    }


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build,
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


# -- set-up -----------------------------------------------------------------


def setup_probe(workload: str) -> None:
    """Import the library, build the config and model, print the clock."""
    import_library()
    from workloads import WORKLOADS

    WORKLOADS[workload].config.build_model()
    print(time.monotonic_ns())


def measure_setup(workload: str) -> list[float]:
    """Seconds from spawning a fresh interpreter to its being ready for the
    first op.  CLOCK_MONOTONIC is system-wide, so both ends share a clock."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic_ns()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", workload],
            capture_output=True, text=True, timeout=120, check=True,
        )
        ready = int(proc.stdout.strip().splitlines()[-1])
        samples.append((ready - start) / 1e9)
    return samples


# -- op loop ----------------------------------------------------------------


@dataclasses.dataclass
class Op:
    seconds: float
    ok: bool
    traced: bool
    error: str | None


def run_ops(workload, seed: int, n_ops: int, tracer) -> tuple[list[Op], Counter]:
    experiments = sys.modules["ustatboot.harness.experiments"]
    errors = caught_errors()
    ops: list[Op] = []
    acc: Counter = Counter()
    deadline = time.perf_counter() + MAX_OPS_S
    for i in range(n_ops):
        if time.perf_counter() > deadline:
            print(f"# warning: stopped after {i} of {n_ops} ops ({MAX_OPS_S:.0f} s)")
            break
        cfg = dataclasses.replace(workload.config, seed=seed * OP_SEED_STRIDE + i)
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.op_id = i
            tracer.install()
        result, error = None, None
        t0 = time.perf_counter()
        try:
            result = experiments.run_experiment(cfg)
        except errors as exc:
            error = type(exc).__name__
        elapsed = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        if result is not None:
            workload.tally(result, acc, workload.reps_per_op)
            error = workload.check_op(result)
        ops.append(Op(elapsed, error is None, traced, error))
    return ops, acc


def percentile_ms(ops: list[Op], pct: float) -> float:
    """Nearest-rank percentile of op time; failed ops rank as the slowest
    and carry the longest op time of the run."""
    longest = max(op.seconds for op in ops)
    ranked = sorted(op.seconds if op.ok else math.inf for op in ops)
    value = ranked[max(math.ceil(pct / 100 * len(ranked)), 1) - 1]
    return (longest if value == math.inf else value) * 1e3


def throughput(ops: list[Op], reps_per_op: int) -> float:
    """Completed replications per second of op time."""
    total = sum(op.seconds for op in ops)
    return sum(reps_per_op for op in ops if op.ok) / total


def end_to_end_metrics(ops, reps_per_op, setup: list[float]) -> dict:
    attempted = len(ops)
    return {
        "reps_per_s": (throughput(ops, reps_per_op), "1/s"),
        "op_ms.p50": (percentile_ms(ops, 50), "ms"),
        f"op_ms.p{TAIL_PCT}": (percentile_ms(ops, TAIL_PCT), "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": (sum(op.ok for op in ops) / attempted, "fraction"),
    }


def per_layer_metrics(ops, reps_per_op, tracer) -> dict:
    traced = [op for op in ops if op.traced]
    untraced = [op for op in ops if not op.traced]
    reps = len(traced) * reps_per_op
    metrics = {}
    self_ns = tracer.self_ns()
    for name, ns in self_ns.items():
        metrics[name + ".self_ms"] = (ns / reps / 1e6, "ms")
    for name in LAYER_COUNTS:
        metrics[name] = (tracer.counters.get(name, 0) / reps, "count")
    rate_traced = throughput(traced, reps_per_op)
    rate_untraced = throughput(untraced, reps_per_op)
    metrics.update({
        "trace.reps_per_s.traced": (rate_traced, "1/s"),
        "trace.reps_per_s.untraced": (rate_untraced, "1/s"),
        "trace.overhead.reps_per_s": (rate_traced - rate_untraced, "1/s"),
        "trace.op_ms_per_rep": (sum(op.seconds for op in traced) / reps * 1e3, "ms"),
        "trace.untraced_op_ms_per_rep": (
            sum(op.seconds for op in untraced) / (len(untraced) * reps_per_op) * 1e3, "ms"),
        "trace.self_sum_ms_per_rep": (sum(self_ns.values()) / reps / 1e6, "ms"),
    })
    return metrics


# -- runs -------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    setup = [] if trace else measure_setup(name)
    import_library()
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    env = environment()
    ref_start = reference_timing()
    tracer = Tracer(layers()) if trace else None
    ops, acc = run_ops(workload, seed, workload.ops_for(seconds), tracer)
    ref_end = reference_timing()
    if trace and (sum(op.traced for op in ops) == 0 or all(op.traced for op in ops)):
        sys.exit("error: the traced run needs at least one traced and one untraced op")

    gate_ok, gate = workload.verdict(acc)
    if trace:
        metrics = per_layer_metrics(ops, workload.reps_per_op, tracer)
    else:
        metrics = end_to_end_metrics(ops, workload.reps_per_op, setup)
    failures = Counter(op.error for op in ops if not op.ok)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "reps_per_op": workload.reps_per_op,
        "config": workload.config.to_dict(),
        "environment": env,
        "reference_timing": {"start": ref_start, "end": ref_end},
        "setup_s_samples": setup,
        "ops": len(ops),
        "ops_planned": workload.ops_for(seconds),
        "op_seconds": [op.seconds for op in ops],
        "failures": dict(failures),
        "gate": {"passed": gate_ok, **gate},
        "layers_not_found": tracer.missing if trace else [],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    if trace:
        tracer.write(OUT_DIR / f"spans-{name}.json")

    print(f"# {name}: seed {seed}, {len(ops)} ops x {workload.reps_per_op} reps "
          f"in {sum(op.seconds for op in ops):.1f} s, failed {dict(failures)}")
    print("# env " + json.dumps(env))
    print("# reference timing start " + json.dumps(ref_start) + " end " + json.dumps(ref_end))
    print(f"# gate {'PASS' if gate_ok else 'FAIL'} " + json.dumps(gate))
    for key, (value, unit) in metrics.items():
        print(f"{name} {key} = {value:.6g} {unit}")
    return {
        "correct": gate_ok,
        "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
        "metrics": record["metrics"],
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=MAX_OPS_S + 120)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit(f"error: workload {name} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--setup-probe", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "ustatboot" / "__init__.py").is_file():
        sys.exit(f"error: library source not found under {SRC}")
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
