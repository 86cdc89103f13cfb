"""Benchmark workloads: pinned experiment configs, per-op output checks and
the output gates pooled over a run.

Every config field is spelled out, so a change to ``default_config`` or to a
dataclass default cannot move the benchmark.  One op is one
``run_experiment`` call with ``reps_per_op`` replications.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ustatboot.harness.config import ExperimentConfig
from ustatboot.harness.experiments import ExperimentResult

# level at which every pooled size / event-rate gate is read
GATE_ALPHA = 0.05
# a pooled binomial count fails its gate when either tail probability under
# the nominal rate falls below this (false alarms: about 1 in 10^4 gates)
BINOM_TAIL = 1e-4

_ALPHA_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))


def _config(experiment: str, model: dict[str, Any], **kw: Any) -> ExperimentConfig:
    pinned = dict(
        n=200,
        p=40,
        replications=1,
        bootstrap_b=200,
        alpha_grid=_ALPHA_GRID,
        alpha=GATE_ALPHA,
        beta=1.0,
        seed=0,
        workers=1,
        band_k0=2,
        tau_delta_const=2.0,
        n_grid=(50, 100, 200, 400, 800),
        m_bound=None,
    )
    pinned.update(kw)
    return ExperimentConfig(experiment=experiment, model=model, **pinned)


def _cn_model(v_kind: str, p: int, **kw: Any) -> dict[str, Any]:
    return dict(family="contaminated_normal", epsilon=0.2, nu=1.5, v_kind=v_kind, p=p, **kw)


def binom_tails(k: int, n: int, p: float) -> tuple[float, float]:
    """P(X <= k) and P(X >= k) for X ~ Binomial(n, p)."""
    log_p, log_q, log_nf = math.log(p), math.log1p(-p), math.lgamma(n + 1)
    pmf = [
        math.exp(log_nf - math.lgamma(i + 1) - math.lgamma(n - i + 1) + i * log_p + (n - i) * log_q)
        for i in range(n + 1)
    ]
    return sum(pmf[: k + 1]), sum(pmf[k:])


def _finite(rows: list[list[Any]]) -> np.ndarray | None:
    arr = np.asarray(rows, dtype=float)
    return arr if np.all(np.isfinite(arr)) else None


# -- per-op output checks -----------------------------------------------------
# check_op(result) names the reason an op that returned still failed, or
# gives None for a good op.


def _check_test_size(res: ExperimentResult) -> str | None:
    arr = _finite(res.rows)
    if arr is None:
        return "NonFinite"
    return None if np.all((arr[:, 1:] >= 0.0) & (arr[:, 1:] <= 1.0)) else "OutOfRange"


def _check_threshold(res: ExperimentResult) -> str | None:
    arr = _finite(res.rows)
    if arr is None:
        return "NonFinite"
    binary = np.isin(arr[:, [5, 8]], (0.0, 1.0)).all()
    ok = binary and np.all(arr[:, 1] > 0.0) and np.all(arr[:, 2:8] >= 0.0)
    return None if ok else "OutOfRange"


def _check_clime(res: ExperimentResult) -> str | None:
    arr = _finite(res.rows)
    if arr is None:
        return "NonFinite"
    if not np.all(arr[:, 1:5] >= 0.0):
        return "OutOfRange"
    # lambda* >= 1 makes theta = 0 feasible: the all-zero, degenerate estimate
    return None if np.all(arr[:, 1] < 1.0) else "LambdaStarAtLeastOne"


def _check_nvh(res: ExperimentResult) -> str | None:
    arr = _finite(res.rows)
    ks = [res.summary["ks_t_naive"], res.summary["ks_t_hajek"]]
    if arr is None or not all(math.isfinite(d) for d in ks):
        return "NonFinite"
    in_unit = np.all((arr[:, 1:] >= 0.0) & (arr[:, 1:] <= 1.0))
    return None if in_unit and all(0.0 <= d <= 1.0 for d in ks) else "OutOfRange"


# -- pooled output gates ------------------------------------------------------
# tally(result, acc, reps) folds one returned op into the run's Counter;
# verdict(acc) gives (passed, details).


def _tally_test_size(res: ExperimentResult, acc: Counter, reps: int) -> None:
    row = next(r for r in res.rows if abs(r[0] - GATE_ALPHA) < 1e-12)
    acc["reps"] += reps
    acc["reject_cov"] += round(row[1] * reps)
    acc["reject_kendall"] += round(row[2] * reps)


def _verdict_test_size(acc: Counter) -> tuple[bool, dict]:
    n = acc["reps"]
    details: dict[str, Any] = {"reps": n}
    ok = n > 0
    for test in ("cov", "kendall"):
        k = acc["reject_" + test]
        lo, hi = binom_tails(k, n, GATE_ALPHA) if n else (0.0, 0.0)
        details[f"size_{test}"] = k / n if n else None
        details[f"size_{test}_tails"] = [lo, hi]
        ok = ok and min(lo, hi) >= BINOM_TAIL
    return ok, details


def _tally_threshold(res: ExperimentResult, acc: Counter, reps: int) -> None:
    acc["reps"] += reps
    acc["events"] += round(res.summary["event_rate"] * reps)
    acc["violations"] += res.summary["conditional_bound_violations"]


def _verdict_threshold(acc: Counter) -> tuple[bool, dict]:
    n, k = acc["reps"], acc["events"]
    lower = binom_tails(k, n, 1.0 - GATE_ALPHA)[0] if n else 0.0
    details = {
        "reps": n,
        "event_rate": k / n if n else None,
        "event_rate_lower_tail": lower,
        "conditional_bound_violations": acc["violations"],
    }
    return n > 0 and acc["violations"] == 0 and lower >= BINOM_TAIL, details


def _tally_clime(res: ExperimentResult, acc: Counter, reps: int) -> None:
    lam = [float(r[1]) for r in res.rows]
    acc["reps"] += reps
    acc["feasible"] += round(res.summary["feasible_rate"] * reps)
    acc["lambda_ge_1"] += sum(x >= 1.0 for x in lam)
    acc["lambda_min"] = min([acc.get("lambda_min", math.inf)] + lam)
    acc["lambda_max"] = max([acc.get("lambda_max", -math.inf)] + lam)


def _verdict_clime(acc: Counter) -> tuple[bool, dict]:
    n = acc["reps"]
    details = {
        "reps": n,
        "feasible_rate": acc["feasible"] / n if n else None,
        "lambda_star_range": [acc.get("lambda_min"), acc.get("lambda_max")],
        # replications outside the regime; each fails its op
        "lambda_star_ge_1": acc["lambda_ge_1"],
    }
    return n > 0 and acc["feasible"] == n, details


def _tally_nvh(res: ExperimentResult, acc: Counter, reps: int) -> None:
    ks = [res.summary["ks_t_naive"], res.summary["ks_t_hajek"]]
    acc["reps"] += reps
    acc["ops"] += 1
    acc["ks_bad"] += sum(not (math.isfinite(d) and 0.0 <= d <= 1.0) for d in ks)
    acc["ks_naive_sum"] += ks[0]
    acc["ks_hajek_sum"] += ks[1]


def _verdict_nvh(acc: Counter) -> tuple[bool, dict]:
    ops = acc["ops"]
    details = {
        "reps": acc["reps"],
        "ks_out_of_range": acc["ks_bad"],
        "mean_ks_t_naive": acc["ks_naive_sum"] / ops if ops else None,
        "mean_ks_t_hajek": acc["ks_hajek_sum"] / ops if ops else None,
    }
    return ops > 0 and acc["ks_bad"] == 0, details


@dataclass(frozen=True)
class Workload:
    name: str
    config: ExperimentConfig
    check_op: Callable[[ExperimentResult], str | None]
    tally: Callable[[ExperimentResult, Counter, int], None]
    verdict: Callable[[Counter], tuple[bool, dict]]
    # op rate of the seed code on a shared 2-core x86-64 host, one BLAS thread
    ops_per_s: float

    @property
    def reps_per_op(self) -> int:
        return self.config.replications

    def ops_for(self, seconds: float) -> int:
        """Ops in a run of about ``seconds``.  The count depends on nothing
        but ``seconds``, so a seed always gives the same inputs, and the same
        failed ops, however fast the host runs."""
        return max(1, round(seconds * self.ops_per_s))


# Why each workload is in the benchmark is recorded in BENCHMARK.json.  Ops
# are sized so that a 25-second run holds at least 68 of them (the p85 then
# has ten slower ops) while the per-call summary stays a small share of an
# op: one naive_vs_hajek replication costs about as much as its 99-point CDF
# grid.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="test_size",
            config=_config("test_size", _cn_model("d1", 40), replications=1),
            check_op=_check_test_size,
            tally=_tally_test_size,
            verdict=_verdict_test_size,
            ops_per_s=2.9,
        ),
        Workload(
            name="threshold_eval",
            config=_config(
                "threshold_eval", _cn_model("ar1", 40, rho=0.7), replications=10
            ),
            check_op=_check_threshold,
            tally=_tally_threshold,
            verdict=_verdict_threshold,
            ops_per_s=3.2,
        ),
        Workload(
            name="clime_eval_n1000",
            config=_config(
                "clime_eval", _cn_model("ar1", 20, rho=0.7), n=1000, p=20, replications=1
            ),
            check_op=_check_clime,
            tally=_tally_clime,
            verdict=_verdict_clime,
            ops_per_s=2.7,
        ),
        Workload(
            name="naive_vs_hajek",
            config=_config(
                "naive_vs_hajek",
                dict(family="elliptic_t", nu=8.0, v_kind="d1", p=40),
                replications=100,
            ),
            check_op=_check_nvh,
            tally=_tally_nvh,
            verdict=_verdict_nvh,
            ops_per_s=5.5,
        ),
    )
}
