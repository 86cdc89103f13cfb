"""Acceptance suite: ten end-to-end criteria, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report; the whole suite is deterministic (fixed seeds) and serial-safe.
Every test here carries the ``acceptance`` marker, so ``pytest -m "not
acceptance"`` runs the quick unit tests alone.
"""

import dataclasses
import itertools
import time

import numpy as np
import pytest

from ustatboot.bootstrap import draw_bootstrap, estimate_g_decoupled, quantile, split_sample
from ustatboot.distributions import (
    build_v,
    contaminated_normal,
    elliptic_t,
    kurtosis_kappa,
    population_sigma,
    sample,
)
from ustatboot.estimators import solve_clime, solve_dantzig_linfun
from ustatboot.gaussian_approx import analytic_gamma_g_elliptical
from ustatboot.harness.config import default_config
from ustatboot.harness.experiments import (
    run_experiment,
    run_maximal_ineq_scaling,
    run_naive_vs_hajek,
    run_test_size,
    run_threshold_eval,
)
from ustatboot.kernels import CovarianceKernel, KendallKernel
from ustatboot.matstat import vech
from ustatboot.ustat import EmpiricalHoeffding, compute_u

pytestmark = pytest.mark.acceptance


def report(num: int, passed: bool, detail: str) -> None:
    print(f"\ncriterion {num:2d}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {num}: {detail}"


# -- 1: Hoeffding reconstruction and empirical degeneracy --------------------


def test_criterion_01_hoeffding_reconstruction():
    t0 = time.monotonic()
    rng = np.random.default_rng(1001)
    max_recon = 0.0
    max_degen = 0.0
    kernels = [CovarianceKernel(), KendallKernel()]
    for case in range(100):
        n = int(rng.integers(4, 21))
        p = int(rng.integers(1, 6))
        data = rng.standard_normal((n, p))
        kernel = kernels[case % 2]
        dec = EmpiricalHoeffding(data, kernel)
        degen = np.zeros((p, p))
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                f = dec.f_hat(i, j)
                degen += f
                if i < j:
                    recon = f + dec.g_hat[i] + dec.g_hat[j] + dec.h_bar
                    err = np.max(np.abs(recon - kernel(data[i], data[j])))
                    max_recon = max(max_recon, err)
        max_degen = max(max_degen, np.max(np.abs(degen)))
    elapsed = time.monotonic() - t0
    ok = max_recon <= 1e-12 and max_degen <= 1e-10 and elapsed < 10.0
    report(
        1,
        ok,
        f"reconstruction {max_recon:.2e} (<=1e-12), "
        f"degeneracy {max_degen:.2e} (<=1e-10), {elapsed:.1f}s (<10s)",
    )


# -- 2: elliptical moment oracles --------------------------------------------


def test_criterion_02_elliptical_moments():
    t0 = time.monotonic()
    k1 = kurtosis_kappa(contaminated_normal(np.eye(2), epsilon=0.2, nu=1.5))
    k2 = kurtosis_kappa(elliptic_t(np.eye(2), nu=10.0))
    exact = abs(k1 - 0.16) < 1e-14 and abs(k2 - 1.0 / 3.0) < 1e-14

    n = 100_000
    worst = 0.0
    for fam_idx, (v_idx, v_spec) in itertools.product(
        range(2), enumerate([("d1", None), ("ar1", 0.7), ("ar1", 0.3)])
    ):
        v = build_v(v_spec[0], 5, v_spec[1])
        model = (
            contaminated_normal(v, epsilon=0.2, nu=1.5)
            if fam_idx == 0
            else elliptic_t(v, nu=10.0)
        )
        x = sample(model, n, 1002, fam_idx, v_idx)
        sigma = population_sigma(model)
        prods = np.einsum("ij,ik->ijk", x, x)
        emp = prods.mean(axis=0)
        se = prods.std(axis=0, ddof=1) / np.sqrt(n)
        worst = max(worst, float(np.max(np.abs(emp - sigma) / se)))
    elapsed = time.monotonic() - t0
    ok = exact and worst <= 5.0 and elapsed < 60.0
    report(
        2,
        ok,
        f"kappa exact={exact}, worst |emp-sigma|/se = {worst:.2f} (<=5), "
        f"{elapsed:.1f}s (<60s)",
    )


# -- 3: analytic Gamma_g cross-check -----------------------------------------


def test_criterion_03_gamma_g_crosscheck():
    t0 = time.monotonic()
    model = elliptic_t(build_v("d1", 5), nu=8.0)
    sigma = population_sigma(model)
    x = sample(model, 100_000, 1003)
    g = (np.einsum("ij,ik->ijk", x, x) - sigma) / 2.0
    emp = np.cov(vech(g), rowvar=False)
    ana = analytic_gamma_g_elliptical(sigma, kurtosis_kappa(model))
    big = np.abs(ana) > 0.05
    rel = float(np.max(np.abs(emp[big] - ana[big]) / np.abs(ana[big])))
    elapsed = time.monotonic() - t0
    ok = rel <= 0.05 and elapsed < 120.0
    report(3, ok, f"max relative error {rel:.4f} (<=0.05) on {big.sum()} entries, "
                  f"{elapsed:.1f}s (<2min)")


# -- 4: P-P reproduction ------------------------------------------------------


def test_criterion_04_pp_plot():
    cfg = default_config("pp_plot")
    res = run_experiment(cfg)
    dev = res.summary["max_abs_deviation"]
    report(4, dev <= 0.06, f"max |coverage - alpha| = {dev:.4f} (<=0.06), "
                           f"{cfg.replications} reps")


# -- 5: naive vs Hajek ordering ----------------------------------------------


def test_criterion_05_hajek_beats_naive():
    cfg = default_config("naive_vs_hajek")
    res = run_naive_vs_hajek(cfg)
    ks_h = res.summary["ks_t_hajek"]
    ks_n = res.summary["ks_t_naive"]
    margin = res.summary["hajek_margin"]
    report(
        5,
        margin >= 0.02,
        f"KS(T, Hajek) = {ks_h:.4f} < KS(T, naive) = {ks_n:.4f}, "
        f"margin {margin:.4f} (>=0.02)",
    )


# -- 6: test size -------------------------------------------------------------


def test_criterion_06_test_size():
    cfg = default_config("test_size")
    res = run_test_size(cfg)
    target = {round(row[0], 2): (row[1], row[2]) for row in res.rows}[0.05]
    size_cov, size_ken = target
    tol = 0.021  # 3 binomial standard errors at 1000 reps
    ok = abs(size_cov - 0.05) <= tol and abs(size_ken - 0.05) <= tol
    report(
        6,
        ok,
        f"size(cov) = {size_cov:.3f}, size(kendall) = {size_ken:.3f} "
        f"(target 0.05 +- {tol})",
    )


# -- 7: threshold bound mechanics --------------------------------------------


def test_criterion_07_threshold_bounds():
    cfg = default_config("threshold_eval")
    res = run_threshold_eval(cfg)
    violations = res.summary["conditional_bound_violations"]
    event_rate = res.summary["event_rate"]
    floor = 1.0 - cfg.alpha - 0.05
    ok = violations == 0 and event_rate >= floor
    report(
        7,
        ok,
        f"conditional violations = {violations} (==0), "
        f"event rate = {event_rate:.3f} (>= {floor:.2f}) over {cfg.replications} reps",
    )


# -- 8: tau* scaling in n ------------------------------------------------------


def test_criterion_08_tau_star_scaling():
    base = default_config("threshold_eval")
    means = []
    grid = (100, 200, 400)
    for n in grid:
        cfg = dataclasses.replace(base, n=n, replications=100, seed=1008)
        res = run_threshold_eval(cfg)
        means.append(res.summary["mean_tau_star"])
    slope = float(np.polyfit(np.log(grid), np.log(means), 1)[0])
    ok = -0.65 <= slope <= -0.35
    report(8, ok, f"mean tau* = {np.round(means, 4).tolist()} at n = {list(grid)}, "
                  f"log-log slope {slope:.3f} (in [-0.65, -0.35])")


# -- 9: LP correctness ---------------------------------------------------------


def _brute_force_dantzig(s, b, lam):
    """Exact LP optimum by batched basic-solution enumeration of the
    (w+, w-, slack) standard form."""
    p = b.size
    a_ub = np.block([[s, -s], [-s, s]])
    b_ub = np.concatenate([lam + b, lam - b])
    m, n = a_ub.shape
    full = np.hstack([a_ub, np.eye(m)])
    c_full = np.concatenate([np.ones(n), np.zeros(m)])
    combos = np.array(list(itertools.combinations(range(n + m), m)))
    subs = full[:, combos].transpose(1, 0, 2)  # (ncomb, m, m)
    dets = np.linalg.det(subs)
    good = np.abs(dets) > 1e-12
    rhs = np.broadcast_to(b_ub[:, None], (int(good.sum()), m, 1)).copy()
    z = np.linalg.solve(subs[good], rhs)[..., 0]
    feas = np.all(z >= -1e-9, axis=1)
    if not np.any(feas):
        return None
    vals = np.einsum("ij,ij->i", z[feas], c_full[combos[good][feas]])
    return float(np.min(vals))


def test_criterion_09_lp_correctness():
    rng = np.random.default_rng(1009)
    worst = 0.0
    for _ in range(200):
        p = int(rng.integers(1, 5))
        a = rng.standard_normal((p, p))
        s = (a + a.T) / 2 + p * np.eye(p)
        w0 = rng.standard_normal(p)
        lam = float(rng.uniform(0.05, 0.5))
        b = s @ w0 + rng.uniform(-0.9, 0.9, size=p) * lam
        sol = solve_dantzig_linfun(s, b, lam)
        ref = _brute_force_dantzig(s, b, lam)
        assert sol.feasible and ref is not None
        worst = max(worst, abs(sol.l1 - ref))

    sigma = population_sigma(
        contaminated_normal(build_v("ar1", 4, rho=0.5), epsilon=0.2, nu=1.5)
    )
    omega = solve_clime(sigma, 0.0)
    inv_err = float(np.max(np.abs(omega - np.linalg.inv(sigma))))
    ok = worst <= 1e-8 and inv_err <= 1e-8
    report(9, ok, f"max |objective - brute force| = {worst:.2e} (<=1e-8) over 200 "
                  f"instances, CLIME lambda=0 inversion error {inv_err:.2e} (<=1e-8)")


# -- 10: degenerate-remainder scaling ------------------------------------------


def test_criterion_10_canonical_scaling():
    cfg = default_config("maximal_ineq_scaling")
    res = run_maximal_ineq_scaling(cfg)
    slope_can = res.summary["slope_canonical"]
    slope_haj = res.summary["slope_hajek"]
    report(
        10,
        slope_can <= -0.8,
        f"canonical-part slope {slope_can:.3f} (<= -0.8), "
        f"Hajek-part slope {slope_haj:.3f} (reference ~ -0.5)",
    )
