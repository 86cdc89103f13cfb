import math
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ustatboot import kernels
from ustatboot.bootstrap import (
    BootstrapDraws,
    DecoupledGEstimates,
    DegenerateBootstrapError,
    _column_blocks,
    bootstrap_halves,
    draw_bootstrap,
    estimate_g_decoupled,
    quantile,
    split_sample,
)
from ustatboot.kernels import CovarianceKernel, KendallKernel
from ustatboot.matstat import vech, vech_pairs
from ustatboot.rngutil import substream
from ustatboot.ustat import RESTRICTIONS, SCALINGS, UStatResult, entry_max


def test_split_sample_disjoint_and_exhaustive():
    data = np.arange(20.0).reshape(10, 2)
    main, train = split_sample(data, 0, 1)
    assert main.shape == train.shape == (5, 2)
    combined = {tuple(r) for r in np.vstack([main, train])}
    assert combined == {tuple(r) for r in data}


def test_split_sample_odd_row_dropped():
    data = np.arange(18.0).reshape(9, 2)
    main, train = split_sample(data, 0)
    assert main.shape == train.shape == (4, 2)


def test_split_sample_deterministic():
    data = np.random.default_rng(0).standard_normal((12, 3))
    a = split_sample(data, 7, 1)
    b = split_sample(data, 7, 1)
    np.testing.assert_array_equal(a[0], b[0])
    c = split_sample(data, 7, 2)
    assert not np.array_equal(a[0], c[0])


def test_bootstrap_halves_without_a_key_uses_key_zero():
    # the split takes the key and the draws its last entry plus one; no key
    # means (0,), as for the sup-norm tests
    data = np.random.default_rng(0).standard_normal((12, 3))
    u, draws = bootstrap_halves(data, CovarianceKernel(), 10, "raw", "all", 7)
    u0, draws0 = bootstrap_halves(data, CovarianceKernel(), 10, "raw", "all", 7, 0)
    assert np.array_equal(u.u, u0.u)
    assert np.array_equal(draws.values, draws0.values)


def test_estimate_g_decoupled_formula():
    rng = np.random.default_rng(1)
    main = rng.standard_normal((6, 3))
    train = rng.standard_normal((6, 3))
    kernel = CovarianceKernel()
    g = estimate_g_decoupled(main, train, kernel)
    n = train.shape[0]
    u_train = kernel.u_stat(train)
    for i in range(main.shape[0]):
        cross = np.mean([kernel(main[i], y) for y in train], axis=0)
        np.testing.assert_allclose(g.g_hat[i], vech(cross - u_train), atol=1e-12)
    np.testing.assert_allclose(g.train_u, u_train, atol=1e-12)
    assert g.n == 6 and g.p == 3


@pytest.mark.parametrize("kernel", [CovarianceKernel(), KendallKernel()])
def test_estimate_g_decoupled_is_cross_mean_minus_u_stat(kernel):
    rng = np.random.default_rng(5)
    main = rng.standard_normal((30, 4))
    train = rng.standard_normal((30, 4))
    g = estimate_g_decoupled(main, train, kernel)
    np.testing.assert_array_equal(
        g.g_hat, kernel.cross_mean(main, train) - vech(kernel.u_stat(train))
    )
    np.testing.assert_array_equal(g.train_u, kernel.u_stat(train))


def test_estimate_g_shape_mismatch():
    with pytest.raises(ValueError):
        estimate_g_decoupled(np.zeros((4, 2)), np.zeros((5, 2)), CovarianceKernel())


def _toy_g():
    rng = np.random.default_rng(2)
    main = rng.standard_normal((8, 3))
    train = rng.standard_normal((8, 3))
    return estimate_g_decoupled(main, train, KendallKernel())


def _gamma(m, unit):
    """Higham's gamma_m = m u / (1 - m u) for unit roundoff u."""
    return m * unit / (1.0 - m * unit)


def _f32_atol(e, mag, scale, rounds=2, reference=None):
    """Bound on |draw - float64 reference| for draws whose block products run
    in float32.  ``rounds`` counts the float32 roundings in each product's
    operands, relative to the magnitudes ``mag`` (|ghat| or larger): that
    of the multiplier e_di and those of the block entry (after an exact
    power-of-two scale).  A float32 sum of n such products errs by at most
    gamma_{n+rounds} sum_i |e_di| mag_ic (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., sec. 3.1), in any summation order; a
    maximum moves by at most its largest entry's error.  The reference's own
    float64 sum errs by at most ``reference`` (by default gamma_n at 2^-53)
    of the same sum, and both sides' 2/n or 1/sqrt(n) ``scale`` a few
    float64 ulps."""
    n = e.shape[1]
    if reference is None:
        reference = _gamma(n, 2.0**-53)
    worst = scale * (np.abs(e) @ np.abs(mag)).max()
    return worst * (_gamma(n + rounds, 2.0**-24) + reference) + 8 * np.spacing(worst)


def _magnitudes(g):
    """(mag, rounds, reference) of ``_f32_atol`` for the float32 blocks of
    g.  A materialized ghat: |ghat|, the roundings of e_di and of the entry,
    and the reference's float64 sum.  Covariance estimates:
    |d_j d_k| / 2 + |C / 2 - U|, the roundings of e_di, d_j, d_k (its half
    is exact), their product and the add of C / 2 - U, itself rounded once;
    the reference's float64 ghat also rounds the product, C / 2 - U and the
    sum's terms, 3 gamma_{n+5} at 2^-53 of the sum, 3 bounding
    (|C / 2| + |U|) / |C / 2 - U|."""
    if isinstance(g, kernels._CovarianceEstimates):
        d_t, half_c = g._factors
        j, k = vech_pairs(g.p)
        mag = np.abs(d_t[j] * d_t[k]).T / 2.0 + np.abs(half_c - vech(g.train_u))
        return mag, 5, 3 * _gamma(g.n + 5, 2.0**-53)
    return np.abs(g.g_hat), 2, None


def _draws_atol(g, b, scaling, seed, *key):
    """``_f32_atol`` for the b draws of g on the substream (seed, *key)."""
    e = substream(seed, *key).standard_normal((b, g.n))
    scale = 1.0 / math.sqrt(g.n) if scaling == "raw" else 2.0 / g.n
    mag, rounds, reference = _magnitudes(g)
    return _f32_atol(e, mag, scale, rounds, reference)


def test_draw_bootstrap_deterministic_and_sorted():
    g = _toy_g()
    a = draw_bootstrap(g, 50, "applications", "all", 3, 1)
    b = draw_bootstrap(g, 50, "applications", "all", 3, 1)
    np.testing.assert_array_equal(a.values, b.values)
    assert np.all(np.diff(a.values) >= 0)
    assert a.b == 50


def test_draw_bootstrap_prefix_property():
    # draw d only depends on (seed, key, n, d): a longer run extends a shorter one
    g = _toy_g()
    short = draw_bootstrap(g, 20, "raw", "all", 5, 9)
    long = draw_bootstrap(g, 40, "raw", "all", 5, 9)
    assert set(np.round(short.values, 12)).issubset(set(np.round(long.values, 12)))


def test_draw_bootstrap_matches_manual_computation():
    g = _toy_g()
    draws = draw_bootstrap(g, 5, "applications", "all", 11)
    flat = g.g_hat
    n = g.n
    e = substream(11).standard_normal((5, n))  # row d is draw d
    manual = [2.0 * np.max(np.abs(e[d] @ flat)) / n for d in range(5)]
    np.testing.assert_allclose(
        draws.values, np.sort(manual), rtol=0, atol=_f32_atol(e, flat, 2.0 / n)
    )


def test_draw_bootstrap_raw_scaling_is_signed_max():
    g = _toy_g()
    draws = draw_bootstrap(g, 5, "raw", "all", 13)
    flat = g.g_hat
    e = substream(13).standard_normal((5, g.n))
    manual = [np.max(e[d] @ flat) / math.sqrt(g.n) for d in range(5)]
    np.testing.assert_allclose(
        draws.values, np.sort(manual), rtol=0, atol=_f32_atol(e, flat, 1 / math.sqrt(g.n))
    )


def _draw_loop(g, b, scaling, restriction, seed, *key):
    """Per-draw reference: row d of the one substream (seed, *key) and one
    mat-vec per draw."""
    flat = g.g_hat
    if restriction == "offdiag":
        rows, cols = vech_pairs(g.p)
        flat = flat[:, rows != cols]
    e = substream(seed, *key).standard_normal((b, g.n))
    values = []
    for d in range(b):
        s = e[d] @ flat
        if scaling == "raw":
            values.append(np.max(s) / math.sqrt(g.n))
        else:
            values.append(2.0 * np.max(np.abs(s)) / g.n)
    return np.sort(values)


@pytest.mark.parametrize("kernel", [CovarianceKernel(), KendallKernel()])
@pytest.mark.parametrize("b", [1, 7, 200])
@pytest.mark.parametrize("scaling", ["raw", "applications"])
@pytest.mark.parametrize("restriction", ["all", "offdiag"])
def test_draw_bootstrap_matches_per_draw_loop(kernel, b, scaling, restriction):
    rng = np.random.default_rng(6)
    g = estimate_g_decoupled(
        rng.standard_normal((40, 5)), rng.standard_normal((40, 5)), kernel
    )
    draws = draw_bootstrap(g, b, scaling, restriction, 17, 3, 2)
    np.testing.assert_allclose(
        draws.values,
        _draw_loop(g, b, scaling, restriction, 17, 3, 2),
        rtol=0,
        atol=_draws_atol(g, b, scaling, 17, 3, 2),
    )


@pytest.mark.parametrize("seed", [0, 42, np.int64(99), np.int64(5)])
@pytest.mark.parametrize("key", [(), (1,), (2, 0, 7)])
@pytest.mark.parametrize("rows", [1, 6])
def test_draw_bootstrap_rows_are_one_substream(seed, key, rows):
    # a numpy integer seed is keyed like the int of its value
    g = _toy_g()
    e = substream(int(seed), *key).standard_normal((rows, g.n))
    expected = np.sort(np.max(e @ g.g_hat, axis=1)) / math.sqrt(g.n)
    got = draw_bootstrap(g, rows, "raw", "all", seed, *key)
    atol = _f32_atol(e, g.g_hat, 1 / math.sqrt(g.n))
    np.testing.assert_allclose(got.values, expected, rtol=0, atol=atol)


@pytest.mark.parametrize("seed", [1.5, np.float64(2.0), "3", None, True], ids=repr)
def test_split_and_draws_reject_a_non_integer_seed(seed):
    data = np.random.default_rng(0).standard_normal((10, 3))
    with pytest.raises(TypeError):
        split_sample(data, seed, 1)
    with pytest.raises(TypeError):
        draw_bootstrap(_toy_g(), 3, "raw", "all", seed, 1)


@pytest.mark.parametrize("entry", ["2", True], ids=repr)
def test_split_and_draws_reject_a_non_integer_key_entry(entry):
    data = np.random.default_rng(0).standard_normal((10, 3))
    with pytest.raises(TypeError):
        split_sample(data, 1, entry)
    with pytest.raises(TypeError):
        draw_bootstrap(_toy_g(), 3, "raw", "all", 1, 0, entry)


def test_split_sample_takes_a_numpy_integer_seed_as_its_int():
    # draw_bootstrap's numpy seeds are in test_draw_bootstrap_rows_are_one_substream
    data = np.random.default_rng(0).standard_normal((10, 3))
    for got, want in zip(split_sample(data, np.int64(7), 1), split_sample(data, 7, 1)):
        np.testing.assert_array_equal(got, want)


def test_scalings_and_restrictions_share_multiplier_rows():
    # every column of g_hat has its negation among the off-diagonal columns
    # and the diagonal columns repeat off-diagonal ones, so on shared
    # multiplier rows all four statistics are one sup |e_d^T ghat| at their
    # own scale
    n, p = 30, 4
    half = np.random.default_rng(9).standard_normal((n, 3))
    g_hat = np.empty((n, p * (p + 1) // 2))
    diag = vech(np.eye(p)) == 1.0
    g_hat[:, ~diag] = np.hstack([half, -half])
    g_hat[:, diag] = np.hstack([half[:, :2], -half[:, :2]])
    g = DecoupledGEstimates(g_hat=g_hat, train_u=np.zeros((p, p)))
    sup = {
        (scaling, restriction): draw_bootstrap(g, 50, scaling, restriction, 21, 8).values
        for scaling in ("raw", "applications")
        for restriction in ("all", "offdiag")
    }
    for restriction in ("all", "offdiag"):
        np.testing.assert_allclose(
            sup["raw", restriction] * math.sqrt(n),
            sup["applications", restriction] * n / 2.0,
            rtol=1e-12,
        )
    np.testing.assert_allclose(sup["raw", "offdiag"], sup["raw", "all"], rtol=1e-12)


def test_covariance_bootstrap_builds_no_dense_g_tensor():
    # one (n, p, p) float64 array is 32 MB at n = 100, p = 200; the
    # half-vectorized g_hat alone is about 16 MB
    n, p = 100, 200
    rng = np.random.default_rng(8)
    main, train = rng.standard_normal((2, n, p))
    tracemalloc.start()
    try:
        g = estimate_g_decoupled(main, train, CovarianceKernel())
        draw_bootstrap(g, 10, "applications", "all", 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * p * p * 8, peak


@pytest.mark.parametrize("scaling", ["raw", "applications"])
def test_offdiag_draws_copy_nothing(scaling):
    # offdiag masks the (b, m) draw product in place; a copy of g_hat's
    # off-diagonal columns would add about n m doubles to the peak
    n, p, b = 100, 60, 100
    rng = np.random.default_rng(8)
    g = estimate_g_decoupled(*rng.standard_normal((2, n, p)), CovarianceKernel())
    peaks = {}
    for restriction in ("all", "offdiag"):
        tracemalloc.start()
        try:
            draw_bootstrap(g, b, scaling, restriction, 4)
            peaks[restriction] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["offdiag"] <= peaks["all"] + 4096, peaks


def test_decoupled_estimates_reject_a_dense_g_hat():
    with pytest.raises(ValueError, match="p\\(p\\+1\\)/2"):
        DecoupledGEstimates(g_hat=np.zeros((4, 3, 3)), train_u=np.zeros((3, 3)))
    with pytest.raises(ValueError):
        DecoupledGEstimates(g_hat=np.zeros((4, 5)), train_u=np.zeros((3, 3)))


def test_draw_bootstrap_offdiag_ignores_diagonal():
    # inflate diagonal entries of g_hat: offdiag draws must not change; at
    # p = 300 the diagonal positions fall in many vech column blocks
    wide = estimate_g_decoupled(
        *np.random.default_rng(2).standard_normal((2, 8, 300)), KendallKernel()
    )
    for g in (_toy_g(), wide):
        base = draw_bootstrap(g, 20, "applications", "offdiag", 7)
        g2_hat = g.g_hat.copy()
        g2_hat[:, vech(np.eye(g.p)) == 1.0] += 100.0
        g2 = DecoupledGEstimates(g_hat=g2_hat, train_u=g.train_u)
        bumped = draw_bootstrap(g2, 20, "applications", "offdiag", 7)
        np.testing.assert_array_equal(base.values, bumped.values)
        assert draw_bootstrap(g2, 20, "applications", "all", 7).values[-1] > base.values[-1]


def _unblocked_draws(g, b, scaling, restriction, seed, *key):
    """Reference: the whole (b, p(p+1)/2) product e @ g_hat, one
    ``entry_max`` over it, then the scaling."""
    e = substream(seed, *key).standard_normal((b, g.n))
    j, k = vech_pairs(g.p)
    values = entry_max(e @ g.g_hat, j == k, scaling, restriction)
    values = values / math.sqrt(g.n) if scaling == "raw" else 2.0 * values / g.n
    return np.sort(values)


@pytest.mark.parametrize("kernel", [CovarianceKernel(), KendallKernel()])
@pytest.mark.parametrize("p", [1, 2, 5, 40, 300])
def test_blocked_draws_match_the_unblocked_product(kernel, p):
    # 41 rows split into two halves of 20; at p = 300 the vech order is cut
    # into many column blocks
    data = np.random.default_rng(p).standard_normal((41, p)) + 3.0
    g = estimate_g_decoupled(*split_sample(data, 3, 1), kernel)
    if isinstance(kernel, KendallKernel) and p == 1:
        # h = sign(x1 - x2)^2 + 1 = 2 on untied pairs, so g_hat is 0
        with pytest.raises(DegenerateBootstrapError):
            draw_bootstrap(g, 30, "raw", "all", 3, 2)
        return
    for scaling in SCALINGS:
        for restriction in RESTRICTIONS[: 1 if p == 1 else 2]:
            got = draw_bootstrap(g, 30, scaling, restriction, 3, 2).values
            want = _unblocked_draws(g, 30, scaling, restriction, 3, 2)
            atol = _draws_atol(g, 30, scaling, 3, 2)
            np.testing.assert_allclose(got, want, rtol=0, atol=atol)


@pytest.mark.parametrize("n, p", [(200, 40), (1000, 20), (21, 300), (50, 3)])
def test_covariance_draws_equal_the_materialized_draws(n, p):
    # the covariance draws fill float32 blocks from factors rounded once;
    # those blocks times their power of two, materialized as a float64 ghat
    # in the same layout, give the same bits through the default cast, at
    # (21, 300) across many column blocks
    data = np.random.default_rng(n + p).standard_normal((2, n, p)) + 3.0
    g = estimate_g_decoupled(*data, CovarianceKernel())
    rounded = [
        np.ldexp(x.T, k, dtype=np.float64)
        for x, k in g._float32_blocks(_column_blocks(p, g.n))
    ]
    materialized = DecoupledGEstimates(np.concatenate(rounded).T, g.train_u)
    for scaling in SCALINGS:
        for restriction in RESTRICTIONS:
            np.testing.assert_array_equal(
                draw_bootstrap(g, 200, scaling, restriction, 4, 1).values,
                draw_bootstrap(materialized, 200, scaling, restriction, 4, 1).values,
            )


@pytest.mark.parametrize("n, p", [(200, 40), (1000, 20), (21, 300)])
@pytest.mark.parametrize("mixed", [False, True], ids=["unit", "mixed"])
def test_covariance_draws_hold_the_float32_bound(n, p, mixed):
    # against draws from the float64 ghat, within the bound of the factors'
    # float32 fill; mixed scales every other column by 2^40 and the rest by
    # 2^-40, so one exponent serves entries 2^160 apart and the small
    # columns' products fall below float32's range
    data = np.random.default_rng(n * p).standard_normal((2 * n + 1, p)) + 3.0
    if mixed:
        data = np.ldexp(data, np.where(np.arange(p) % 2 == 0, 40, -40))
    g = estimate_g_decoupled(*split_sample(data, 5, 1), CovarianceKernel())
    for scaling in SCALINGS:
        for restriction in RESTRICTIONS:
            got = draw_bootstrap(g, 200, scaling, restriction, 6, 2).values
            want = _unblocked_draws(g, 200, scaling, restriction, 6, 2)
            atol = _draws_atol(g, 200, scaling, 6, 2)
            assert atol < 1e-2 * np.abs(want).max()
            np.testing.assert_allclose(got, want, rtol=0, atol=atol)


@pytest.mark.parametrize("kernel", [CovarianceKernel(), KendallKernel()])
@pytest.mark.parametrize("k", [-80, -40, 40, 80])
def test_draws_are_exactly_scale_equivariant(kernel, k):
    # data times 2^k scale covariance ghat by 4^k and leave Kendall's, a
    # function of ranks, as it is; powers of two commute with every rounding,
    # so the draws scale the same way bit for bit, even where 4^k ghat lies
    # outside float32's range (2^-160 and 2^160 at k = -80 and 80)
    data = np.random.default_rng(11).standard_normal((2, 60, 5)) + 3.0
    factor = 4.0**k if isinstance(kernel, CovarianceKernel) else 1.0
    g = estimate_g_decoupled(*data, kernel)
    g_scaled = estimate_g_decoupled(*np.ldexp(data, k), kernel)
    for scaling in SCALINGS:
        for restriction in RESTRICTIONS:
            want = draw_bootstrap(g, 50, scaling, restriction, 5, 1).values
            got = draw_bootstrap(g_scaled, 50, scaling, restriction, 5, 1).values
            np.testing.assert_array_equal(got, want * factor)


def test_covariance_bootstrap_peak_memory_is_blocked():
    # unblocked, g_hat (n, p(p+1)/2) and the (B, p(p+1)/2) product are 64 MB
    # and 128 MB at n = 100, p = 400, B = 200
    n, p, b = 100, 400, 200
    main, train = np.random.default_rng(8).standard_normal((2, n, p))
    tracemalloc.start()
    try:
        g = estimate_g_decoupled(main, train, CovarianceKernel())
        draw_bootstrap(g, b, "applications", "offdiag", 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20, peak


def _pooled_arrays():
    return list(vars(kernels._pool).values())


@pytest.mark.parametrize("kernel", [CovarianceKernel(), KendallKernel()])
def test_draws_never_alias_the_pool(kernel):
    # the second draw of the same shapes reuses every work array of the
    # first, so an escaping view of one would change under the caller
    rng = np.random.default_rng(5)
    data = rng.standard_normal((2, 60, 6))
    first_g = estimate_g_decoupled(*data, kernel)
    first = draw_bootstrap(first_g, 40, "applications", "offdiag", 1)
    kept, kept_g = first.values.copy(), first_g.g_hat.copy()
    second_g = estimate_g_decoupled(*data + 1.0, kernel)
    second = draw_bootstrap(second_g, 40, "applications", "offdiag", 2)
    np.testing.assert_array_equal(first.values, kept)
    np.testing.assert_array_equal(first_g.g_hat, kept_g)
    pooled = _pooled_arrays()
    assert len(pooled) >= 3
    for out in (first.values, second.values, first_g.g_hat, second_g.g_hat):
        assert not any(np.shares_memory(out, a) for a in pooled)


def test_repeated_covariance_draw_allocates_no_work_arrays():
    # at n = 1000, B = 200 the float32 multipliers are 0.8 MB and their
    # float64 chunk of rows 128 KB; a second draw of the same shapes takes
    # them, the float32 block buffer and the product buffer from the pool
    n, p, b = 1000, 20, 200
    g = estimate_g_decoupled(
        *np.random.default_rng(3).standard_normal((2, n, p)), CovarianceKernel()
    )
    first = draw_bootstrap(g, b, "applications", "offdiag", 4)
    tracemalloc.start()
    try:
        second = draw_bootstrap(g, b, "applications", "offdiag", 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(first.values, second.values)
    assert peak < 2**19, peak


def test_concurrent_draws_match_serial_draws():
    # more threads than cores, each with its own key, estimating and drawing
    # at once; every thread's pool is its own, so each result is its serial
    # draw bit for bit
    data = np.random.default_rng(9).standard_normal((120, 8))
    jobs = [CovarianceKernel(), KendallKernel()] * 3

    def run(key):
        u, draws = bootstrap_halves(data, jobs[key], 50, "raw", "offdiag", 6, key, 0)
        return u.u.tobytes(), draws.values.tobytes()

    serial = [run(key) for key in range(len(jobs))]
    results = [[] for _ in jobs]

    def worker(key):
        for _ in range(5):
            results[key].append(run(key))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(jobs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for want, got in zip(serial, results):
        assert got == [want] * 5


def test_pool_keeps_nothing_above_its_cap():
    # (B, n) float32 multipliers of 8.8 MB exceed the cap: they are
    # allocated for this draw and dropped
    n, b = 1000, 2200
    assert b * n * 4 > kernels._POOL_BYTES
    g = estimate_g_decoupled(
        *np.random.default_rng(1).standard_normal((2, n, 2)), CovarianceKernel()
    )
    big = draw_bootstrap(g, b, "applications", "all", 2)
    assert all(a.nbytes <= kernels._POOL_BYTES for a in _pooled_arrays())
    want = _unblocked_draws(g, b, "applications", "all", 2)
    atol = _draws_atol(g, b, "applications", 2)
    np.testing.assert_allclose(big.values, want, rtol=0, atol=atol)


def test_draw_bootstrap_rejects_bad_args():
    g = _toy_g()
    with pytest.raises(ValueError, match="b must be >= 1"):
        draw_bootstrap(g, 0)
    for b in (2.5, True, np.float64(3.0)):
        with pytest.raises(TypeError, match="b must be an integer"):
            draw_bootstrap(g, b)
    with pytest.raises(ValueError):
        draw_bootstrap(g, 5, "weird")
    with pytest.raises(ValueError):
        draw_bootstrap(g, 5, "raw", "upper")


# U - target and n for each hand case; sqrt(n)/2 is 2 and 1.5, so every
# expected value below is exact
_DIFF_2 = np.array([[-4.0, -3.0], [-3.0, 2.5]])
_DIFF_3 = np.array([[3.0, 0.5, -2.0], [0.5, -5.0, 1.5], [-2.0, 1.5, 0.25]])


@pytest.mark.parametrize(
    "diff, n, expected",
    [
        (_DIFF_2, 16, {("raw", "all"): 5.0, ("raw", "offdiag"): -6.0,
                       ("applications", "all"): 4.0, ("applications", "offdiag"): 3.0}),
        (_DIFF_3, 9, {("raw", "all"): 4.5, ("raw", "offdiag"): 2.25,
                      ("applications", "all"): 5.0, ("applications", "offdiag"): 2.0}),
    ],
)
def test_draws_statistic_is_the_maximum_they_approximate(diff, n, expected):
    p = diff.shape[0]
    target = 0.5 + np.eye(p)  # U - target is exactly diff
    u = UStatResult(u=target + diff, n=n)
    g_hat = np.random.default_rng(5).standard_normal((6, p, p))
    g = DecoupledGEstimates(g_hat=vech(g_hat + g_hat.transpose(0, 2, 1)), train_u=np.zeros((p, p)))
    for (scaling, restriction), value in expected.items():
        draws = draw_bootstrap(g, 3, scaling, restriction)
        assert draws.statistic(u, target) == value, (scaling, restriction)


def test_draws_statistic_rejects_what_draw_bootstrap_rejects():
    g = DecoupledGEstimates(g_hat=np.ones((4, 1)), train_u=np.zeros((1, 1)))
    u = UStatResult(u=np.array([[3.0]]), n=4)
    # no off-diagonal entry at p = 1
    with pytest.raises(ValueError, match="p >= 2"):
        BootstrapDraws(np.zeros(1), "applications", "offdiag").statistic(u, np.zeros((1, 1)))
    with pytest.raises(ValueError, match="p >= 2"):
        draw_bootstrap(g, 2, "applications", "offdiag")
    for scaling, restriction in (("weird", "all"), ("raw", "upper")):
        with pytest.raises(ValueError) as from_draws:
            draw_bootstrap(g, 2, scaling, restriction)
        with pytest.raises(ValueError) as from_statistic:
            BootstrapDraws(np.zeros(1), scaling, restriction).statistic(u, np.zeros((1, 1)))
        assert str(from_statistic.value) == str(from_draws.value)


def test_quantile_order_statistic_oracle():
    draws = BootstrapDraws(
        values=np.array([1.0, 2.0, 3.0, 4.0, 5.0]), scaling="raw", restriction="all"
    )
    # ceil(alpha * 5)-th order statistic, 1-based
    assert quantile(draws, 0.05) == 1.0
    assert quantile(draws, 0.2) == 1.0
    assert quantile(draws, 0.21) == 2.0
    assert quantile(draws, 0.5) == 3.0
    assert quantile(draws, 0.95) == 5.0
    # quantile, covers and rejects apply one rule to the level they are given:
    # 1 - 1e-17 rounds to 1, so 1e-17 has no rank on either side
    decisions = (
        lambda a: quantile(draws, a),
        lambda a: draws.covers(3.0, [0.5, a]),
        lambda a: draws.rejects(3.0, [0.5, a]),
    )
    for alpha in (0.0, 1.0, 1e-17):
        for decide in decisions:
            with pytest.raises(ValueError, match="alpha and 1 - alpha must lie in"):
                decide(alpha)


def _levels(i):
    """Level i / 20 written the ways callers compute it."""
    return (i / 20, i * 0.05, 1.0 - (20 - i) / 20, 1.0 - (20 - i) * 0.05)


@pytest.mark.parametrize("b", [1, 7, 20, 99, 200, 1000, 4096])
def test_quantile_index_exact_on_level_grid(b):
    # levels on the 0.05 grid, written the ways callers compute them; the
    # order statistic must be ceil(alpha * b) in exact arithmetic
    draws = BootstrapDraws(
        values=np.arange(1.0, b + 1.0), scaling="raw", restriction="all"
    )
    for i in range(1, 20):
        rank = max(math.ceil(Fraction(i, 20) * b), 1)
        for alpha in _levels(i):
            assert quantile(draws, alpha) == rank, (alpha, b)


def test_draws_reject_non_finite_values():
    # a non-finite draw fails when the draws are built, before any quantile
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(FloatingPointError, match="must be finite"):
            BootstrapDraws(
                values=np.array([1.0, 2.0, bad]), scaling="raw", restriction="all"
            )


@pytest.mark.parametrize("b", [1, 7, 20, 99, 100, 200, 1000])
def test_rank_decisions_match_per_level_quantiles(b):
    # the reference compares the statistic with quantile at each level
    rng = np.random.default_rng(b)
    values = np.sort(rng.integers(0, max(b // 3, 2), size=b).astype(float))
    draws = BootstrapDraws(values=values, scaling="applications", restriction="all")
    alphas = [a for i in range(1, 20) for a in _levels(i)]
    alphas += [0.001, 0.01, 0.07, 0.15, 0.29]
    stats = np.concatenate([values, values - 0.5, values + 0.5, [-1.0, 1e9]])
    for stat in np.unique(stats):
        stat = float(stat)
        covered = [stat <= quantile(draws, a) for a in alphas]
        rejected = [stat >= quantile(draws, 1.0 - a) for a in alphas]
        assert draws.covers(stat, alphas).tolist() == covered, (b, stat)
        assert draws.rejects(stat, alphas).tolist() == rejected, (b, stat)
        assert draws.p_value(stat) == np.count_nonzero(values > stat) / b


def test_rejects_counts_draws_not_p_value_at_one_minus_point_nine():
    # 10 of 100 draws lie above the statistic: the p-value is 0.1, and
    # 0.1 <= 1 - 0.9 = 0.09999999999999998 is false, yet the 90 % quantile
    # is the 90th draw, which the statistic equals, so the test rejects
    draws = BootstrapDraws(
        values=np.arange(1.0, 101.0), scaling="applications", restriction="all"
    )
    alpha = 1.0 - 0.9
    assert draws.p_value(90.0) == 0.1 > alpha
    assert quantile(draws, 1.0 - alpha) == 90.0
    assert draws.rejects(90.0, [alpha]).tolist() == [True]
    assert draws.rejects(89.5, [alpha]).tolist() == [False]


# each decision at -inf and +inf, statistics below and above every draw
_AT_INFINITIES = {
    "covers": ([True], [False]),
    "rejects": ([False], [True]),
    "p_value": (1.0, 0.0),
}


@pytest.mark.parametrize("method", list(_AT_INFINITIES))
def test_nan_statistic_raises(method):
    # searchsorted places NaN past every draw, which read as not covered,
    # rejected and a p-value of 0; +-inf stay valid statistics
    draws = BootstrapDraws(
        values=np.arange(1.0, 21.0), scaling="applications", restriction="all"
    )
    alphas = () if method == "p_value" else ([0.05],)

    def decide(stat):
        got = getattr(draws, method)(stat, *alphas)
        return got if method == "p_value" else got.tolist()

    with pytest.raises(ValueError, match="NaN"):
        decide(float("nan"))
    assert (decide(-np.inf), decide(np.inf)) == _AT_INFINITIES[method]


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
    st.floats(0.01, 0.99),
    st.floats(0.01, 0.99),
)
@settings(max_examples=100, deadline=None)
def test_quantile_monotone_in_alpha(values, a1, a2):
    draws = BootstrapDraws(
        values=np.sort(np.asarray(values)), scaling="raw", restriction="all"
    )
    lo, hi = sorted([a1, a2])
    assert quantile(draws, lo) <= quantile(draws, hi)
