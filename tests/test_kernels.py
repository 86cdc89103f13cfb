import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ustatboot import kernels
from ustatboot.kernels import (
    CovarianceKernel,
    CustomKernel,
    Kernel,
    KendallKernel,
    _KENDALL_BLOCK,
    check_data,
)
from ustatboot.matstat import unvech, vech


def pair_loop_u_stat(kernel, data):
    return Kernel.u_stat(kernel, data)


def pair_loop_cross_mean(kernel, xs, ys):
    return Kernel.cross_mean(kernel, xs, ys)


@pytest.mark.parametrize("kernel", [CovarianceKernel(), KendallKernel()])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_u_stat_matches_pair_loop(kernel, seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((11, 4))
    np.testing.assert_allclose(
        kernel.u_stat(data), pair_loop_u_stat(kernel, data), atol=1e-12
    )


@pytest.mark.parametrize("kernel", [CovarianceKernel(), KendallKernel()])
@pytest.mark.parametrize("seed", [0, 1])
def test_cross_mean_matches_pair_loop(kernel, seed):
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((7, 3))
    ys = rng.standard_normal((9, 3))
    np.testing.assert_allclose(
        kernel.cross_mean(xs, ys), pair_loop_cross_mean(kernel, xs, ys), atol=1e-12
    )


# ties: False (continuous), True (every column integer-valued), "column" (the
# last column integer-valued among continuous ones) or "shared" (continuous,
# with exactly one value repeated in the first column; see _share_one_value)
_TIES = [False, True, "column", "shared"]


def _kendall_sample(rng, shape, ties):
    if ties is True:
        return rng.integers(0, 3, shape).astype(np.float64)
    data = rng.standard_normal(shape)
    if ties == "column":
        data[:, -1] = rng.integers(0, 3, shape[0])
    return data


def _share_one_value(a, b, ties):
    """For ``ties == "shared"``, make b's last row repeat a's first value in
    column 0, the one tie among otherwise distinct values."""
    if ties == "shared":
        b[-1, 0] = a[0, 0]


@pytest.mark.parametrize("ties", _TIES)
@pytest.mark.parametrize(
    "n_x, n_y, p",
    # fixed sizes past several block edges, then sizes relative to the block
    [(1, 1, 1), (5, 3, 4), (33, 17, 3), (67, 11, 2), (69, 23, 7),
     (_KENDALL_BLOCK + 1, 17, 3), (2 * _KENDALL_BLOCK + 3, 11, 2),
     (2 * _KENDALL_BLOCK + 5, 23, 7)],
)
def test_kendall_cross_mean_equals_pair_loop_exactly(n_x, n_y, p, ties):
    rng = np.random.default_rng(n_x * 100 + n_y)
    xs = _kendall_sample(rng, (n_x, p), ties)
    ys = _kendall_sample(rng, (n_y, p), ties)
    _share_one_value(xs, ys, ties)
    k = KendallKernel()
    np.testing.assert_array_equal(k.cross_mean(xs, ys), pair_loop_cross_mean(k, xs, ys))


@pytest.mark.parametrize("ties", _TIES)
@pytest.mark.parametrize(
    "n, p", [(2, 1), (7, 4), (32, 3), (67, 3), (41, 6), (_KENDALL_BLOCK, 3),
             (2 * _KENDALL_BLOCK + 3, 3), (_KENDALL_BLOCK + 9, 6)]
)
def test_kendall_u_stat_equals_pair_loop_exactly(n, p, ties):
    rng = np.random.default_rng(n)
    data = _kendall_sample(rng, (n, p), ties)
    _share_one_value(data, data, ties)
    k = KendallKernel()
    np.testing.assert_array_equal(k.u_stat(data), pair_loop_u_stat(k, data))


@given(
    st.integers(min_value=2, max_value=3 * _KENDALL_BLOCK),
    st.integers(min_value=1, max_value=5),
    st.booleans(),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=30, deadline=None)
def test_kendall_u_stat_is_off_diagonal_cross_mean(n, p, ties, seed):
    # h(x, x) is the all-ones matrix, so n * cross_mean(data, data) summed
    # over rows, less the n self-pairs, counts every ordered pair i != j:
    # twice the unordered-pair sum behind u_stat
    data = _kendall_sample(np.random.default_rng(seed), (n, p), ties)
    k = KendallKernel()
    counts = unvech(np.rint(k.cross_mean(data, data) * n).sum(axis=0), p) - n
    np.testing.assert_array_equal(k.u_stat(data), counts / (n * (n - 1)))


def test_kendall_u_stat_block_boundary():
    # more rows than one block of sign products holds
    import ustatboot.kernels as kernels_mod

    rng = np.random.default_rng(3)
    data = rng.standard_normal((kernels_mod._KENDALL_BLOCK + 5, 3))
    k = KendallKernel()
    np.testing.assert_allclose(k.u_stat(data), pair_loop_u_stat(k, data), atol=1e-12)


def _dense_ranks(data):
    """Per-column dense ranks, equal values sharing one, as float64."""
    return np.column_stack(
        [np.unique(col, return_inverse=True)[1] for col in data.T]
    ).astype(np.float64)


@pytest.mark.parametrize("ties", _TIES)
@pytest.mark.parametrize(
    "n_x, n_y, p",
    [(1, 1, 1), (_KENDALL_BLOCK + 1, 9, 3), (2 * _KENDALL_BLOCK + 3, 20, 4)],
)
def test_kendall_sees_only_rank_codes(n_x, n_y, p, ties):
    # rank codes (of xs and ys together) and a doubling keep every sign, so
    # both batched operations give the same bits
    rng = np.random.default_rng(n_x + 10 * p)
    xs = _kendall_sample(rng, (n_x, p), ties)
    ys = _kendall_sample(rng, (n_y, p), ties)
    _share_one_value(xs, ys, ties)
    data = np.concatenate((xs, ys))
    codes = _dense_ranks(data)
    k = KendallKernel()
    u, cross = k.u_stat(data), k.cross_mean(xs, ys)
    for x, y in ((codes[:n_x], codes[n_x:]), (2 * xs, 2 * ys)):
        assert k.u_stat(np.concatenate((x, y))).tobytes() == u.tobytes()
        assert k.cross_mean(x, y).tobytes() == cross.tobytes()


def test_kendall_negative_zero_ties_with_zero():
    data = np.array([[-0.0, 1.0], [0.0, 2.0]])
    tie = np.array([[1.0, 1.0], [1.0, 2.0]])  # s = (0, -1)
    k = KendallKernel()
    np.testing.assert_array_equal(k.u_stat(data), tie)
    np.testing.assert_array_equal(k.cross_mean(data[:1], data[1:]), vech(tie)[None])
    np.testing.assert_array_equal(k.u_stat(data), pair_loop_u_stat(k, data))


def test_kendall_cross_mean_past_int16_codes():
    # 2^15 + 2 distinct values per column, xs the least of its column 0 and
    # the greatest of column 1: code differences reach 2^15 + 1
    rng = np.random.default_rng(6)
    ys = rng.standard_normal((2**15 + 1, 2))
    xs = np.array([[ys[:, 0].min() - 1.0, ys[:, 1].max() + 1.0]])
    s = np.sign(xs - ys)
    expected = vech((s.T @ s + ys.shape[0]) / ys.shape[0])
    np.testing.assert_array_equal(KendallKernel().cross_mean(xs, ys), expected[None])


def test_kendall_outputs_never_alias_the_pool():
    # u_stat and cross_mean share their sign work arrays at these shapes, so
    # each later call overwrites what an escaping view of an earlier one saw
    rng = np.random.default_rng(4)
    xs, ys = rng.standard_normal((2, 2 * _KENDALL_BLOCK + 3, 5))
    k = KendallKernel()
    outs = [k.u_stat(xs), k.cross_mean(xs, ys)]
    kept = [out.copy() for out in outs]
    outs += [k.u_stat(ys), k.cross_mean(ys, xs)]
    for out, want in zip(outs, kept):
        np.testing.assert_array_equal(out, want)
    pooled = list(vars(kernels._pool).values())
    assert len(pooled) >= 4
    for out in outs:
        assert not any(np.shares_memory(out, a) for a in pooled)


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=30, deadline=None)
def test_kernel_symmetry(seed):
    rng = np.random.default_rng(seed)
    x1, x2 = rng.standard_normal((2, 5))
    for kernel in (CovarianceKernel(), KendallKernel()):
        h = kernel(x1, x2)
        np.testing.assert_array_equal(h, kernel(x2, x1))
        np.testing.assert_array_equal(h, h.T)


def test_covariance_kernel_value():
    x1 = np.array([1.0, 0.0])
    x2 = np.array([0.0, 2.0])
    np.testing.assert_allclose(
        CovarianceKernel()(x1, x2), np.array([[0.5, -1.0], [-1.0, 2.0]])
    )


@pytest.mark.parametrize("n_x, n_y, p", [(1, 2, 1), (9, 7, 5), (30, 40, 12)])
def test_covariance_cross_mean_is_vech_of_the_dense_formula(n_x, n_y, p):
    # the same products, sums and halving as the dense (d d^T + C) / 2, in
    # the same order, so the half-vectorized rows match it bit for bit
    rng = np.random.default_rng(n_x + p)
    xs = rng.standard_normal((n_x, p)) + 3.0
    ys = rng.standard_normal((n_y, p)) + 3.0
    ybar = ys.mean(axis=0)
    d = xs - ybar
    cy = ys - ybar
    c = (cy.T @ cy) / n_y
    dense = ((d[:, :, None] * d[:, None, :]) + c) / 2
    np.testing.assert_array_equal(CovarianceKernel().cross_mean(xs, ys), vech(dense))


def test_covariance_u_stat_is_sample_covariance():
    rng = np.random.default_rng(4)
    data = rng.standard_normal((20, 3)) + 5.0
    np.testing.assert_allclose(
        CovarianceKernel().u_stat(data), np.cov(data, rowvar=False), atol=1e-12
    )


def test_kendall_entries_and_ties():
    k = KendallKernel()
    h = k(np.array([1.0, 2.0]), np.array([0.0, 3.0]))
    # first coordinate concordant only with itself
    np.testing.assert_array_equal(h, np.array([[2.0, 0.0], [0.0, 2.0]]))
    # a tied coordinate is neither concordant nor discordant: 1 in its row
    # and column, so it adds 0 to tau_a
    h_tie = k(np.array([1.0, 2.0]), np.array([1.0, 0.0]))
    np.testing.assert_array_equal(h_tie, np.array([[1.0, 1.0], [1.0, 2.0]]))


def test_kendall_diagonal_is_two_without_ties():
    rng = np.random.default_rng(5)
    data = rng.standard_normal((15, 4))
    u = KendallKernel().u_stat(data)
    np.testing.assert_allclose(np.diag(u), 2.0)


def test_custom_kernel_checks():
    good = CustomKernel(lambda a, b: np.outer(a, b) + np.outer(b, a))
    h = good(np.ones(2), np.arange(2.0))
    np.testing.assert_array_equal(h, h.T)
    bad_shape = CustomKernel(lambda a, b: np.outer(a, np.ones(3)))
    with pytest.raises(ValueError):
        bad_shape(np.ones(2), np.ones(2))
    asym = CustomKernel(lambda a, b: np.outer(a, b), debug=True)
    with pytest.raises(ValueError):
        asym(np.array([1.0, 0.0]), np.array([0.0, 1.0]))


def test_check_data_validation():
    with pytest.raises(ValueError):
        check_data(np.zeros(5))
    with pytest.raises(ValueError):
        check_data(np.zeros((1, 3)))
    out = check_data([[1, 2], [3, 4]])
    assert out.dtype == np.float64
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            check_data([[1.0, 2.0], [bad, 4.0]])
