import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    [(1, 1, 1), (5, 3, 4), (_KENDALL_BLOCK + 1, 17, 3), (2 * _KENDALL_BLOCK + 3, 11, 2),
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
    "n, p", [(2, 1), (7, 4), (_KENDALL_BLOCK, 3), (2 * _KENDALL_BLOCK + 3, 3),
             (_KENDALL_BLOCK + 9, 6)]
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
