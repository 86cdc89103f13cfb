import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ustatboot.matstat import (
    NotPositiveDefiniteError,
    as_sym,
    cholesky,
    frobenius_norm,
    matrix_l1_norm,
    off_sup_norm,
    spectral_norm,
    sup_norm,
    unvech,
    vech,
    vech_index,
    vech_pairs,
)


def random_sym(rng, p):
    a = rng.standard_normal((p, p))
    return (a + a.T) / 2.0


def test_vech_index_enumerates_lower_triangle_by_columns():
    # p = 3: order (1,1),(2,1),(3,1),(2,2),(3,2),(3,3)
    expected = {(1, 1): 0, (2, 1): 1, (3, 1): 2, (2, 2): 3, (3, 2): 4, (3, 3): 5}
    for (j, k), pos in expected.items():
        assert vech_index(j, k, 3) == pos
    with pytest.raises(IndexError):
        vech_index(1, 2, 3)
    with pytest.raises(IndexError):
        vech_index(4, 1, 3)


@pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
def test_vech_pairs_consistent_with_vech_index(p):
    rows, cols = vech_pairs(p)
    assert rows.shape == (p * (p + 1) // 2,)
    for pos, (j, k) in enumerate(zip(rows, cols)):
        assert j >= k
        assert vech_index(j + 1, k + 1, p) == pos


@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=50, deadline=None)
def test_vech_round_trip(p, seed):
    m = random_sym(np.random.default_rng(seed), p)
    v = vech(m)
    assert v.shape == (p * (p + 1) // 2,)
    np.testing.assert_array_equal(unvech(v, p), m)


def test_vech_stacked():
    rng = np.random.default_rng(0)
    stack = np.stack([random_sym(rng, 4) for _ in range(7)])
    v = vech(stack)
    assert v.shape == (7, 10)
    np.testing.assert_array_equal(unvech(v, 4), stack)


def test_norm_oracles():
    m = np.array([[1.0, -4.0], [-4.0, 2.0]])
    assert sup_norm(m) == 4.0
    assert off_sup_norm(m) == 4.0
    assert frobenius_norm(m) == pytest.approx(np.sqrt(1 + 16 + 16 + 4))
    assert matrix_l1_norm(m) == 6.0
    with pytest.raises(ValueError):
        off_sup_norm(np.array([[3.0]]))


def test_spectral_norm_2x2_closed_form():
    # eigenvalues of [[a, b], [b, c]]: ((a+c) +- sqrt((a-c)^2 + 4b^2)) / 2
    a, b, c = 2.0, -1.5, -3.0
    m = np.array([[a, b], [b, c]])
    lam = ((a + c) + np.array([-1.0, 1.0]) * np.hypot(a - c, 2 * b)) / 2.0
    assert spectral_norm(m) == pytest.approx(np.max(np.abs(lam)), rel=1e-8)


def test_spectral_norm_sign_tie_and_null_space():
    # +c and -c both extremal
    m = np.diag([3.0, -3.0, 1.0])
    assert spectral_norm(m) == pytest.approx(3.0, rel=1e-8)
    assert spectral_norm(np.zeros((4, 4))) == 0.0


def test_spectral_norm_near_tied_eigenvalues():
    # |eigenvalues| 0.86203 and 0.86191, as in a threshold_eval error matrix
    # where power iteration did not converge
    q, _ = np.linalg.qr(np.random.default_rng(75).standard_normal((6, 6)))
    m = q @ np.diag([0.86203, -0.86191, 0.5, -0.3, 0.1, 0.0]) @ q.T
    assert spectral_norm(m) == pytest.approx(0.86203, rel=1e-12)


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=40, deadline=None)
def test_spectral_norm_matches_eigvalsh(p, seed):
    m = random_sym(np.random.default_rng(seed), p)
    ref = np.max(np.abs(np.linalg.eigvalsh(m)))
    assert spectral_norm(m) == pytest.approx(ref, rel=1e-6, abs=1e-9)


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=40, deadline=None)
def test_cholesky_matches_numpy(p, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((p, p + 2))
    m = a @ a.T + 0.5 * np.eye(p)
    low = cholesky(m)
    np.testing.assert_allclose(low, np.linalg.cholesky(m), atol=1e-10)
    np.testing.assert_allclose(low @ low.T, m, atol=1e-10)


def test_cholesky_reports_failing_pivot():
    # the factorization fails at pivot 1; only the error type is reported
    for m in (np.diag([1.0, -2.0, 1.0]), np.array([[1.0, np.nan], [np.nan, 1.0]])):
        with pytest.raises(NotPositiveDefiniteError):
            cholesky(m)


def test_as_sym_warns_on_large_asymmetry():
    a = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.warns(UserWarning):
        s = as_sym(a)
    np.testing.assert_allclose(s, np.array([[1.0, 0.25], [0.25, 1.0]]))
    with pytest.raises(ValueError):
        as_sym(np.zeros(3))
