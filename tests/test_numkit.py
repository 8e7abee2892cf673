import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import power_iteration_2norm, taylor_expm
from sgperturb import numkit
from sgperturb.numkit import (
    NumericalRangeError,
    ShapeError,
    SingularMatrixError,
    UnsupportedExponentError,
    eigenvalues,
    expm,
    induced_norm,
    make_rng,
    norm_bounds,
    random_matrix,
    random_vector,
    solve,
    solve_lower_triangular,
    spectral_radius_distance,
    vector_norm,
)


# ---------------------------------------------------------------------------
# expm
# ---------------------------------------------------------------------------

def test_expm_zero_matrix_is_identity():
    assert_allclose(expm(np.zeros((2, 2)), 1.0), np.eye(2), atol=0)


def test_expm_scalar_decay():
    assert_allclose(expm(np.array([[-1.0]]), 1.0),
                    np.array([[0.367879441]]), atol=5e-10)


def test_expm_matches_taylor_oracle():
    rng = make_rng(11)
    A = random_matrix(rng, 5, 5)
    E = expm(A, 0.7)
    ref = taylor_expm(A, 0.7)
    assert np.linalg.norm(E - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("seed", range(6))
def test_expm_semigroup_law(seed):
    rng = make_rng(seed)
    A = random_matrix(rng, 4, 4)
    lhs = expm(A, 0.4) @ expm(A, 0.9)
    rhs = expm(A, 1.3)
    assert np.abs(lhs - rhs).max() <= 1e-9


def test_expm_large_argument_still_accurate():
    A = np.diag([-30.0, 2.0, -1.0]).astype(complex)
    assert_allclose(expm(A, 1.0), np.diag(np.exp(np.diag(A))),
                    rtol=1e-11, atol=1e-13)


def test_expm_rejects_nonsquare_and_overflow():
    with pytest.raises(ShapeError):
        expm(np.zeros((2, 3)))
    with pytest.raises(NumericalRangeError):
        expm(np.array([[1e300]]), 1e10)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_identity_returns_rhs():
    b = np.array([1.0, -2.0, 3.5])
    assert_allclose(solve(np.eye(3), b), b, atol=0)


def test_solve_scalar():
    assert_allclose(solve(np.array([[2.0]]), np.array([4.0])),
                    np.array([2.0]), atol=0)


def test_solve_residual_small():
    rng = make_rng(3)
    A = random_matrix(rng, 6, 6) + 3.0 * np.eye(6)
    b = random_vector(rng, 6)
    x = solve(A, b)
    assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_solve_matrix_rhs_roundtrip():
    rng = make_rng(4)
    A = random_matrix(rng, 5, 5) + 2.5 * np.eye(5)
    B = random_matrix(rng, 5, 3)
    X = solve(A, B)
    assert np.abs(A @ X - B).max() <= 1e-10


def test_solve_singular_raises():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError):
        solve(A, np.array([1.0, 1.0]))


# scipy's LAPACK LU is a test-only oracle: block-boundary sizes of the
# blocked forward substitution, and one large system
NB = numkit._NB
ORACLE_SIZES = [1, 2, NB - 1, NB, NB + 1, 2 * NB + 3, 513]


def pivoting_system(n, seed):
    """Well-conditioned, but only a row permutation puts the large entries
    on the diagonal, so the LU must find it by pivoting."""
    rng = make_rng(seed)
    A = random_matrix(rng, n, n) / np.sqrt(n) + 2.0 * np.eye(n)
    return A[rng.permutation(n)], rng


def relative_error(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_solve_matches_lapack_lu(n):
    A, rng = pivoting_system(n, n)
    lu_piv = scipy.linalg.lu_factor(A)
    b = random_vector(rng, n)
    B = random_matrix(rng, n, 5)
    x = solve(A, b)
    assert x.shape == (n,)
    assert relative_error(x, scipy.linalg.lu_solve(lu_piv, b)) <= 1e-12
    assert relative_error(solve(A, B),
                          scipy.linalg.lu_solve(lu_piv, B)) <= 1e-12


@pytest.mark.parametrize("n", [3, 2 * NB + 3])
def test_solve_singular_zero_column_raises(n):
    A = random_matrix(make_rng(7), n, n)
    A[:, n // 2] = 0.0
    with pytest.raises(SingularMatrixError, match="pivot ratio"):
        solve(A, np.ones(n))


@pytest.mark.parametrize("n", [3, 2 * NB + 3])
def test_solve_singular_after_row_swap_raises(n):
    # A[0, 0] = 0 forces a row swap first; the last column is the sum of the
    # first two, so the rank deficiency shows only in a later pivot
    A = random_matrix(make_rng(8), n, n)
    A[0, 0] = 0.0
    A[:, -1] = A[:, 0] + A[:, 1]
    with pytest.raises(SingularMatrixError, match="pivot ratio"):
        solve(A, np.ones(n))


@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_solve_lower_triangular_matches_lapack(n):
    rng = make_rng(200 + n)
    L = np.tril(random_matrix(rng, n, n)) / np.sqrt(n) + 2.0 * np.eye(n)
    b = random_vector(rng, n)
    B = random_matrix(rng, n, 5)
    for rhs in (b, B):
        ref = scipy.linalg.solve_triangular(L, rhs, lower=True)
        assert relative_error(solve_lower_triangular(L, rhs), ref) <= 1e-12


@pytest.mark.parametrize("n", [7, 2 * NB + 3])
def test_solve_lower_triangular_real_matrix_complex_rhs(n):
    # a real L is solved in place of its complex cast, without the copy
    rng = make_rng(300 + n)
    L = np.tril(rng.standard_normal((n, n))) / np.sqrt(n) + 2.0 * np.eye(n)
    B = random_matrix(rng, n, 3)
    ref = scipy.linalg.solve_triangular(L, B, lower=True)
    X = solve_lower_triangular(L, B)
    assert X.dtype == np.complex128
    assert relative_error(X, ref) <= 1e-12
    assert relative_error(X, solve_lower_triangular(L + 0j, B)) <= 1e-14


@pytest.mark.parametrize("n", [2, 2 * NB + 3])
def test_solve_ill_conditioned_below_the_bound_does_not_raise(n):
    # kappa_2 = 1e12 < 1/(n eps): the QR-diagonal test must let it through,
    # and the LU solve is backward stable
    rng = make_rng(400 + n)
    U = np.linalg.qr(random_matrix(rng, n, n))[0]
    V = np.linalg.qr(random_matrix(rng, n, n))[0]
    s = np.ones(n)
    s[-1] = 1e-12
    A = (U * s) @ V.conj().T
    b = random_vector(rng, n)
    A0, b0 = A.copy(), b.copy()
    x = solve(A, b)
    assert np.array_equal(A, A0) and np.array_equal(b, b0)
    assert (np.linalg.norm(A @ x - b)
            <= 1e-12 * np.linalg.norm(A, 2) * np.linalg.norm(x))


def test_solves_leave_their_inputs_alone():
    A, rng = pivoting_system(2 * NB + 3, 9)
    L = np.tril(A)
    B = random_matrix(rng, A.shape[0], 2)
    A0, L0, B0 = A.copy(), L.copy(), B.copy()
    solve(A, B)
    solve_lower_triangular(L, B)
    assert np.array_equal(A, A0) and np.array_equal(L, L0)
    assert np.array_equal(B, B0)


def test_solve_shape_mismatch():
    with pytest.raises(ShapeError):
        solve(np.eye(3), np.array([1.0, 2.0]))


def test_solve_lower_triangular_matches_lu():
    rng = make_rng(5)
    L = np.tril(random_matrix(rng, 7, 7)) + 2.0 * np.eye(7)
    b = random_vector(rng, 7)
    B = random_matrix(rng, 7, 3)
    x = solve_lower_triangular(L, b)
    assert x.shape == (7,)
    assert np.linalg.norm(x - solve(L, b)) <= 1e-13 * np.linalg.norm(x)
    assert np.abs(L @ solve_lower_triangular(L, B) - B).max() <= 1e-12


def test_solve_lower_triangular_small_pivot_raises():
    L = np.array([[1.0, 0.0], [3.0, 1e-17]])
    with pytest.raises(SingularMatrixError, match="pivot ratio"):
        solve_lower_triangular(L, np.array([1.0, 1.0]))


@pytest.mark.parametrize("row, col", [
    (0, 1),      # triangle of the first diagonal block
    (10, 64),    # first column right of the first band's diagonal block
    (63, 299),   # far corner of the first band's rectangle
    (200, 255),  # last column of a full band's diagonal block
    (298, 299),  # triangle of the last, partial band
])
def test_lower_triangular_check_sees_each_entry_above(row, col):
    L = np.tril(numkit.random_matrix(make_rng(35), 300, 300)) + 300 * np.eye(300)
    solve_lower_triangular(L, np.ones(300))
    L[row, col] = 1e-300
    with pytest.raises(ShapeError, match="lower-triangular"):
        solve_lower_triangular(L, np.ones(300))


def test_as_matrix_rejects_nonfinite_in_either_part():
    for bad in (complex(np.nan, 0.0), complex(0.0, np.inf),
                complex(-np.inf, 1.0)):
        with pytest.raises(NumericalRangeError):
            numkit.as_matrix(np.array([[1.0, bad]]))
        with pytest.raises(NumericalRangeError):
            numkit.as_vector(np.array([1.0, bad]))


def test_solve_lower_triangular_rejects_upper_entries_and_shapes():
    L = np.eye(300, dtype=complex)
    L[257, 258] = 1e-3    # first superdiagonal, in the second row band
    with pytest.raises(ShapeError, match="lower-triangular"):
        solve_lower_triangular(L, np.ones(300))
    with pytest.raises(ShapeError):
        solve_lower_triangular(np.eye(3), np.ones(2))
    with pytest.raises(ShapeError):
        solve_lower_triangular(np.ones((2, 3)), np.ones(2))


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [1, 2, np.inf])
def test_induced_norm_identity(p):
    assert induced_norm(np.eye(4), p) == pytest.approx(1.0, abs=1e-14)


def test_induced_norm_jordan_block():
    assert induced_norm(np.array([[0.0, 1.0], [0.0, 0.0]]), 2) == \
        pytest.approx(1.0, abs=1e-12)


def test_induced_2norm_matches_power_iteration():
    rng = make_rng(9)
    A = random_matrix(rng, 4, 4)
    exact = induced_norm(A, 2)
    assert exact == pytest.approx(power_iteration_2norm(A), rel=1e-8)


@pytest.mark.parametrize("seed", range(5))
def test_induced_2norm_squared_is_top_eigenvalue_of_gram(seed):
    rng = make_rng(seed)
    A = random_matrix(rng, 5, 5)
    top = np.max(eigenvalues(A.conj().T @ A).real)
    assert induced_norm(A, 2) ** 2 == pytest.approx(top, rel=1e-8)


def _conditioned(rng, m, n, cond):
    """m x n matrix with singular values spread geometrically from 1 down
    to 1/cond."""
    U, _ = np.linalg.qr(rng.standard_normal((m, m)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    k = min(m, n)
    return (U[:, :k] * np.geomspace(1.0, 1.0 / cond, k)) @ V[:k]


TWO_NORM_CASES = {
    "real": lambda rng: rng.standard_normal((60, 60)),
    "complex": lambda rng: random_matrix(rng, 60, 60),
    "complex-zero-imag": lambda rng: rng.standard_normal((60, 60)) + 0j,
    "tall": lambda rng: rng.standard_normal((90, 30)),
    "wide": lambda rng: random_matrix(rng, 30, 90),
    "row": lambda rng: random_matrix(rng, 1, 50),
    "column": lambda rng: rng.standard_normal((50, 1)),
    "rank-1": lambda rng: np.outer(random_vector(rng, 40),
                                   random_vector(rng, 25)),
    "cond-1e12": lambda rng: _conditioned(rng, 50, 40, 1e12),
    "zero": lambda rng: np.zeros((7, 5)),
}


@pytest.mark.parametrize("case", TWO_NORM_CASES)
def test_induced_2norm_matches_numpy_svd(case):
    A = TWO_NORM_CASES[case](make_rng(31))
    oracle = np.linalg.svd(A, compute_uv=False)[0]
    assert abs(induced_norm(A, 2) - oracle) <= 1e-13 * oracle


@pytest.mark.parametrize("case", ["real", "tall", "cond-1e12"])
def test_induced_2norm_real_equals_its_complex_cast(case):
    A = TWO_NORM_CASES[case](make_rng(32))
    real = induced_norm(A, 2)
    assert abs(induced_norm(A.astype(np.complex128), 2) - real) <= 1e-14 * real


def test_induced_norm_keeps_weights_on_real_data():
    rng = make_rng(33)
    A = rng.standard_normal((6, 6))
    w = rng.uniform(0.5, 2.0, 6)
    D = np.sqrt(w)
    oracle = np.linalg.svd(D[:, None] * A / D[None, :], compute_uv=False)[0]
    assert abs(induced_norm(A + 0j, 2, weights=w) - oracle) <= 1e-13 * oracle


@pytest.mark.parametrize("case", ["real", "complex", "tall", "rank-1"])
def test_smallest_singular_value_is_the_svd_one(case):
    A = TWO_NORM_CASES[case](make_rng(34))
    oracle = np.linalg.svd(A, compute_uv=False)[-1]
    assert numkit._smallest_singular_value(A) == oracle


def test_smallest_singular_value_resolves_a_tiny_margin():
    # a Gram eigensolve cannot see 1e-9 next to 1; the SVD does
    A = np.diag([1.0, 1e-9])
    assert numkit._smallest_singular_value(A + 0j) == pytest.approx(1e-9,
                                                                    rel=1e-6)


def test_induced_norm_rejects_general_p():
    with pytest.raises(UnsupportedExponentError):
        induced_norm(np.eye(2), 3)


def test_norm_bounds_bracket_2norm_endpoints():
    rng = make_rng(21)
    A = random_matrix(rng, 5, 5)
    lower, upper = norm_bounds(A, 3.0, rng=rng)
    assert 0.0 < lower <= upper
    # exact exponents collapse the bracket
    lo2, up2 = norm_bounds(A, 2.0)
    assert lo2 == up2 == induced_norm(A, 2)


def test_norm_bounds_interpolation_upper_bound():
    rng = make_rng(22)
    A = random_matrix(rng, 4, 4)
    _, upper = norm_bounds(A, 4.0, rng=rng, trials=50)
    assert upper == pytest.approx(
        induced_norm(A, 1) ** 0.25 * induced_norm(A, np.inf) ** 0.75)


def test_vector_norm_weight_and_inf():
    x = np.array([3.0, -4.0])
    assert vector_norm(x, 2) == pytest.approx(5.0)
    assert vector_norm(x, 2, weight=0.25) == pytest.approx(2.5)
    assert vector_norm(x, np.inf) == pytest.approx(4.0)
    with pytest.raises(UnsupportedExponentError):
        vector_norm(x, 0.0)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=1.0, max_value=8.0),
       st.floats(min_value=1.0, max_value=8.0),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_vector_norm_jensen_monotone(r, s, seed):
    # with weight 1/n (a probability measure) p -> ||x||_p is non-decreasing
    lo, hi = sorted((r, s))
    x = random_vector(make_rng(seed), 6)
    n = x.shape[0]
    assert vector_norm(x, lo, weight=1.0 / n) <= \
        vector_norm(x, hi, weight=1.0 / n) * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# eigenvalues
# ---------------------------------------------------------------------------

def test_eigenvalues_diagonal():
    lam = np.sort(eigenvalues(np.diag([1.0, 2.0, 3.0])).real)
    assert_allclose(lam, [1.0, 2.0, 3.0], atol=1e-12)


def test_eigenvalues_rotation():
    lam = eigenvalues(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert_allclose(np.sort(lam.imag), [-1.0, 1.0], atol=1e-12)
    assert np.abs(lam.real).max() <= 1e-12


def test_eigenvalues_trace_identity():
    rng = make_rng(8)
    A = random_matrix(rng, 8, 8)
    assert np.sum(eigenvalues(A)) == pytest.approx(np.trace(A), abs=1e-8)


def test_spectral_radius_distance():
    A = np.diag([0.0, 2.0])
    assert spectral_radius_distance(A, 1.0) == pytest.approx(1.0)
    assert spectral_radius_distance(A, 2.0) == pytest.approx(0.0, abs=1e-14)


# ---------------------------------------------------------------------------
# conversions and randomness
# ---------------------------------------------------------------------------

def test_as_matrix_rejects_nonfinite_and_ragged():
    with pytest.raises(NumericalRangeError):
        numkit.as_matrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(ShapeError):
        numkit.as_matrix(np.zeros(3))


def test_as_matrix_accepts_noncontiguous_views():
    base = numkit.random_matrix(make_rng(5), 6, 6)
    view = base[::2, ::2]
    assert_allclose(numkit.as_matrix(view), view, atol=0)


def test_as_vector_rejects_matrix_input():
    with pytest.raises(ShapeError):
        numkit.as_vector(np.zeros((2, 2)))


def test_make_rng_identical_seed_identical_stream():
    a = random_matrix(make_rng(99), 3, 4)
    b = random_matrix(make_rng(99), 3, 4)
    assert np.array_equal(a, b)


def test_random_entries_within_documented_range():
    M = random_matrix(make_rng(1), 50, 50, scale=1.0)
    assert np.abs(M.real).max() <= 1.0
    assert np.abs(M.imag).max() <= 1.0
