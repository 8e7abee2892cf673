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
    random_matrix,
    random_vector,
    solve,
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


def test_expm_overflow_in_the_squarings_is_a_typed_error():
    # ||tA|| = 1400 needs only 9 squarings, the last of which overflows; the
    # overflow must reach NumericalRangeError, not stop on a RuntimeWarning
    with pytest.raises(NumericalRangeError, match="overflowed"):
        expm(np.array([[700.0]]), 2.0)


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


# scipy's LAPACK LU is a test-only oracle, on sizes from 1 up to one large
# system, around multiples of a 64-row block
NB = 64
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
    B = random_matrix(rng, A.shape[0], 2)
    A0, B0 = A.copy(), B.copy()
    solve(A, B)
    assert np.array_equal(A, A0)
    assert np.array_equal(B, B0)


def test_solve_shape_mismatch():
    with pytest.raises(ShapeError):
        solve(np.eye(3), np.array([1.0, 2.0]))


def test_as_matrix_rejects_nonfinite_in_either_part():
    for bad in (complex(np.nan, 0.0), complex(0.0, np.inf),
                complex(-np.inf, 1.0)):
        with pytest.raises(NumericalRangeError):
            numkit.as_matrix(np.array([[1.0, bad]]))
        with pytest.raises(NumericalRangeError):
            numkit.as_vector(np.array([1.0, bad]))


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


# ---------------------------------------------------------------------------
# Lanczos norms of leading sections
# ---------------------------------------------------------------------------

def dense_products(A):
    return (lambda X: A @ X), (lambda Y: A.conj().T @ Y)


def section_svd(A, sizes):
    return np.array([np.linalg.svd(A[:s, :s], compute_uv=False)[0]
                     for s in sizes])


def _clustered_top(rng):
    # I plus a rank-1 term of relative size 1e-6: the top singular value
    # sits 1e-6 above a 59-fold cluster at 1
    u = rng.standard_normal(60)
    return np.eye(60) + 1e-6 * np.outer(u, u) / (u @ u)


LANCZOS_CASES = {
    "real": lambda rng: rng.standard_normal((60, 60)),
    "complex": lambda rng: random_matrix(rng, 60, 60),
    "rank-deficient": lambda rng: random_matrix(rng, 60, 3)
    @ random_matrix(rng, 3, 60),
    "clustered-top": _clustered_top,
    "lower-toeplitz": lambda rng: scipy.linalg.toeplitz(
        rng.standard_normal(60), np.zeros(60)),
}


@pytest.mark.parametrize("case", LANCZOS_CASES)
def test_lanczos_norms_match_svd_on_every_section(case):
    A = LANCZOS_CASES[case](make_rng(41))
    sizes = (1, 7, 30, 60)
    got = numkit.lanczos_norms(*dense_products(A), sizes)
    oracle = section_svd(A, sizes)
    assert np.all(np.abs(got - oracle) <= 1e-12 * oracle)
    # a compression never exceeds the norm
    assert np.all(got <= oracle * (1.0 + 1e-14))


def test_lanczos_norms_one_by_one_and_zero():
    assert numkit.lanczos_norms(*dense_products(np.array([[-3.0 + 4.0j]])),
                                (1,)) == pytest.approx([5.0], rel=1e-15)
    assert numkit.lanczos_norms(*dense_products(np.zeros((4, 4))),
                                (2, 4)).tolist() == [0.0, 0.0]


def _mixed_sections(rng):
    # complex, with a rank-2 leading 12 x 12 section (its 1 x 1 section
    # too) inside a full-rank 40 x 40 operator
    A = random_matrix(rng, 40, 40)
    A[:12, :12] = random_matrix(rng, 12, 2) @ random_matrix(rng, 2, 12)
    return A


@pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
def test_lanczos_norms_of_complex_rank_deficient_and_1x1_sections(scale):
    # ||A||^2 leaves double range at 1e+-200; the products do not, and the
    # first product's scale keeps the normal operator near 1
    A = scale * _mixed_sections(make_rng(45))
    assert np.linalg.matrix_rank(A[:12, :12] / scale) == 2
    sizes = (1, 12, 40)
    got = numkit.lanczos_norms(*dense_products(A), sizes)
    oracle = section_svd(A, sizes)
    assert oracle[0] == pytest.approx(abs(A[0, 0]), rel=1e-15)
    assert np.all(np.abs(got - oracle) <= 1e-12 * oracle)
    assert np.all(got <= oracle * (1.0 + 1e-14))


def test_lanczos_norms_raise_when_a_product_leaves_double_range():
    # each entry of A v sums four terms near 1e308: the product overflows,
    # and the norm is a typed error, never inf or nan
    A = np.full((4, 4), 1e308)
    with pytest.raises(NumericalRangeError, match="double range"):
        numkit.lanczos_norms(*dense_products(A), (2, 4))

    def nan_adjoint(Y):
        return np.full(Y.shape, np.nan)
    with pytest.raises(NumericalRangeError, match="double range"):
        numkit.lanczos_norms(dense_products(np.eye(3))[0], nan_adjoint, (3,))


def test_lanczos_norms_exact_at_krylov_exhaustion(monkeypatch):
    # the top two singular values are 1e-9 apart, so the residual test
    # cannot stop before the space is exhausted: with the cap at the
    # dimension the result is the exact norm, one step less is an error
    rng = make_rng(42)
    Q1, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    Q2, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    A = Q1 @ np.diag([1.0, 1.0 - 1e-9, 0.5, 0.2]) @ Q2
    monkeypatch.setattr(numkit, "_GKL_MAX_STEPS", 4)
    got = numkit.lanczos_norms(*dense_products(A), (4,))
    assert got[0] == pytest.approx(1.0, rel=1e-14)
    monkeypatch.setattr(numkit, "_GKL_MAX_STEPS", 3)
    with pytest.raises(numkit.ConvergenceError, match=r"sections \[4\]"):
        numkit.lanczos_norms(*dense_products(A), (4,))


def test_lanczos_norms_raise_when_the_cap_is_too_low(monkeypatch):
    A = LANCZOS_CASES["real"](make_rng(43))
    monkeypatch.setattr(numkit, "_GKL_MAX_STEPS", 2)
    with pytest.raises(numkit.ConvergenceError, match="not converged"):
        numkit.lanczos_norms(*dense_products(A), (60,))


def test_lanczos_norms_are_deterministic_and_leave_global_rngs_alone():
    A = LANCZOS_CASES["complex"](make_rng(44))
    state = np.random.get_state()[1].copy()
    first = numkit.lanczos_norms(*dense_products(A), (20, 60))
    assert np.array_equal(first,
                          numkit.lanczos_norms(*dense_products(A), (20, 60)))
    assert np.array_equal(np.random.get_state()[1], state)


def test_lanczos_norms_reject_empty_sections():
    for sizes in ((), (0, 3)):
        with pytest.raises(ShapeError):
            numkit.lanczos_norms(*dense_products(np.eye(3)), sizes)


def test_induced_norm_rejects_general_p():
    with pytest.raises(UnsupportedExponentError):
        induced_norm(np.eye(2), 3)


def test_vector_norm_weight_and_inf():
    x = np.array([3.0, -4.0])
    assert vector_norm(x, 2) == pytest.approx(5.0)
    assert vector_norm(x, 2, weight=0.25) == pytest.approx(2.5)
    assert vector_norm(x, np.inf) == pytest.approx(4.0)
    with pytest.raises(UnsupportedExponentError):
        vector_norm(x, 0.0)


def test_vector_norm_refuses_a_nan_exponent():
    with pytest.raises(UnsupportedExponentError):
        vector_norm(np.array([3.0, -4.0]), np.nan)


def test_vector_norm_rescales_only_past_the_overflow():
    assert vector_norm([1e200, 1e200], 2) == pytest.approx(
        1.4142135623730951e200, rel=1e-15)
    assert vector_norm([1e200, 1e100], 3, weight=0.5) == pytest.approx(
        0.5 ** (1 / 3) * 1e200, rel=1e-15)
    # in range, the plain formula's bytes; non-finite entries pass through
    x = random_vector(make_rng(3), 7)
    assert vector_norm(x, 3.5, weight=0.25) \
        == float((0.25 * np.sum(np.abs(x) ** 3.5)) ** (1 / 3.5))
    assert vector_norm([np.inf, 1.0], 2) == np.inf
    assert np.isnan(vector_norm([np.nan, 1e200], 2))


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
