import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import (chain_entry, dense_lower_toeplitz,
                      feedback_forward_matrix, materialize,
                      shipped_feedback_inverse)
from sgperturb import numkit
from sgperturb.numkit import ShapeError, SingularMatrixError, induced_norm
from sgperturb.toeplitz import (
    BlockToeplitz,
    column_norm,
    feedback_norm_chain,
)


def random_toeplitz(seed, n, d):
    rng = numkit.make_rng(seed)
    return BlockToeplitz([numkit.random_matrix(rng, d, d) for _ in range(n)])


# ---------------------------------------------------------------------------
# the dense oracle (conftest.materialize)
# ---------------------------------------------------------------------------

def test_apply_identity_diagonal():
    T = BlockToeplitz([np.eye(3), np.zeros((3, 3))])
    x = np.arange(6, dtype=float)
    assert_allclose(materialize(T) @ x, x, atol=0)


def test_apply_pure_shift():
    T = BlockToeplitz([np.zeros((2, 2)), np.eye(2)])
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert_allclose(materialize(T) @ x, [0.0, 0.0, 1.0, 2.0], atol=0)


def test_apply_matches_dense_oracle():
    T = random_toeplitz(17, 4, 3)
    rng = numkit.make_rng(18)
    x = numkit.random_vector(rng, 12)
    dense = dense_lower_toeplitz(T.blocks, 4)
    assert np.abs(materialize(T) @ x - dense @ x).max() <= 1e-13


def test_materialize_matches_independent_assembly():
    T = random_toeplitz(29, 6, 3)
    assert np.array_equal(materialize(T), dense_lower_toeplitz(T.blocks, 6))


def real_toeplitz(seed, n, d):
    rng = numkit.make_rng(seed)
    return BlockToeplitz([rng.standard_normal((d, d)) for _ in range(n)])


@pytest.mark.parametrize("build, dtype", [
    (real_toeplitz, np.float64),   # stored as complex128 with zero imag
    (random_toeplitz, np.complex128),
])
def test_materialize_dtype_and_apply_match_dense(build, dtype):
    T = build(31, 5, 3)
    M = materialize(T)
    assert M.dtype == dtype
    dense = dense_lower_toeplitz(T.blocks, 5)
    assert np.array_equal(M, dense)
    x = numkit.random_vector(numkit.make_rng(32), 15)
    ref = dense @ x
    assert np.abs(M @ x - ref).max() <= 1e-13 * np.abs(ref).max()


def test_materialize_keeps_one_complex_block():
    blocks = list(real_toeplitz(33, 4, 2).blocks)
    blocks[3] = blocks[3] + 1e-20j
    assert materialize(BlockToeplitz(blocks)).dtype == np.complex128


def lag_loop_materialize(T):
    """``materialize`` before the strided build, verbatim: one fancy-index
    write per nonzero lag."""
    n, d = T.n, T.block_dim
    real = not T.blocks.imag.any()
    M = np.zeros((n * d, n * d), dtype=np.float64 if real else np.complex128)
    grid = M.reshape(n, d, n, d)
    for lag in np.flatnonzero(T.blocks.any(axis=(1, 2))):
        block = T.blocks[lag]
        grid[np.arange(lag, n), :, np.arange(n - lag), :] = (
            block.real if real else block)
    return M


@pytest.mark.parametrize("n", [1, 2, 7, 40])
@pytest.mark.parametrize("part", ["complex", "real"])
def test_materialize_equals_lag_loop(n, part):
    # m = 2 blocks; lags 1, 4, 7, ... are zero, and beyond two lags so is
    # the diagonal block
    blocks = random_toeplitz(41, n, 2).blocks.copy()
    blocks[1::3] = 0.0
    if n > 2:
        blocks[0] = 0.0
    if part == "real":
        blocks = blocks.real
    T = BlockToeplitz(blocks)
    M, oracle = materialize(T), lag_loop_materialize(T)
    assert M.dtype == oracle.dtype == (
        np.complex128 if part == "complex" else np.float64)
    assert M.shape == (2 * n, 2 * n) and M.flags.c_contiguous
    assert M.tobytes() == oracle.tobytes()


@pytest.mark.parametrize("n, d, build", [
    (9, 1, real_toeplitz), (9, 1, random_toeplitz),
    (6, 2, real_toeplitz), (6, 2, random_toeplitz),
    (1, 5, real_toeplitz), (1, 5, random_toeplitz),   # one dense q x q block
    (4, 5, random_toeplitz),
])
def test_fft_products_match_materialize(n, d, build):
    T = build(61, n, d)
    M = materialize(T)
    rng = numkit.make_rng(62)
    X = numkit.random_matrix(rng, n * d, 3)
    R = rng.standard_normal((n * d, 2))
    for got, want in ((T.forward(X), M @ X),
                      (T.adjoint(X), M.conj().T @ X),
                      (T.forward(X[:, 1]), M @ X[:, 1]),
                      (T.adjoint(R), M.conj().T @ R)):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    if build is real_toeplitz:        # real data stays real
        assert T.forward(R).dtype == T.adjoint(R).dtype == np.float64


def test_fft_products_reject_wrong_rows():
    T = random_toeplitz(63, 3, 2)
    with pytest.raises(ShapeError):
        T.forward(np.ones(5))
    with pytest.raises(ShapeError):
        T.adjoint(np.ones((6, 2, 1)))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("build", [real_toeplitz, random_toeplitz],
                         ids=["real", "complex"])
def test_fft_products_of_a_column_do_not_depend_on_its_batch(build, d):
    # each column of a product is the one computed alone and in a
    # sub-batch, bit for bit, whatever the operand's memory order: a
    # report does not depend on how its products were batched
    T = build(64, 16, d)
    rng = numkit.make_rng(65)
    X = rng.standard_normal((16 * d, 9))
    if build is random_toeplitz:
        X = X + 1j * rng.standard_normal(X.shape)
    for product in (T.forward, T.adjoint):
        full = product(X)
        assert np.array_equal(product(np.asfortranarray(X)), full)
        assert np.array_equal(product(X[:, 2:7]), full[:, 2:7])
        for j in range(X.shape[1]):
            assert np.array_equal(product(X[:, j]), full[:, j])
            assert np.array_equal(product(X[:, j:j + 1]), full[:, j:j + 1])


def test_block_shape_validation():
    with pytest.raises(ShapeError):
        BlockToeplitz([np.eye(2), np.eye(3)])
    with pytest.raises(ShapeError):
        BlockToeplitz([])


# ---------------------------------------------------------------------------
# norms from the first column
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, d, build", [
    (1, 3, "complex"), (5, 1, "complex"), (7, 2, "real"), (9, 3, "complex"),
])
def test_column_norm_is_exact_at_1_and_inf(n, d, build):
    T = random_toeplitz(60 + n, n, d) if build == "complex" else \
        BlockToeplitz(random_toeplitz(60 + n, n, d).blocks.real)
    M = materialize(T)
    for p in (1, np.inf):
        assert column_norm(T.blocks, p) == pytest.approx(
            induced_norm(M, p), rel=1e-14)


def test_column_norm_is_riesz_thorin_between_the_ends():
    T = random_toeplitz(71, 6, 2)
    M = materialize(T)
    n1, ninf = induced_norm(M, 1), induced_norm(M, np.inf)
    for p in (1.5, 3.0, 7.0):
        assert column_norm(T.blocks, p) == pytest.approx(
            n1 ** (1.0 / p) * ninf ** (1.0 - 1.0 / p), rel=1e-14)


def test_column_norm_rejects_p_below_one():
    with pytest.raises(numkit.UnsupportedExponentError):
        column_norm(np.ones((2, 1, 1)), 0.5)


def test_column_norm_refuses_a_nan_exponent():
    with pytest.raises(numkit.UnsupportedExponentError):
        column_norm(np.ones((2, 1, 1)), np.nan)


def test_norm_bound_two_identities_golden_ratio():
    T = BlockToeplitz([np.eye(1), np.eye(1)])
    exact = induced_norm(materialize(T), 2)
    assert column_norm(T.blocks, 2) == pytest.approx(2.0)
    assert exact == pytest.approx((1.0 + np.sqrt(5.0)) / 2.0, rel=1e-12)
    assert exact <= 2.0


@pytest.mark.parametrize("p", [1, 2, np.inf])
def test_norm_bound_dominates_exact_100_seeds(p):
    for seed in range(100):
        rng = numkit.make_rng(seed)
        n = int(rng.integers(1, 9))
        T = BlockToeplitz([numkit.random_matrix(rng, 3, 3)
                           for _ in range(n)])
        exact = induced_norm(materialize(T), p)
        assert exact <= column_norm(T.blocks, p) * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# feedback inverse structure
# ---------------------------------------------------------------------------

def scalar_blocks(F, B, C, T):
    return (np.array([[F]]), np.array([[B]]),
            np.array([[C]]), np.array([[T]]))


def test_inverse_single_block_is_resolvent_of_F():
    F, B, C, T = scalar_blocks(0.5, 1.0, 1.0, 0.25)
    inverse, adjoint = shipped_feedback_inverse(F, B, C, T, 1)
    assert_allclose(feedback_forward_matrix(F, B, C, T, 1), [[0.5]], atol=0)
    assert_allclose(inverse, [[2.0]], atol=1e-14)
    assert_allclose(adjoint, [[2.0]], atol=1e-14)


def test_inverse_two_blocks_matches_direct_block_inversion():
    rng = numkit.make_rng(41)
    F = 0.4 * numkit.random_matrix(rng, 2, 2)
    B = numkit.random_matrix(rng, 3, 2)
    C = numkit.random_matrix(rng, 2, 3)
    T = numkit.random_matrix(rng, 3, 3)
    forward = feedback_forward_matrix(F, B, C, T, 2)
    inverse, _ = shipped_feedback_inverse(F, B, C, T, 2)
    assert np.abs(inverse - np.linalg.inv(forward)).max() <= 1e-12
    # sub-diagonal block has the closed form G C B G
    G = np.linalg.inv(np.eye(2) - F)
    assert_allclose(inverse[2:, :2], G @ C @ B @ G, atol=1e-13)


def test_inverse_product_identity_n6():
    # the recursion applies K with forward @ K = K @ forward = I, and its
    # adjoint recursion applies K^H
    for seed in range(10):
        rng = numkit.make_rng(100 + seed)
        F = numkit.random_matrix(rng, 2, 2)
        nrm = induced_norm(F, 2)
        if nrm > 0.5:
            F = F * (0.5 / nrm)
        B = numkit.random_matrix(rng, 3, 2)
        C = numkit.random_matrix(rng, 2, 3)
        T = numkit.random_matrix(rng, 3, 3)
        forward = feedback_forward_matrix(F, B, C, T, 6)
        inverse, adjoint = shipped_feedback_inverse(F, B, C, T, 6)
        eye = np.eye(forward.shape[0])
        assert np.abs(forward @ inverse - eye).max() <= 1e-10
        assert np.abs(inverse @ forward - eye).max() <= 1e-10
        assert np.abs(adjoint - inverse.conj().T).max() <= 1e-10


def test_inverse_is_block_toeplitz():
    rng = numkit.make_rng(55)
    F = 0.3 * numkit.random_matrix(rng, 2, 2)
    B = numkit.random_matrix(rng, 2, 2)
    C = numkit.random_matrix(rng, 2, 2)
    T = numkit.random_matrix(rng, 2, 2)
    inv = np.linalg.inv(feedback_forward_matrix(F, B, C, T, 5))
    shipped, _ = shipped_feedback_inverse(F, B, C, T, 5)
    d = 2
    for k in range(5):  # every diagonal is constant block-wise
        ref = inv[k * d:(k + 1) * d, :d]
        for i in range(k, 5):
            j = i - k
            for M in (inv, shipped):
                blk = M[i * d:(i + 1) * d, j * d:(j + 1) * d]
                assert np.abs(blk - ref).max() <= 1e-10


def test_inverse_rejects_singular_feedback():
    # I - F exactly singular: no G to feed the chain; sigma_min(I - F) of
    # 1e-9, below the feedback margin: the chain refuses through ||G||
    F, B, C, T = scalar_blocks(1.0, 1.0, 1.0, 0.5)
    with pytest.raises(SingularMatrixError):
        numkit.solve(np.eye(1) - F, np.eye(1))
    with pytest.raises(SingularMatrixError):
        chain_entry(F - 1e-9, B, C, T, 3)
    with pytest.raises(ShapeError):
        feedback_norm_chain(np.full((1, 2, 2), 0.1), np.eye(2), np.eye(2),
                            np.eye(2), 0)


def test_norm_chain_single_block_trivial():
    F, B, C, T = scalar_blocks(0.5, 1.0, 1.0, 0.25)
    lhs, rhs = chain_entry(F, B, C, T, 1)
    assert lhs == pytest.approx(2.0)
    assert rhs == pytest.approx(2.0)


def test_norm_chain_scalar_hand_value():
    # G = 2, closed loop T + BGC = 2.25, sum over l=1,2 of s^{l-1} = 3.25,
    # so rhs = 2 + 2*2*3.25 = 15
    F, B, C, T = scalar_blocks(0.5, 1.0, 1.0, 0.25)
    lhs, rhs = chain_entry(F, B, C, T, 3)
    assert rhs == pytest.approx(15.0)
    assert lhs <= rhs


def test_norm_chain_dominates_100_seeds():
    for seed in range(100):
        rng = numkit.make_rng(1000 + seed)
        n = int(rng.integers(1, 9))
        F = numkit.random_matrix(rng, 2, 2)
        nrm = induced_norm(F, 2)
        if nrm > 0.6:
            F = F * (0.6 / nrm)
        B = numkit.random_matrix(rng, 2, 2)
        C = numkit.random_matrix(rng, 2, 2)
        T = 0.8 * numkit.random_matrix(rng, 2, 2)
        lhs, rhs = chain_entry(F, B, C, T, n)
        assert lhs <= rhs * (1.0 + 1e-12)
