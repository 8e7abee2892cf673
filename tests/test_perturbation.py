import re
import tracemalloc
import types

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import (apply_phi, compatible_state, feedback_toeplitz_inverse,
                      io_matrix, materialize, refuse_dense_f, stable_triple,
                      taylor_expm, transport_triple,
                      unskipped_inverse_products)
from sgperturb import admissibility, numkit, perturbation, toeplitz, transport
from sgperturb.admissibility import (SampledSignal, TimeGrid,
                                     controllability_map, estimate_constants,
                                     feedback_admissible, observability_map)
from sgperturb.classical import mv_suite
from sgperturb.perturbation import (
    FeedbackSingularError,
    generation_certificate,
    long_horizon_growth_check,
    variation_of_parameters_residual,
    weiss_staffans_semigroup,
)
from sgperturb.semigroup import MatrixDiscretization, MatrixTriple, rescale
from sgperturb.toeplitz import feedback_norm_chain
from sgperturb.transport import (
    BorelMeasure,
    GridFunction,
    TransportTriple,
    dirichlet_operator,
    phi_coefficients,
    solve_pde,
    transfer_scalar,
    upwind_generator,
    volterra_resolvent_values,
)

SCALAR = MatrixTriple(np.array([[-1.0]]), np.array([[1.0]]),
                      np.array([[0.5]]))
LITTLE_MASS_ATOMS = ((0.5, 0.3), (0.875, 0.2))


def zero_observation(seed=2, n=4, m=2):
    rng = numkit.make_rng(seed)
    A = -np.eye(n) + 0.3 * numkit.random_matrix(rng, n, n)
    B = numkit.random_matrix(rng, n, m)
    return MatrixTriple(A, B, np.zeros((m, n)))


# ---------------------------------------------------------------------------
# closed-loop generator
# ---------------------------------------------------------------------------

def test_generator_zero_observation_is_A():
    triple = zero_observation()
    assert np.array_equal(triple.closed_loop(), triple.A)


def test_generator_scalar_sum():
    assert_allclose(SCALAR.closed_loop(), [[-0.5]], atol=0)


def test_generator_transport_half_atom_equals_unperturbed():
    triple = transport_triple(N=16, atoms=((1.0, 0.5),))
    assert np.array_equal(triple.closed_loop(),
                          upwind_generator(BorelMeasure(), 16))


def test_generator_transport_unit_atom_degenerate():
    # unit mass at s = 1: the closed loop is not a generator
    triple = transport_triple(N=16, atoms=((1.0, 1.0),))
    with pytest.raises(ArithmeticError, match="unit mass at s = 1"):
        triple.closed_loop()


def test_generator_transport_folds_spectral_shift():
    plain = transport_triple(N=16, atoms=((0.5, 0.4),))
    shifted = transport_triple(N=16, atoms=((0.5, 0.4),), mu_shift=2.0)
    d = shifted.closed_loop() - plain.closed_loop()
    assert_allclose(d, -2.0 * np.eye(16), atol=1e-14)


# ---------------------------------------------------------------------------
# transfer function
# ---------------------------------------------------------------------------

def test_transfer_zero_control():
    triple = MatrixTriple(np.array([[-1.0]]), np.zeros((1, 1)),
                          np.array([[1.0]]))
    assert np.abs(triple.transfer(2.0)).max() == 0.0


def test_transfer_scalar_at_zero():
    triple = MatrixTriple(np.array([[-1.0]]), np.array([[1.0]]),
                          np.array([[1.0]]))
    assert triple.transfer(0.0)[0, 0] == pytest.approx(1.0)


def test_transfer_transport_atom_is_constant_alpha():
    triple = transport_triple(N=16, atoms=((1.0, 0.5),))
    for lam in (0.0, 1.0, -1.0 + 2.0j):
        assert triple.transfer(lam)[0, 0] == pytest.approx(0.5)


def test_transfer_matches_resolvent_lift_quadrature():
    # H(lam) = Phi (Id - lam R(lam, A)) D_0, computed by quadrature,
    # agrees with the exact integral formula to O(1/N)
    N = 512
    mu = BorelMeasure(density=(1.0,) * N)
    lam = 1.0
    ones = np.ones(N + 1, dtype=complex)
    g = ones - lam * volterra_resolvent_values(lam, ones)
    assert abs(apply_phi(mu, g) - transfer_scalar(mu, lam)) <= 10.0 / N


def test_transfer_guards_spectrum():
    with pytest.raises(numkit.SingularMatrixError):
        SCALAR.transfer(-1.0)


# ---------------------------------------------------------------------------
# perturbed resolvent
# ---------------------------------------------------------------------------

def test_resolvent_zero_observation_reduces_to_plain():
    triple = zero_observation(3)
    lam = 1.5 + 0.5j
    Q = triple.perturbed_resolvent(lam)
    R = np.linalg.inv(lam * np.eye(4) - triple.A)
    assert np.abs(Q - R).max() <= 1e-12 * np.abs(R).max()


def test_resolvent_scalar_closed_form():
    Q = SCALAR.perturbed_resolvent(0.0)
    assert_allclose(Q, [[2.0]], rtol=1e-12)


def test_resolvent_matches_direct_inverse_20_lambdas():
    triple = stable_triple(42, n=5, m=2)
    Apert = triple.A + triple.B @ triple.C
    rng = numkit.make_rng(43)
    count = 0
    while count < 20:
        lam = complex(rng.uniform(1.0, 4.0), rng.uniform(-4.0, 4.0))
        try:
            Q = triple.perturbed_resolvent(lam)
        except (FeedbackSingularError, numkit.SingularMatrixError):
            continue
        direct = np.linalg.inv(lam * np.eye(5) - Apert)
        assert np.linalg.norm(Q - direct) <= 1e-10 * np.linalg.norm(Q)
        count += 1


def test_resolvent_equation_for_Q():
    triple = stable_triple(44, n=4, m=2)
    lam, nu = 2.0 + 1.0j, 3.0 - 0.5j
    Ql = triple.perturbed_resolvent(lam)
    Qn = triple.perturbed_resolvent(nu)
    assert np.abs((Ql - Qn) - (nu - lam) * (Ql @ Qn)).max() <= 1e-8


def test_resolvent_transport_atom_identity():
    # alpha delta_1: the lift term vanishes and Q = R acts on any f
    triple = transport_triple(N=64, atoms=((1.0, 0.5),))
    f = GridFunction(np.sin(np.pi * np.arange(65) / 64))
    lam = 1.0
    Q = triple.perturbed_resolvent(lam)
    out = Q(f)
    plain = volterra_resolvent_values(lam, f.values)
    assert np.abs(out.values - plain).max() <= 1e-12


def test_resolvent_feedback_singularity_raises():
    triple = transport_triple(N=32, atoms=((1.0, 1.0),))
    with pytest.raises(FeedbackSingularError):
        triple.perturbed_resolvent(2.0)


def test_resolvent_transport_residual_small():
    # (lam - A^Phi) Q f = f checked through the upwind discretization
    triple = transport_triple(N=256, atoms=LITTLE_MASS_ATOMS)
    lam = 1.0 + 1.0j
    rngv = numkit.make_rng(45)
    f = numkit.random_vector(rngv, 257)
    f[-1] = 0.0
    g = triple.perturbed_resolvent(lam)(GridFunction(f)).values
    N = triple.N
    interior = lam * g[:N] - N * (g[1:] - g[:N]) - f[:N]
    coef = phi_coefficients(triple.mu, N)
    boundary = abs(g[N] - coef @ g)
    res = max(np.abs(interior).max(), boundary) / np.abs(f).max()
    assert res <= 50.0 * (1.0 + abs(lam)) ** 2 / N


def test_resolvent_transport_builds_phi_once(monkeypatch):
    # Q reads Phi from the coefficient vector the triple builds once, with
    # the same bits as apply_phi, however often it is applied
    builds = count_calls(monkeypatch, "phi_coefficients", transport)
    triple = transport_triple(N=64, atoms=LITTLE_MASS_ATOMS)
    lam = 2.0 + 3.0j
    fs = [np.ones(65), np.arange(65.0), np.cos(np.arange(65.0))]
    Q = triple.perturbed_resolvent(lam)
    outs = [Q(f).values for f in fs]
    assert len(builds) == 1
    gain = 1.0 / (1.0 - transfer_scalar(triple.mu, lam))
    lift = dirichlet_operator(lam, 64).values
    for f, out in zip(fs, outs):
        Rf = volterra_resolvent_values(lam, f)
        assert np.array_equal(out, Rf + gain * apply_phi(triple.mu, Rf) * lift)


# ---------------------------------------------------------------------------
# constructed semigroup
# ---------------------------------------------------------------------------

def test_ws_zero_observation_is_unperturbed_matrix():
    triple = zero_observation(5)
    grid = TimeGrid(0.8, 32)
    x = numkit.random_vector(numkit.make_rng(6), 4)
    out = weiss_staffans_semigroup(triple, grid, 0.8, x)
    assert np.abs(out - triple.step(0.8, x)).max() <= 1e-12


def test_ws_zero_measure_is_unperturbed_transport():
    triple = transport_triple(N=32, atoms=())
    grid = TimeGrid(1.0, 32)
    x = GridFunction(np.r_[np.sin(np.pi * np.arange(32) / 32), 0.0])
    out = weiss_staffans_semigroup(triple, grid, 1.0, x)
    free = triple.step(1.0, x)
    assert np.abs(out.values - free.values).max() == 0.0


def test_ws_scalar_first_order():
    grid = TimeGrid(1.0, 128)
    out = weiss_staffans_semigroup(SCALAR, grid, 1.0, np.array([1.0]))
    assert abs(out[0] - np.exp(-0.5)) <= 3.0 * grid.h


def test_ws_matrix_error_halves_under_refinement():
    triple = stable_triple(47)
    t = 0.8
    x = numkit.random_vector(numkit.make_rng(48), 4)
    oracle = taylor_expm(triple.A + triple.B @ triple.C, t) @ x
    errors = []
    for steps in (16, 32, 64):
        out = weiss_staffans_semigroup(triple, TimeGrid(t, steps), t, x)
        errors.append(np.linalg.norm(out - oracle))
    for e0, e1 in zip(errors, errors[1:]):
        assert 1.6 <= e0 / e1 <= 2.4


def test_ws_requires_t_equal_to_horizon():
    with pytest.raises(ValueError):
        weiss_staffans_semigroup(SCALAR, TimeGrid(1.0, 8), 0.5,
                                 np.array([1.0]))


def test_ws_transport_equals_pde_solution_at_full_stride():
    # one feedback sample per grid level: the construction solves the same
    # boundary recursion as the method of steps, so the norm-carrying
    # samples agree to rounding (node N holds the zero representative on
    # one side and the boundary value on the other; it carries no weight)
    triple = transport_triple(N=32, atoms=LITTLE_MASS_ATOMS)
    grid = TimeGrid(1.0, 32)
    x = compatible_state(triple.mu, triple.N, triple.p)
    ws = weiss_staffans_semigroup(triple, grid, 1.0, x)
    pde = solve_pde(triple.mu, x, 1.0, 32).states[-1]
    assert np.abs(ws.values[:32] - pde[:32]).max() <= 1e-14


@pytest.mark.parametrize("triple, grid", [
    (stable_triple(17, n=4, m=2, scale=3.0), TimeGrid(0.5, 32)),
    (stable_triple(19, n=3, m=1, scale=3.0), TimeGrid(0.8, 40)),
    (transport_triple(N=64, atoms=((0.5, 0.3), (1.0, 0.4)),
                      density=(0.2,) * 64), TimeGrid(0.5, 32)),
    (transport_triple(N=64, atoms=((0.25, 0.9), (0.5, 0.3), (0.875, 0.6))),
     TimeGrid(1.0, 64)),
    (transport_triple(N=32, atoms=((0.0, 0.8),)), TimeGrid(2.0, 64)),
    (transport_triple(N=32, atoms=((0.5, 0.7), (1.0, 0.5))),
     TimeGrid(1.0, 32)),
    (transport_triple(N=32, atoms=((0.5, 0.7), (1.0, 0.4 - 0.3j))),
     TimeGrid(1.0, 32)),
    (transport_triple(N=64, density=tuple(0.8j * np.cos(np.arange(64))
                                          + 0.3), mu_shift=1.5),
     TimeGrid(1.0, 64)),
    (transport_triple(N=64, atoms=((0.25, 0.5), (0.875, -0.6j))),
     TimeGrid(1.0, 32)),
    (transport_triple(N=32, atoms=((0.75, 0.7),), density=(0.3,) * 32),
     TimeGrid(2.5, 80)),
], ids=["matrix", "matrix-m1", "transport", "atoms", "atom-at-0",
        "atom-at-1", "complex-atom-at-1", "complex-density-shift",
        "stride-2", "past-one"])
def test_solve_feedback_matches_dense_solve(triple, grid):
    # (I - F)^{-1} v by the triple's recursion, against a dense LU solve of
    # the assembled I - F
    F = io_matrix(triple.discretize(grid))
    assert numkit.induced_norm(F, 1) > 0.1
    v = numkit.random_matrix(numkit.make_rng(18), grid.steps,
                             triple.control_dim)
    ref = numkit.solve(np.eye(F.shape[0]) - F, v.reshape(-1))
    y = triple.discretize(grid).solve_feedback(v)
    assert y.shape == v.shape
    assert np.linalg.norm(y.reshape(-1) - ref) <= 1e-12 * np.linalg.norm(ref)


def test_ws_transport_unit_atom_at_one_is_singular():
    triple = transport_triple(N=16, atoms=((1.0, 1.0),))
    x = GridFunction(np.ones(17, dtype=complex))
    with pytest.raises(numkit.SingularMatrixError, match="pivot ratio"):
        weiss_staffans_semigroup(triple, TimeGrid(0.5, 8), 0.5, x)


def test_ws_transport_coarse_sampling_converges():
    # coarser feedback sampling (fewer steps at fixed N) leaves a
    # first-order gap to the exact trajectory; doubling steps halves it
    triple = transport_triple(N=64, atoms=LITTLE_MASS_ATOMS)
    x = compatible_state(triple.mu, triple.N, triple.p)
    exact = solve_pde(triple.mu, x, 1.0, 64).states[-1]
    gaps = []
    for steps in (16, 32):
        ws = weiss_staffans_semigroup(triple, TimeGrid(1.0, steps), 1.0, x)
        gaps.append(np.abs(ws.values[:64] - exact[:64]).max())
    assert gaps[1] <= 0.75 * gaps[0]


def test_ws_rescaling_compensation_identity():
    # running the construction on the shifted triple and multiplying by
    # e^{mu t} recovers the unshifted result
    triple = stable_triple(49)
    grid = TimeGrid(0.8, 32)
    x = numkit.random_vector(numkit.make_rng(50), 4)
    plain = weiss_staffans_semigroup(triple, grid, 0.8, x)
    comp = np.exp(1.5 * 0.8) * weiss_staffans_semigroup(
        rescale(triple, 1.5), grid, 0.8, x)
    assert np.abs(plain - comp).max() <= 1e-9 * np.abs(plain).max()


# ---------------------------------------------------------------------------
# variation of parameters
# ---------------------------------------------------------------------------

def test_vop_zero_observation_residual_zero():
    triple = zero_observation(7)
    grid = TimeGrid(0.8, 16)
    x = numkit.random_vector(numkit.make_rng(8), 4)
    assert variation_of_parameters_residual(triple, grid, 0.8, x) <= 1e-12


def test_vop_scalar_within_first_order_budget():
    grid = TimeGrid(1.0, 64)
    res = variation_of_parameters_residual(SCALAR, grid, 1.0,
                                           np.array([1.0]))
    assert res <= 5.0 * grid.h


def test_vop_transport_halves_under_refinement():
    # Both atoms sit on even nodes at N = 32 and 64, so at stride 2 every
    # boundary read lands on a sampled level and the discrete identity is
    # exact: the residuals are roundoff and cannot be ranked.  Refinement of
    # the transport residual is checked with a density in criterion 03.
    residuals = []
    for N in (32, 64):
        triple = transport_triple(N=N, atoms=LITTLE_MASS_ATOMS)
        grid = TimeGrid(1.0, N // 2)
        x = compatible_state(triple.mu, triple.N, triple.p)
        res = variation_of_parameters_residual(triple, grid, 1.0, x)
        residuals.append(res)
    assert max(residuals) <= 1e-12


@pytest.mark.parametrize("N", [32, 64, 128, 256])
def test_vop_transport_density_exact_at_stride_one(N):
    # F, the feedback loop and the reference all read Phi through the same
    # node coefficients, so at stride 1 the density residual is roundoff;
    # at stride 2 the hold misses half the levels and stays first order
    k = np.arange(N)
    triple = transport_triple(N=N, atoms=((0.5, 0.2),),
                              density=tuple(0.3 + 0.2 * np.cos(64 * k / N)))
    x = compatible_state(triple.mu, N, triple.p)
    exact = variation_of_parameters_residual(triple, TimeGrid(1.0, N), 1.0,
                                             x)
    held = variation_of_parameters_residual(triple, TimeGrid(1.0, N // 2),
                                            1.0, x)
    assert exact <= 1e-12
    assert held >= 0.02 / N


def test_vop_rejects_state_outside_closed_loop_domain():
    triple = transport_triple(N=32, atoms=LITTLE_MASS_ATOMS)
    bad = GridFunction(np.ones(33))  # x(1) = 1 != Phi x
    with pytest.raises(ValueError):
        variation_of_parameters_residual(triple, TimeGrid(1.0, 32), 1.0,
                                         bad)


# ---------------------------------------------------------------------------
# growth check
# ---------------------------------------------------------------------------

def test_growth_zero_observation_surrogate_is_semigroup_norm():
    triple = zero_observation(9)
    grid = TimeGrid(0.8, 16)
    rep = long_horizon_growth_check(triple, grid, (0.0, 1.0))
    expected = numkit.induced_norm(numkit.expm(triple.A, 0.8), 2)
    assert rep.surrogate_norm == pytest.approx(expected, rel=1e-9)
    assert rep.all_dominated


def test_growth_scalar_contraction_at_mu_zero():
    grid = TimeGrid(1.0, 64)
    rep = long_horizon_growth_check(SCALAR, grid, (0.0,))
    mu, threshold, passed = rep.mu_entries[0]
    assert mu == 0.0 and threshold == pytest.approx(1.0)
    assert passed
    assert rep.surrogate_norm == pytest.approx(np.exp(-0.5), abs=0.02)


def test_growth_random_stable_block_chain_dominates():
    triple = stable_triple(51, n=3, m=2)
    rep = long_horizon_growth_check(triple, TimeGrid(0.5, 16),
                                    (0.5, 1.0, 2.0))
    assert rep.all_dominated
    assert len(rep.block_entries) == 6
    for _, lhs, rhs in rep.block_entries:
        assert lhs <= rhs * (1.0 + 1e-12)


def test_growth_transport_needs_feedback_margin():
    triple = transport_triple(N=16, atoms=((1.0, 1.0),))
    with pytest.raises(ValueError):
        long_horizon_growth_check(triple, TimeGrid(1.0, 16), (0.0,))


def dense_frames(triple, grid):
    """(F, B, C, T): the assembled io_matrix next to the triple's euclidean
    frames, the input of the dense oracles."""
    disc = triple.discretize(grid)
    return (io_matrix(disc),) + disc.euclidean_frames()


def impulse_column(triple, grid):
    """G's first block column as the growth check reads it."""
    return triple.discretize(grid).impulse_column()


def solved_impulse_column(triple, grid):
    """G's first block column, one solve_feedback per unit impulse."""
    m = triple.control_dim
    disc = triple.discretize(grid)
    g = np.empty((grid.steps, m, m), dtype=np.complex128)
    for i in range(m):
        impulse = np.zeros((grid.steps, m))
        impulse[0, i] = 1.0
        g[:, :, i] = disc.solve_feedback(impulse)
    return g


README_TRIPLE = MatrixTriple(np.array([[-1.0, 0.2], [0.0, -2.0]]),
                            np.array([[1.0], [0.5]]), np.array([[0.3, -0.4]]))


#: F strictly lower, but the loop grows like (1 + 30 h)^k, so ||G|| > 1e8
#: on TimeGrid(1.0, 32)
GROWING_LOOP = MatrixTriple(np.zeros((1, 1)), np.ones((1, 1)),
                            np.array([[30.0]]))


@pytest.mark.parametrize("triple, grid", [
    (stable_triple(52, n=3, m=2), TimeGrid(0.5, 16)),
    (stable_triple(57, n=4, m=3), TimeGrid(1.0, 37)),
    (README_TRIPLE, TimeGrid(0.5, 128)),
    (MatrixTriple(np.zeros((1, 1)), np.ones((1, 1)), np.ones((1, 1))),
     TimeGrid(0.5, 1)),
    (GROWING_LOOP, TimeGrid(1.0, 32)),
    (transport_triple(N=32, atoms=LITTLE_MASS_ATOMS), TimeGrid(1.0, 32)),
    (transport_triple(N=64, atoms=((0.5, 0.3), (1.0, 0.4 - 0.3j)),
                      density=tuple(0.1 * np.sin(np.arange(64)))),
     TimeGrid(0.5, 32)),
], ids=["stable-m2", "stable-m3-odd-steps", "readme-128", "one-step",
        "growing-loop", "transport-atoms", "transport-density-atom-at-1"])
def test_impulse_column_is_solve_feedback_on_unit_impulses(triple, grid):
    # the matrix world's doubling power walk against the state loop, and
    # the transport world's recursion against itself
    g = impulse_column(triple, grid)
    want = solved_impulse_column(triple, grid)
    assert g.shape == want.shape
    assert np.abs(g - want).max() <= 1e-13 * np.abs(want).max()
    if triple is GROWING_LOOP:
        G = numkit.induced_norm(materialize(
            toeplitz.BlockToeplitz(g)), 2)
        assert G > 1e8


@pytest.mark.parametrize("world", ["matrix", "transport"])
def test_growth_entries_equal_one_chain_of_the_impulse_column(world):
    # the growth check is one chain build on G's first block column, bit
    # for bit; that column is the dense inverse's, and every entry agrees
    # with the per-n chain on the same column and with the per-n dense path
    if world == "matrix":
        triple, grid = stable_triple(52, n=3, m=2), TimeGrid(0.5, 16)
    else:
        triple = transport_triple(N=32, atoms=LITTLE_MASS_ATOMS)
        grid = TimeGrid(1.0, 32)
    rep = long_horizon_growth_check(triple, grid, (0.5, 1.0, 2.0))
    g = impulse_column(triple, grid)
    F, B, C, T = dense_frames(triple, grid)
    chain = feedback_norm_chain(g, B, C, T, 6)
    s = chain.closed_norm
    assert rep.surrogate_norm == s
    assert rep.block_entries == chain.entries
    assert rep.mu_entries == tuple(
        (mu, float(np.exp(mu * grid.t0)), bool(s < np.exp(mu * grid.t0)))
        for mu in (0.5, 1.0, 2.0))
    eye = np.eye(F.shape[0], dtype=np.complex128)
    G = numkit.solve(eye - F, eye)
    m = triple.control_dim
    assert np.abs(g.reshape(-1, m) - G[:, :m]).max() \
        <= 1e-12 * np.abs(G).max()
    dense_s = numkit.induced_norm(T + B @ G @ C, 2)
    assert abs(s - dense_s) <= 1e-12 * dense_s
    for n, lhs, rhs in rep.block_entries:
        per_n = feedback_norm_chain(g, B, C, T, n).entries[-1]
        dense = feedback_norm_chain(G[None], B, C, T, n).entries[-1][1:]
        assert per_n[0] == n
        for got, want in ((lhs, per_n[1]), (rhs, per_n[2]),
                          (lhs, dense[0]), (rhs, dense[1])):
            assert abs(got - want) <= 1e-12 * want


def chain_inputs(triple, grid):
    """``_inverse_products``' operands as ``feedback_norm_chain`` forms
    them from the growth check's column and frames."""
    disc = triple.discretize(grid)
    G = toeplitz.BlockToeplitz(disc.impulse_column())
    B, C, T = toeplitz._frames(*disc.euclidean_frames(), G.n * G.block_dim)
    GC = G.forward(C)
    return G, GC, G.adjoint(B.conj().T).conj().T, B, T + B @ GC


#: a real triple with 2 x 2 blocks
REAL_M2 = MatrixTriple(np.array([[-1.0, 0.2, 0.1], [0.0, -2.0, 0.3],
                                 [0.1, 0.0, -0.5]]),
                       np.array([[1.0, 0.3], [0.5, -0.2], [0.0, 0.7]]),
                       np.array([[0.3, -0.4, 0.1], [0.2, 0.0, -0.6]]))


@pytest.mark.parametrize("triple, grid", [
    (README_TRIPLE, TimeGrid(0.5, 128)),
    (REAL_M2, TimeGrid(0.5, 16)),
    (transport_triple(N=64, atoms=LITTLE_MASS_ATOMS), TimeGrid(0.5, 32)),
    (stable_triple(56, n=3, m=2), TimeGrid(0.5, 16)),
    (transport_triple(N=32, atoms=((0.5, 0.7), (1.0, 0.4 - 0.3j))),
     TimeGrid(1.0, 32)),
], ids=["readme-128", "real-m2", "transport-atoms", "complex-m2",
        "complex-atom-at-1"])
def test_skipping_zero_blocks_leaves_the_products_bit_identical(triple,
                                                                grid):
    # Lanczos-shaped operands: one column per section, zero below it, and
    # a stopped section's column all zero; real for a real operator (as
    # the real start keeps them), complex for a complex one.  Every
    # column's FFT products see that column alone, so skipping its zero
    # blocks changes no bit, complex blocks of size 2 and up included
    n_max = 6
    operands = chain_inputs(triple, grid)
    q = operands[1].shape[0]
    sizes = q * np.array([1, 2, 3, 4, 5, 6, 3])
    inside = np.arange(n_max * q)[:, None] < sizes
    rng = numkit.make_rng(58)
    X = rng.standard_normal(inside.shape) * inside
    X[:, -1] = 0.0
    if not operands[0]._real:
        X = X + 1j * rng.standard_normal(X.shape) * inside
    shipped = toeplitz._inverse_products(*operands, n_max)
    reference = unskipped_inverse_products(*operands, n_max)
    for got, want in zip(shipped, reference):
        assert np.array_equal(got(X), want(X))


def count_chain_products(monkeypatch):
    """Names of the products the growth chain's Lanczos run takes."""
    calls = []
    build = toeplitz._inverse_products

    def counting(*args):
        def counted(name, product):
            def run(X):
                calls.append(name)
                return product(X)
            return run
        return tuple(counted(name, product) for name, product
                     in zip(("forward", "adjoint"), build(*args)))
    monkeypatch.setattr(toeplitz, "_inverse_products", counting)
    return calls


@pytest.mark.parametrize("triple, grid, products", [
    (README_TRIPLE, TimeGrid(0.5, 128), 18),
    (transport_triple(N=64, atoms=LITTLE_MASS_ATOMS), TimeGrid(0.5, 32), 34),
], ids=["readme-128", "transport-64"])
def test_growth_chain_takes_a_fixed_number_of_products(monkeypatch, triple,
                                                       grid, products):
    # one Lanczos step is one forward and one adjoint product, so a change
    # in the step count shows here without any timing
    calls = count_chain_products(monkeypatch)
    long_horizon_growth_check(triple, grid, (0.5,))
    assert len(calls) == products
    assert calls == ["forward", "adjoint"] * (products // 2)


def assert_entries_match_dense_svd(rep, triple, grid, n_max):
    frames = dense_frames(triple, grid)
    q = frames[0].shape[0]
    _, inverse = feedback_toeplitz_inverse(*frames, n_max)
    assert [n for n, _, _ in rep.block_entries] == list(range(1, n_max + 1))
    for n, lhs, _ in rep.block_entries:
        oracle = np.linalg.svd(inverse[:n * q, :n * q], compute_uv=False)[0]
        assert abs(lhs - oracle) <= 1e-12 * oracle


@pytest.mark.parametrize("triple, grid", [
    (README_TRIPLE, TimeGrid(0.5, 32)),
    (stable_triple(56, n=3, m=2), TimeGrid(0.5, 16)),
    (transport_triple(N=64, atoms=LITTLE_MASS_ATOMS), TimeGrid(0.5, 32)),
    (transport_triple(N=64, density=tuple(0.3 + 0.2 * np.cos(np.arange(64)))),
     TimeGrid(0.5, 32)),
    (transport_triple(N=32, atoms=((0.0, 0.8), (0.5, 0.3))),
     TimeGrid(2.0, 64)),
    (transport_triple(N=32, atoms=((0.5, 0.7), (1.0, 0.4 - 0.3j))),
     TimeGrid(1.0, 32)),
], ids=["readme-m1", "stable-m2", "transport-atoms", "transport-density",
        "atom-at-0", "complex-atom-at-1"])
def test_growth_entries_match_dense_svd_sections(triple, grid):
    # each Lanczos lhs against an SVD of its section of the dense inverse
    rep = long_horizon_growth_check(triple, grid, (0.5, 1.0))
    assert rep.all_dominated
    assert_entries_match_dense_svd(rep, triple, grid, 6)


@pytest.mark.parametrize("gain, grid, span", [
    (5.0, TimeGrid(1.0, 16), 1e9),
    (25.0, TimeGrid(1.0, 32), 1e39),
], ids=["growing-loop", "near-feedback-margin"])
def test_growth_sections_hold_at_high_dynamic_range(gain, grid, span):
    # an unstable loop: K's blocks G C closed^(k-1) B G grow away from its
    # diagonal G, so a section-1 lhs sits far below the full one.  The
    # masked block recursion keeps every section to its own blocks; one FFT
    # over K's whole first column would bury the small sections in the
    # roundoff of the large tail blocks.  At gain 25, ||G|| = 3.8e7 is just
    # under 1 / FEEDBACK_MARGIN
    triple = MatrixTriple(np.zeros((1, 1)), np.ones((1, 1)),
                          np.array([[gain]]))
    rep = long_horizon_growth_check(triple, grid, (0.5,))
    frames = dense_frames(triple, grid)
    q = frames[0].shape[0]
    _, inverse = feedback_toeplitz_inverse(*frames, 6)
    blocks = [np.linalg.svd(inverse[k * q:(k + 1) * q, :q],
                            compute_uv=False)[0] for k in range(6)]
    assert max(blocks) >= span * min(blocks)
    assert rep.block_entries[0][1] * toeplitz.FEEDBACK_MARGIN < 1.0
    assert rep.all_dominated
    assert_entries_match_dense_svd(rep, triple, grid, 6)


@pytest.mark.parametrize("measure", [
    dict(density=tuple(0.3 + 0.2 * np.cos(np.arange(64)))),
    dict(atoms=((0.5, 0.3), (1.0, 0.2)),
         density=tuple(0.1 + 0.05j * np.sin(np.arange(64)))),
], ids=["density", "atoms-density-atom-at-1"])
def test_growth_sections_are_the_feedback_inverse_at_n_horizons(measure):
    # the n-block feedback matrix is I - F at horizon n t0 once F and the
    # frames read Phi alike, so each lhs is ||(I - F_{n t0})^{-1}||
    triple = transport_triple(N=64, **measure)
    rep = long_horizon_growth_check(triple, TimeGrid(0.5, 32), (0.5,))
    for n, lhs, _ in rep.block_entries:
        F = io_matrix(triple.discretize(TimeGrid(0.5 * n, 32 * n)))
        inverse = np.linalg.inv(np.eye(32 * n) - F)
        oracle = np.linalg.svd(inverse, compute_uv=False)[0]
        assert abs(lhs - oracle) <= 1e-12 * oracle


@pytest.mark.parametrize("world", ["matrix", "transport"])
def test_growth_chain_matches_dense_svd_at_workload_size(world):
    # 128 signal columns per block and n_max = 6: a 768 x 768 inverse, the
    # size of the benchmarked growth check; each lhs against an SVD of its
    # section
    if world == "matrix":
        triple = README_TRIPLE
    else:
        triple = transport_triple(N=256, atoms=LITTLE_MASS_ATOMS)
    grid = TimeGrid(0.5, 128)
    assert grid.steps * triple.control_dim == 128
    rep = long_horizon_growth_check(triple, grid, (0.5, 1.0, 2.0, 4.0))
    assert rep.all_dominated
    assert_entries_match_dense_svd(rep, triple, grid, 6)


def test_growth_singular_feedback_raises_through_the_inverse_norm():
    # F is strictly lower, so its diagonal margin is 1, but the loop grows
    # like (1 + 30 h)^k: ||(I - F)^{-1}|| > 1e8, sigma_min(I - F) < 1e-8.
    # The chain refuses through 1 / ||G||, with the dense SVD's message
    triple, grid = GROWING_LOOP, TimeGrid(1.0, 32)
    F, B, C, T = dense_frames(triple, grid)
    smallest = np.linalg.svd(np.eye(32) - F, compute_uv=False)[-1]
    assert smallest < 1e-8
    assert feedback_admissible(triple, grid, 2.0).margin == 1.0
    message = (r"I - F is singular to margin 1e-08 "
               r"\(smallest singular value ([0-9.]+e[-+][0-9]+)\)")
    G = numkit.solve(np.eye(32) - F, np.eye(32))
    for run in (lambda: long_horizon_growth_check(triple, grid, (0.0,)),
                lambda: feedback_norm_chain(G[None], B, C, T, 2),
                lambda: feedback_toeplitz_inverse(F, B, C, T, 2)):
        with pytest.raises(numkit.SingularMatrixError, match=message) as exc:
            run()
        reported = float(re.search(message, str(exc.value)).group(1))
        assert reported == pytest.approx(smallest, rel=1e-3)


def test_growth_check_at_4096_steps_is_linear_in_memory(monkeypatch):
    # 4096 signal columns: the dense path built a 24576^2 inverse (4.8 GB);
    # now neither F nor any inverse is formed, and the traced peak stays
    # below a bound linear in steps that one steps x steps float64 matrix
    # (8 steps^2 bytes, 134 MB) would already exceed
    steps = 4096
    refuse_dense_f(monkeypatch, steps)
    tracemalloc.start()
    try:
        rep = long_horizon_growth_check(README_TRIPLE, TimeGrid(0.5, steps),
                                        (0.5, 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.all_dominated
    assert peak < 24_000 * steps


def test_growth_transport_two_atoms():
    triple = transport_triple(N=32, atoms=LITTLE_MASS_ATOMS)
    rep = long_horizon_growth_check(triple, TimeGrid(1.0, 32),
                                    (0.5, 1.0, 2.0))
    assert rep.all_dominated
    assert any(ok for _, _, ok in rep.mu_entries)


def test_growth_check_keeps_stopped_sections_finite():
    # with a density the 16- and 32-column sections stop long before the
    # 96-column one; their exhausted Krylov spaces once kept iterating
    # until alpha and beta overflowed (a RuntimeWarning, an error here)
    density = tuple(np.random.default_rng(0).uniform(-0.2, 0.2, 64))
    triple = TransportTriple(64, 2.0, BorelMeasure(atoms=((0.5, 0.3),),
                                                   density=density))
    rep = long_horizon_growth_check(triple, TimeGrid(0.5, 16), (0.5, 1.0))
    assert rep.all_dominated
    assert all(np.isfinite([lhs, rhs]).all()
               for _, lhs, rhs in rep.block_entries)


def probed_transport_frames(triple, grid):
    """The transport (B, C, T) frames built by probing the maps (oracle):
    one controllability_map per basis signal, one observability_map per
    node, and T filled entry by entry."""
    steps, N = grid.steps, triple.N
    disc = triple.discretize(grid)
    q = round(grid.h * N)
    sqrt_h, sqrt_N = np.sqrt(grid.h), np.sqrt(float(N))
    Bc = np.empty((N, steps), dtype=np.complex128)
    for k in range(steps):
        basis = np.zeros((steps, 1), dtype=np.complex128)
        basis[k, 0] = 1.0
        gf = controllability_map(disc, SampledSignal(grid, basis,
                                                     p=triple.p))
        Bc[:, k] = gf.values[:N]
    Cc = np.empty((steps, N), dtype=np.complex128)
    for i in range(N):
        e = np.zeros(N + 1, dtype=np.complex128)
        e[i] = 1.0
        y = observability_map(disc, GridFunction(e, p=triple.p),
                              require_domain=False)
        Cc[:, i] = y.values.reshape(-1)
    T = np.zeros((N, N), dtype=np.complex128)
    for i in range(N):
        if i + q * steps < N:
            T[i, i + q * steps] = 1.0
    if triple.mu_shift:
        T = T * np.exp(-triple.mu_shift * grid.t0)
    return (Bc / sqrt_N) / sqrt_h, sqrt_h * Cc * sqrt_N, T


@pytest.mark.parametrize("triple, grid", [
    (transport_triple(N=64, atoms=LITTLE_MASS_ATOMS), TimeGrid(0.5, 32)),
    (transport_triple(N=64, atoms=((0.0, 0.25), (0.5, 0.1 + 0.2j)),
                      density=(0.1 + 0.05j,) * 64, mu_shift=1.5),
     TimeGrid(0.5, 16)),
    (transport_triple(N=32, atoms=((0.25, 0.4), (1.0, 0.2)), mu_shift=0.7),
     TimeGrid(1.0, 16)),
    (transport_triple(N=16, density=(0.3,) * 16), TimeGrid(0.25, 4)),
    (transport_triple(N=16, atoms=((0.5, 0.5),)), TimeGrid(2.0, 16)),
], ids=["two-atoms", "atom-at-0-density-shift-stride-2",
        "atom-at-1-shift-stride-2", "density-short", "beyond-one"])
def test_transport_frames_equal_probed_maps(triple, grid):
    # the index-arithmetic frames are the probed ones, bit for bit
    for got, want in zip(triple.discretize(grid).euclidean_frames(),
                         probed_transport_frames(triple, grid)):
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def count_calls(monkeypatch, name, *modules):
    """Count calls of ``name`` made through each of ``modules``."""
    calls = []
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("world", ["matrix", "transport"])
def test_growth_check_builds_no_io_matrix(world, monkeypatch):
    # the margin comes off F's lag-0 block: no F build, no eigensolve
    if world == "matrix":
        triple, grid = stable_triple(53, n=3, m=2), TimeGrid(0.5, 16)
    else:
        triple, grid = (transport_triple(N=64, atoms=LITTLE_MASS_ATOMS),
                        TimeGrid(0.5, 32))
    expected = long_horizon_growth_check(triple, grid, (0.5, 1.0))
    refuse_dense_f(monkeypatch, grid.steps * triple.control_dim)
    eigs = count_calls(monkeypatch, "eigenvalues", numkit)
    maps = (count_calls(monkeypatch, "controllability_map", admissibility,
                        perturbation)
            + count_calls(monkeypatch, "observability_map", admissibility,
                          perturbation))
    assert long_horizon_growth_check(triple, grid, (0.5, 1.0)) == expected
    assert eigs == []
    assert maps == []


@pytest.mark.parametrize("world", ["matrix", "transport"])
def test_feedback_semigroup_and_vop_build_no_io_matrix(world, monkeypatch):
    if world == "matrix":
        triple, grid = stable_triple(53, n=3, m=2), TimeGrid(0.5, 16)
        x = numkit.random_vector(numkit.make_rng(54), 3)
    else:
        triple, grid = (transport_triple(N=64, atoms=LITTLE_MASS_ATOMS),
                        TimeGrid(0.5, 32))
        x = compatible_state(triple.mu, triple.N, triple.p)
    expected = (weiss_staffans_semigroup(triple, grid, grid.t0, x),
                variation_of_parameters_residual(triple, grid, grid.t0, x))
    refuse_dense_f(monkeypatch, grid.steps * triple.control_dim)
    ws = weiss_staffans_semigroup(triple, grid, grid.t0, x)
    vop = variation_of_parameters_residual(triple, grid, grid.t0, x)
    assert triple.state_norm(ws - expected[0]) == 0.0
    assert vop == expected[1]


def test_transport_feedback_semigroup_beyond_io_size_cap():
    # 8192 steps, twice the 4096 columns a dense F was once capped at: the
    # feedback semigroup never forms F; both atoms sit whole strides below
    # s = 1, so VoP is exact
    triple = transport_triple(N=8192, atoms=LITTLE_MASS_ATOMS)
    grid = TimeGrid(1.0, 8192)
    x = compatible_state(triple.mu, triple.N, triple.p)
    ws = weiss_staffans_semigroup(triple, grid, grid.t0, x)
    assert np.isfinite(ws.values).all()
    assert triple.state_norm(ws) > 0.1 * triple.state_norm(x)
    vop = variation_of_parameters_residual(triple, grid, grid.t0, x)
    assert vop <= 1e-10


def test_p3_certificate_and_rescaling_beyond_io_size_cap():
    # 8192 columns, twice the 4096 a dense F was once capped at: the p = 3
    # certificate and the rescaling identities apply F by FFT products
    grid = TimeGrid(0.5, 8192)
    cert = generation_certificate(README_TRIPLE, grid, 3.0, 1.0, 4.0,
                                  numkit.make_rng(42))
    assert cert.verdict == "generated", cert.notes
    res = admissibility.rescaled_map_identities(README_TRIPLE, grid, 1.0,
                                                trials=3)
    assert res.max_residual() <= 1e-9


@pytest.mark.parametrize("steps", [8192, 16384])
def test_p2_certificate_beyond_io_size_cap(steps):
    # two and four times the 4096 columns a dense F was once capped at
    # (the cap made the verdict inconclusive): the p = 2 norm is Lanczos on
    # F's FFT products, and the traced peak stays below a bound linear in
    # steps that one dense F (8 steps^2 bytes) would exceed many times over
    grid = TimeGrid(0.5, steps)
    tracemalloc.start()
    try:
        cert = generation_certificate(README_TRIPLE, grid, 2.0, 1.0, 3.0,
                                      numkit.make_rng(42))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.verdict == "generated", cert.notes
    fb = cert.conditions["feedback"]
    assert fb["io_norm_certifies"] and 0.0 < fb["io_norm"] < 1.0
    assert peak < 24_000 * steps


def test_matrix_certificate_takes_one_eigensolve(monkeypatch):
    # the spectral abscissa is the certificate's one eigensolve: its ten
    # perturbed resolvents rely on numkit.solve's pivot test to refuse a
    # lambda on the spectrum
    calls = []
    eigenvalues = numkit.eigenvalues

    def counted(A):
        calls.append(np.shape(A))
        return eigenvalues(A)
    monkeypatch.setattr(numkit, "eigenvalues", counted)
    cert = generation_certificate(README_TRIPLE, TimeGrid(0.5, 32), 2.0, 1.0,
                                  3.0, numkit.make_rng(42))
    assert cert.verdict == "generated", cert.notes
    assert calls == [(2, 2)]


@pytest.mark.parametrize("triple, grid, beta, verdict, transfers", [
    (README_TRIPLE, TimeGrid(0.5, 32), 3.0, "generated", 0),
    (transport_triple(N=64, atoms=((1.0, 1.0),)), TimeGrid(1.0, 64), 2.0,
     "not_generated", 10),
], ids=["matrix-route", "transport-unit-atom"])
def test_certificate_reads_the_transfer_track_only_without_a_route(
        monkeypatch, triple, grid, beta, verdict, transfers):
    # the transfer track on the nominal line decides only whether a
    # certificate without a feedback route is not_generated, so a
    # certificate with a route evaluates no transfer; the matrix one then
    # makes two solves per perturbed resolvent (R(lam, A), then the
    # feedback), 20 in all
    counts = {"transfer": 0, "solve": 0}
    transfer, solve = type(triple).transfer, numkit.solve

    def counted_transfer(self, lam):
        counts["transfer"] += 1
        return transfer(self, lam)

    def counted_solve(A, b):
        counts["solve"] += 1
        return solve(A, b)
    monkeypatch.setattr(type(triple), "transfer", counted_transfer)
    monkeypatch.setattr(numkit, "solve", counted_solve)
    cert = generation_certificate(triple, grid, 2.0, 1.0, beta,
                                  numkit.make_rng(14))
    assert cert.verdict == verdict, cert.notes
    assert counts["transfer"] == transfers
    if triple.world == "matrix":
        assert counts["solve"] == 20


#: (F's column count, call): each call applies F or takes its norm
NO_DENSE_F_CALLS = {
    "estimate_constants-p2": (32, lambda: estimate_constants(
        README_TRIPLE, TimeGrid(0.5, 32), 2.0, 1.0, 3.0, trials=4,
        rng=numkit.make_rng(1))),
    "estimate_constants-p3": (32, lambda: estimate_constants(
        README_TRIPLE, TimeGrid(0.5, 32), 3.0, 1.0, 4.0, trials=4,
        rng=numkit.make_rng(1))),
    "certificate-p2": (32, lambda: generation_certificate(
        README_TRIPLE, TimeGrid(0.5, 32), 2.0, 1.0, 3.0, numkit.make_rng(2))),
    "certificate-p3": (32, lambda: generation_certificate(
        README_TRIPLE, TimeGrid(0.5, 32), 3.0, 1.0, 4.0, numkit.make_rng(2))),
    "certificate-transport-p2": (16, lambda: generation_certificate(
        transport_triple(N=32, atoms=LITTLE_MASS_ATOMS), TimeGrid(0.5, 16),
        2.0, 1.0, 3.0, numkit.make_rng(3))),
    "certificate-transport-p3": (16, lambda: generation_certificate(
        transport_triple(N=32, atoms=LITTLE_MASS_ATOMS), TimeGrid(0.5, 16),
        3.0, 1.0, 4.0, numkit.make_rng(3))),
    "feedback_admissible-p2": (24, lambda: feedback_admissible(
        stable_triple(26, n=3, m=2), TimeGrid(0.8, 12), 2.0)),
    "rescaled_map_identities": (32, lambda:
                                admissibility.rescaled_map_identities(
                                    README_TRIPLE, TimeGrid(0.5, 32), 1.0)),
    "mv_suite": (32, lambda: mv_suite(
        MatrixTriple(np.array([[-1.0, 0.2], [0.0, -2.0]]), np.eye(2),
                     np.array([[0.3, -0.4], [0.1, 0.2]])),
        TimeGrid(0.5, 16), 3.0, numkit.make_rng(4))),
    "mv_suite-p2": (32, lambda: mv_suite(
        MatrixTriple(np.array([[-1.0, 0.2], [0.0, -2.0]]), np.eye(2),
                     np.array([[0.3, -0.4], [0.1, 0.2]])),
        TimeGrid(0.5, 16), 2.0, numkit.make_rng(4))),
}


@pytest.mark.parametrize("call", sorted(NO_DENSE_F_CALLS))
def test_products_with_f_build_no_dense_f(call, monkeypatch):
    # every product with F is an FFT product with its first block column,
    # and every norm of F comes off that column: at p = 2 by Lanczos on
    # the products, so no dense F reaches a norm at any p
    columns, run = NO_DENSE_F_CALLS[call]
    refuse_dense_f(monkeypatch, columns)
    run()


def test_certificate_builds_no_dense_f(monkeypatch):
    # README triple: ||F|| < 1 at t0, so the bypass search reuses the
    # feedback report and builds nothing; the report's F is one first
    # block column, and its p = 2 norm one Lanczos run on its products
    triple = README_TRIPLE
    grid = TimeGrid(0.5, 32)
    refuse_dense_f(monkeypatch, 32)
    columns = count_calls(monkeypatch, "feedback_column",
                          MatrixDiscretization)
    norms = count_calls(monkeypatch, "lanczos_norms", numkit)
    cert = generation_certificate(triple, grid, 2.0, 1.0, 3.0,
                                  numkit.make_rng(42))
    assert cert.verdict == "generated"
    fb = cert.conditions["feedback"]
    assert fb["bypass"]["io_norms"] == (fb["io_norm"],)
    assert fb["bypass"]["fitted_rate"] is None   # one horizon: no rate
    assert [d.grid for d, in columns] == [grid]
    assert [list(sizes) for _, _, sizes in norms] == [[32]]


def test_bypass_search_builds_only_shorter_horizons(monkeypatch):
    # ||F|| >= 1 at t0: the first entry is the given report's norm, the
    # next ones come from one feedback_column per halved horizon
    triple = transport_triple(N=32, atoms=((0.25, 1.5),))
    grid = TimeGrid(1.0, 32)
    fb = feedback_admissible(triple, grid, 2.0)
    assert fb.io_norm >= 1.0 and not fb.io_norm_certifies
    columns = count_calls(monkeypatch, "feedback_column",
                          transport.TransportDiscretization)
    entry, found = perturbation._bypass_search(triple, grid, 2.0, 1.0, 3.0,
                                               fb)
    assert entry["io_norms"][0] == fb.io_norm
    assert [d.grid.t0 for d, in columns] == list(entry["horizons"][1:])
    assert entry["found"] and found.t0 == entry["t1"] < grid.t0
    assert entry["io_norms"][-1] < 1.0


def test_certificate_at_p3_reads_the_bypass_norms_off_columns(monkeypatch):
    # ||F|| = 1.5 until the horizon drops below the atom's lag: the bypass
    # halves twice, each norm the Riesz-Thorin value of the dense F's exact
    # 1- and inf-norms, from one feedback_column per horizon and no dense F:
    # the trial products are FFT products with the column too
    triple = transport_triple(N=32, atoms=((0.25, 1.5),))
    grid = TimeGrid(2.0, 64)

    def riesz_thorin(g, p=3.0):
        F = io_matrix(triple.discretize(g))
        return (numkit.induced_norm(F, 1) ** (1.0 / p)
                * numkit.induced_norm(F, np.inf) ** (1.0 - 1.0 / p))
    want = [riesz_thorin(TimeGrid(t, n)) for t, n in
            ((2.0, 64), (1.0, 32), (0.5, 16))]
    assert want[0] == pytest.approx(1.5) and want[2] == 0.0
    refuse_dense_f(monkeypatch, 64, 32, 16)
    columns = count_calls(monkeypatch, "feedback_column",
                          transport.TransportDiscretization)
    cert = generation_certificate(triple, grid, 3.0, 1.0, 3.0,
                                  numkit.make_rng(5))
    assert cert.verdict == "generated"
    fb = cert.conditions["feedback"]
    bypass = fb["bypass"]
    assert bypass["found"] and bypass["t1"] == 0.5
    assert bypass["horizons"] == (2.0, 1.0, 0.5)
    assert bypass["io_norms"][0] == fb["io_norm"]
    for got, exact in zip(bypass["io_norms"], want):
        assert got == pytest.approx(exact, rel=1e-14, abs=0.0)
    assert [d.grid.t0 for d, in columns] == [2.0, 1.0, 0.5]


def test_vop_closed_loop_samples_match_walk():
    # the matrix-world VoP samples are observability_map of (A + BC, B, C);
    # the old per-step walk in e^{h(A + BC)} agrees to roundoff
    triple = stable_triple(54, n=3, m=2)
    grid = TimeGrid(0.8, 24)
    x = numkit.random_vector(numkit.make_rng(55), 3)
    closed = MatrixTriple(triple.A + triple.B @ triple.C, triple.B,
                          triple.C)
    samples = observability_map(closed.discretize(grid), x).values
    E = numkit.expm(closed.A, grid.h)
    walk = np.empty_like(samples)
    v = x
    for k in range(grid.steps):
        walk[k] = triple.C @ v
        v = E @ v
    assert np.abs(samples - walk).max() <= 1e-14 * np.abs(walk).max()


def counted_expm(monkeypatch):
    """The ``(matrix bytes, t)`` pair of every ``numkit.expm`` call."""
    pairs = []
    expm = numkit.expm

    def counted(A, t=1.0):
        pairs.append((np.asarray(A).tobytes(), float(t)))
        return expm(A, t)
    monkeypatch.setattr(numkit, "expm", counted)
    return pairs


@pytest.mark.parametrize("entry, distinct", [
    (lambda T, g, x: long_horizon_growth_check(T, g, (0.5, 1.0)), 2),
    (lambda T, g, x: weiss_staffans_semigroup(T, g, g.t0, x), 2),
    (lambda T, g, x: variation_of_parameters_residual(T, g, g.t0, x), 3),
    (lambda T, g, x: admissibility.rescaled_map_identities(T, g, 1.0), 2),
], ids=["growth", "feedback-semigroup", "vop", "rescaling"])
def test_one_expm_per_distinct_matrix_and_time(entry, distinct, monkeypatch):
    # e^{hA} is built once per (triple, grid), by its discretization; the
    # pairs are (A, h) and (A, t0), plus (A + BC, h) for the VoP reference
    # and (A - mu, h) for the rescaled triple (5, 4, 7 and 6 calls before)
    pairs = counted_expm(monkeypatch)
    entry(README_TRIPLE, TimeGrid(0.5, 32), np.array([1.0, 0.0]))
    assert len(pairs) == len(set(pairs)) == distinct


def test_transport_certificate_reads_phi_once_per_triple(monkeypatch):
    # the triple keeps its Phi coefficients and every map on every grid
    # reads them (22 phi_coefficients calls per certificate before)
    calls = count_calls(monkeypatch, "phi_coefficients", transport)
    triple = transport_triple(N=64, atoms=LITTLE_MASS_ATOMS)
    assert len(calls) == 1
    cert = generation_certificate(triple, TimeGrid(0.5, 32), 2.0, 1.0, 3.0,
                                  numkit.make_rng(42))
    assert cert.verdict == "generated"
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# generation certificate
# ---------------------------------------------------------------------------

def test_certificate_zero_observation_generated():
    triple = zero_observation(11)
    cert = generation_certificate(triple, TimeGrid(0.8, 16), 2.0, 2.0,
                                  2.0, numkit.make_rng(12))
    assert cert.verdict == "generated"
    assert cert.conditions["M_observe"] == 0.0
    assert cert.conditions["M_io"]["value"] == 0.0
    assert cert.conditions["feedback"]["ok"]
    assert len(cert.resolvent_residuals) == 10
    assert all(res <= thr for _, res, thr in cert.resolvent_residuals)


def test_certificate_transport_two_atoms_generated():
    triple = transport_triple(N=64, atoms=LITTLE_MASS_ATOMS)
    cert = generation_certificate(triple, TimeGrid(1.0, 64), 2.0, 1.0,
                                  2.0, numkit.make_rng(13))
    assert cert.verdict == "generated"
    assert cert.conditions["compatibility"]["ok"]
    fb = cert.conditions["feedback"]
    assert fb["ok"] or fb["bypass"]["found"]


def test_certificate_unit_atom_not_generated():
    triple = transport_triple(N=64, atoms=((1.0, 1.0),))
    cert = generation_certificate(triple, TimeGrid(1.0, 64), 2.0, 1.0,
                                  2.0, numkit.make_rng(14))
    assert cert.verdict == "not_generated"
    assert not cert.conditions["feedback"]["ok"]
    assert any("identically 1" in note for note in cert.notes)


def test_transfer_is_one_compares_with_the_identity_at_any_dimension():
    # stub triples whose transfer is one constant matrix at every lambda
    def constant(H):
        return types.SimpleNamespace(transfer=lambda lam: H)
    line = perturbation._vertical_line(0.0, 1.0)
    assert perturbation._transfer_is_one(constant(np.eye(2)), line)
    assert perturbation._transfer_is_one(constant(np.ones((1, 1))), line)
    assert not perturbation._transfer_is_one(constant(np.full((1, 1), 0.5)),
                                             line)
    assert not perturbation._transfer_is_one(constant(0.5 * np.eye(2)),
                                             line)


def test_certificate_half_atom_generated():
    triple = transport_triple(N=64, atoms=((1.0, 0.5),))
    cert = generation_certificate(triple, TimeGrid(1.0, 64), 2.0, 2.0,
                                  2.0, numkit.make_rng(15))
    assert cert.verdict == "generated"
    assert cert.conditions["feedback"]["margin"] == pytest.approx(0.5,
                                                                  abs=1e-9)


def test_certificate_rescaling_coherence():
    triple = transport_triple(N=64, atoms=LITTLE_MASS_ATOMS)
    grid = TimeGrid(1.0, 64)
    plain = generation_certificate(triple, grid, 2.0, 2.0, 2.0,
                                   numkit.make_rng(16))
    shifted = generation_certificate(rescale(triple, 1.0), grid, 2.0, 2.0,
                                     2.0, numkit.make_rng(16))
    assert plain.verdict == shifted.verdict == "generated"
    m0 = plain.conditions["feedback"]["margin"]
    m1 = shifted.conditions["feedback"]["margin"]
    assert abs(m0 - m1) <= 1e-9
    assert shifted.mu_shift == pytest.approx(1.0)


def test_certificate_validates_exponents():
    with pytest.raises(ValueError):
        generation_certificate(SCALAR, TimeGrid(1.0, 8), 2.0, 3.0, 1.0,
                               numkit.make_rng(17))
    with pytest.raises(ValueError):
        # alpha = beta != p has neither route
        generation_certificate(SCALAR, TimeGrid(1.0, 8), 2.0, 1.5, 1.5,
                               numkit.make_rng(18))


def test_certificate_numkit_failure_is_inconclusive(monkeypatch):
    def fail(*args, **kwargs):
        raise numkit.ConvergenceError("no convergence")
    monkeypatch.setattr(perturbation, "_constants_and_feedback", fail)
    cert = generation_certificate(SCALAR, TimeGrid(1.0, 8), 2.0, 1.0, 3.0,
                                  numkit.make_rng(21))
    assert cert.verdict == "inconclusive"
    assert any("ConvergenceError: no convergence" in note
               for note in cert.notes)


def test_certificate_bug_propagates(monkeypatch):
    def fail(*args, **kwargs):
        raise TypeError("a bug, not a numerical failure")
    monkeypatch.setattr(perturbation, "_constants_and_feedback", fail)
    with pytest.raises(TypeError):
        generation_certificate(SCALAR, TimeGrid(1.0, 8), 2.0, 1.0, 3.0,
                               numkit.make_rng(22))


@pytest.mark.parametrize("world", ["matrix", "transport"])
def test_certificate_shares_one_feedback_report(world, monkeypatch):
    # the constants stage hands its feedback report to the certificate:
    # the same numbers as the public functions, without a second build
    if world == "matrix":
        triple, grid = stable_triple(27, n=3, m=2), TimeGrid(0.8, 16)
    else:
        # the atom at s = 1 puts the margin at 0.8, away from 1
        triple = transport_triple(N=32, atoms=((0.5, 0.3), (1.0, 0.2)))
        grid = TimeGrid(1.0, 32)
    report = estimate_constants(triple, grid, 2.0, 1.0, 3.0, trials=12,
                                rng=numkit.make_rng(28))
    fb = feedback_admissible(triple, grid, 2.0)

    def fail(*args, **kwargs):
        raise AssertionError("feedback_admissible called by the certificate")
    monkeypatch.setattr(admissibility, "feedback_admissible", fail)
    cert = generation_certificate(triple, grid, 2.0, 1.0, 3.0,
                                  numkit.make_rng(28))
    c = cert.conditions
    assert (c["M_control"], c["M_observe"], c["M_io"]["value"]) == (
        report.M_control, report.M_observe, report.M_io)
    assert {key: c["feedback"][key] for key in fb._fields} == fb._asdict()
    assert report.margin == fb.margin


def test_certificate_carries_surrogate_disclaimer():
    cert = generation_certificate(zero_observation(19), TimeGrid(0.5, 8),
                                  2.0, 2.0, 2.0, numkit.make_rng(20))
    assert any("surrogate" in note for note in cert.notes)


def test_certificate_takes_three_matrix_exponentials(monkeypatch):
    # one e^{hA} each for F, the control matrix and the observability
    # matrix, however many trial signals and states the estimate draws
    triple = MatrixTriple(np.array([[-1.0, 0.2], [0.0, -2.0]]),
                          np.array([[1.0], [0.5]]), np.array([[0.3, -0.4]]))
    calls = count_calls(monkeypatch, "expm", numkit)
    cert = generation_certificate(triple, TimeGrid(0.5, 32), 2.0, 1.0, 3.0,
                                  numkit.make_rng(42))
    assert cert.verdict == "generated"
    assert len(calls) <= 3
