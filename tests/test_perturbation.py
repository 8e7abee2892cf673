import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import (compatible_state, stable_triple, taylor_expm,
                      transport_triple)
from sgperturb import admissibility, numkit, perturbation, transport
from sgperturb.admissibility import (SampledSignal, TimeGrid,
                                     controllability_map, estimate_constants,
                                     feedback_admissible, io_matrix,
                                     observability_map)
from sgperturb.perturbation import (
    FeedbackSingularError,
    generation_certificate,
    long_horizon_growth_check,
    perturbed_generator,
    perturbed_resolvent,
    transfer_function,
    variation_of_parameters_residual,
    weiss_staffans_semigroup,
)
from sgperturb.semigroup import (
    GridFunction,
    MatrixTriple,
    apply_semigroup,
    rescale,
    volterra_resolvent_values,
)
from sgperturb.toeplitz import (feedback_inverse_norm_bound,
                                feedback_toeplitz_inverse)
from sgperturb.transport import (
    BorelMeasure,
    apply_phi,
    dirichlet_operator,
    phi_coefficients,
    solve_pde,
    transfer_scalar,
    upwind_generator,
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
# perturbed generator
# ---------------------------------------------------------------------------

def test_generator_zero_observation_is_A():
    triple = zero_observation()
    gen = perturbed_generator(triple)
    assert gen.world == "matrix"
    assert np.array_equal(gen.matrix, triple.A)


def test_generator_scalar_sum():
    gen = perturbed_generator(SCALAR)
    assert_allclose(gen.matrix, [[-0.5]], atol=0)


def test_generator_transport_half_atom_equals_unperturbed():
    triple = transport_triple(N=16, atoms=((1.0, 0.5),))
    gen = perturbed_generator(triple)
    assert np.array_equal(gen.matrix, upwind_generator(BorelMeasure(), 16))


def test_generator_transport_unit_atom_degenerate():
    triple = transport_triple(N=16, atoms=((1.0, 1.0),))
    gen = perturbed_generator(triple)
    assert gen.degenerate
    assert gen.matrix is None


def test_generator_transport_folds_spectral_shift():
    plain = transport_triple(N=16, atoms=((0.5, 0.4),))
    shifted = transport_triple(N=16, atoms=((0.5, 0.4),), mu_shift=2.0)
    d = perturbed_generator(shifted).matrix - perturbed_generator(plain).matrix
    assert_allclose(d, -2.0 * np.eye(16), atol=1e-14)


# ---------------------------------------------------------------------------
# transfer function
# ---------------------------------------------------------------------------

def test_transfer_zero_control():
    triple = MatrixTriple(np.array([[-1.0]]), np.zeros((1, 1)),
                          np.array([[1.0]]))
    assert np.abs(transfer_function(triple, 2.0)).max() == 0.0


def test_transfer_scalar_at_zero():
    triple = MatrixTriple(np.array([[-1.0]]), np.array([[1.0]]),
                          np.array([[1.0]]))
    assert transfer_function(triple, 0.0)[0, 0] == pytest.approx(1.0)


def test_transfer_transport_atom_is_constant_alpha():
    triple = transport_triple(N=16, atoms=((1.0, 0.5),))
    for lam in (0.0, 1.0, -1.0 + 2.0j):
        assert transfer_function(triple, lam)[0, 0] == pytest.approx(0.5)


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
        transfer_function(SCALAR, -1.0)


# ---------------------------------------------------------------------------
# perturbed resolvent
# ---------------------------------------------------------------------------

def test_resolvent_zero_observation_reduces_to_plain():
    triple = zero_observation(3)
    lam = 1.5 + 0.5j
    Q = perturbed_resolvent(triple, lam)
    R = np.linalg.inv(lam * np.eye(4) - triple.A)
    assert np.abs(Q - R).max() <= 1e-12 * np.abs(R).max()


def test_resolvent_scalar_closed_form():
    Q = perturbed_resolvent(SCALAR, 0.0)
    assert_allclose(Q, [[2.0]], rtol=1e-12)


def test_resolvent_matches_direct_inverse_20_lambdas():
    triple = stable_triple(42, n=5, m=2)
    Apert = triple.A + triple.B @ triple.C
    rng = numkit.make_rng(43)
    count = 0
    while count < 20:
        lam = complex(rng.uniform(1.0, 4.0), rng.uniform(-4.0, 4.0))
        try:
            Q = perturbed_resolvent(triple, lam)
        except (FeedbackSingularError, numkit.SingularMatrixError):
            continue
        direct = np.linalg.inv(lam * np.eye(5) - Apert)
        assert np.linalg.norm(Q - direct) <= 1e-10 * np.linalg.norm(Q)
        count += 1


def test_resolvent_equation_for_Q():
    triple = stable_triple(44, n=4, m=2)
    lam, nu = 2.0 + 1.0j, 3.0 - 0.5j
    Ql = perturbed_resolvent(triple, lam)
    Qn = perturbed_resolvent(triple, nu)
    assert np.abs((Ql - Qn) - (nu - lam) * (Ql @ Qn)).max() <= 1e-8


def test_resolvent_transport_atom_identity():
    # alpha delta_1: the lift term vanishes and Q = R acts on any f
    triple = transport_triple(N=64, atoms=((1.0, 0.5),))
    f = GridFunction(np.sin(np.pi * np.arange(65) / 64))
    lam = 1.0
    Q = perturbed_resolvent(triple, lam)
    out = Q(f)
    plain = volterra_resolvent_values(lam, f.values)
    assert np.abs(out.values - plain).max() <= 1e-12


def test_resolvent_feedback_singularity_raises():
    triple = transport_triple(N=32, atoms=((1.0, 1.0),))
    with pytest.raises(FeedbackSingularError):
        perturbed_resolvent(triple, 2.0)


def test_resolvent_transport_residual_small():
    # (lam - A^Phi) Q f = f checked through the upwind discretization
    triple = transport_triple(N=256, atoms=LITTLE_MASS_ATOMS)
    lam = 1.0 + 1.0j
    rngv = numkit.make_rng(45)
    f = numkit.random_vector(rngv, 257)
    f[-1] = 0.0
    g = perturbed_resolvent(triple, lam)(GridFunction(f)).values
    N = triple.N
    interior = lam * g[:N] - N * (g[1:] - g[:N]) - f[:N]
    coef = phi_coefficients(triple.mu, N)
    boundary = abs(g[N] - coef @ g)
    res = max(np.abs(interior).max(), boundary) / np.abs(f).max()
    assert res <= 50.0 * (1.0 + abs(lam)) ** 2 / N


def test_resolvent_transport_builds_phi_once(monkeypatch):
    # Q reads Phi from one coefficient vector, with the same bits as
    # apply_phi, however often it is applied
    triple = transport_triple(N=64, atoms=LITTLE_MASS_ATOMS)
    lam = 2.0 + 3.0j
    fs = [np.ones(65), np.arange(65.0), np.cos(np.arange(65.0))]
    builds = count_calls(monkeypatch, "phi_coefficients", transport)
    Q = perturbed_resolvent(triple, lam)
    outs = [Q(f).values for f in fs]
    assert len(builds) == 1
    gain = 1.0 / (1.0 - transfer_scalar(triple.mu, lam))
    lift = dirichlet_operator(lam, 1.0, 64).values
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
    assert np.abs(out - apply_semigroup(triple, 0.8, x)).max() <= 1e-12


def test_ws_zero_measure_is_unperturbed_transport():
    triple = transport_triple(N=32, atoms=())
    grid = TimeGrid(1.0, 32)
    x = GridFunction(np.r_[np.sin(np.pi * np.arange(32) / 32), 0.0])
    out = weiss_staffans_semigroup(triple, grid, 1.0, x)
    free = apply_semigroup(triple, 1.0, x)
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


@pytest.mark.parametrize("world", ["matrix", "transport"])
def test_ws_feedback_forward_substitution_matches_lu(world):
    # I - F is lower triangular in both worlds; the transport diagonal
    # 1 - w(1) = 0.6 comes from the atom at s = 1
    grid = TimeGrid(0.5, 32)
    if world == "matrix":
        triple = stable_triple(17, n=4, m=2, scale=3.0)
    else:
        triple = transport_triple(N=64, atoms=((0.5, 0.3), (1.0, 0.4)),
                                  density=(0.2,) * 64)
    IF = np.eye(grid.steps * triple.control_dim) - io_matrix(triple, grid)
    assert np.abs(IF - np.eye(IF.shape[0])).max() > 0.1
    rhs = numkit.random_vector(numkit.make_rng(18), IF.shape[0])
    y = numkit.solve_lower_triangular(IF, rhs)
    ref = numkit.solve(IF, rhs)
    assert np.linalg.norm(y - ref) <= 1e-12 * np.linalg.norm(ref)


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
    comp = weiss_staffans_semigroup(triple, grid, 0.8, x, mu_shift=1.5)
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
                                    (0.5, 1.0, 2.0), n_max=6)
    assert rep.all_dominated
    assert len(rep.block_entries) == 6
    for _, lhs, rhs in rep.block_entries:
        assert lhs <= rhs * (1.0 + 1e-12)


def test_growth_transport_needs_feedback_margin():
    triple = transport_triple(N=16, atoms=((1.0, 1.0),))
    with pytest.raises(ValueError):
        long_horizon_growth_check(triple, TimeGrid(1.0, 16), (0.0,))


@pytest.mark.parametrize("world", ["matrix", "transport"])
def test_growth_entries_equal_per_block_bound(world):
    # one norm-chain build gives exactly the per-n values
    if world == "matrix":
        triple, grid = stable_triple(52, n=3, m=2), TimeGrid(0.5, 16)
    else:
        triple = transport_triple(N=32, atoms=LITTLE_MASS_ATOMS)
        grid = TimeGrid(1.0, 32)
    rep = long_horizon_growth_check(triple, grid, (0.5, 1.0, 2.0), n_max=5)
    F, B, C, T = perturbation._euclidean_frames(triple, grid)
    eye = np.eye(F.shape[0], dtype=np.complex128)
    G = numkit.solve(eye - F, eye)
    s = numkit.induced_norm(T + B @ G @ C, 2)
    assert rep.surrogate_norm == s
    assert rep.mu_entries == tuple(
        (mu, float(np.exp(mu * grid.t0)), bool(s < np.exp(mu * grid.t0)))
        for mu in (0.5, 1.0, 2.0))
    assert rep.block_entries == tuple(
        (n, *feedback_inverse_norm_bound(F, B, C, T, n)) for n in range(1, 6))


README_TRIPLE = MatrixTriple(np.array([[-1.0, 0.2], [0.0, -2.0]]),
                            np.array([[1.0], [0.5]]), np.array([[0.3, -0.4]]))


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
    rep = long_horizon_growth_check(triple, grid, (0.5, 1.0, 2.0, 4.0),
                                    n_max=6)
    assert rep.all_dominated
    frames = perturbation._euclidean_frames(triple, grid)
    q = frames[0].shape[0]
    assert q == 128
    _, inverse = feedback_toeplitz_inverse(*frames, 6)
    assert [n for n, _, _ in rep.block_entries] == list(range(1, 7))
    for n, lhs, _ in rep.block_entries:
        oracle = np.linalg.svd(inverse[:n * q, :n * q], compute_uv=False)[0]
        assert abs(lhs - oracle) <= 1e-12 * oracle


def test_growth_transport_two_atoms():
    triple = transport_triple(N=32, atoms=LITTLE_MASS_ATOMS)
    rep = long_horizon_growth_check(triple, TimeGrid(1.0, 32),
                                    (0.5, 1.0, 2.0), n_max=4)
    assert rep.all_dominated
    assert any(ok for _, _, ok in rep.mu_entries)


def probed_transport_frames(triple, grid):
    """The transport (B, C, T) frames built by probing the maps (oracle):
    one controllability_map per basis signal, one observability_map per
    node, and T filled entry by entry."""
    steps, N = grid.steps, triple.N
    q = round(grid.h * N)
    sqrt_h, sqrt_N = np.sqrt(grid.h), np.sqrt(float(N))
    Bc = np.empty((N, steps), dtype=np.complex128)
    for k in range(steps):
        basis = np.zeros((steps, 1), dtype=np.complex128)
        basis[k, 0] = 1.0
        gf = controllability_map(triple, grid,
                                 SampledSignal(grid, basis, p=triple.p))
        Bc[:, k] = gf.values[:N]
    Cc = np.empty((steps, N), dtype=np.complex128)
    for i in range(N):
        e = np.zeros(N + 1, dtype=np.complex128)
        e[i] = 1.0
        y = observability_map(triple, grid, GridFunction(e, p=triple.p),
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
    F, B, C, T = perturbation._euclidean_frames(triple, grid)
    assert np.array_equal(F, io_matrix(triple, grid))
    for got, want in zip((B, C, T), probed_transport_frames(triple, grid)):
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
def test_growth_check_builds_one_io_matrix(world, monkeypatch):
    # the margin comes off the frames' F: no second build, no eigensolve
    if world == "matrix":
        triple, grid = stable_triple(53, n=3, m=2), TimeGrid(0.5, 16)
    else:
        triple, grid = (transport_triple(N=64, atoms=LITTLE_MASS_ATOMS),
                        TimeGrid(0.5, 32))
    expected = long_horizon_growth_check(triple, grid, (0.5, 1.0))
    builds = count_calls(monkeypatch, "io_matrix", admissibility,
                         perturbation)
    eigs = count_calls(monkeypatch, "eigenvalues", numkit)
    maps = (count_calls(monkeypatch, "controllability_map", admissibility,
                        perturbation)
            + count_calls(monkeypatch, "observability_map", admissibility,
                          perturbation))
    assert long_horizon_growth_check(triple, grid, (0.5, 1.0)) == expected
    assert len(builds) == 1
    assert eigs == []
    assert maps == []


def test_certificate_builds_one_io_matrix(monkeypatch):
    # README triple: ||F|| < 1 at t0, so the bypass search reuses the
    # feedback report's norm and builds nothing
    triple = README_TRIPLE
    grid = TimeGrid(0.5, 32)
    builds = count_calls(monkeypatch, "io_matrix", admissibility,
                         perturbation)
    cert = generation_certificate(triple, grid, 2.0, 1.0, 3.0,
                                  numkit.make_rng(42))
    assert cert.verdict == "generated"
    fb = cert.conditions["feedback"]
    assert fb["bypass"]["io_norms"] == (fb["io_norm"],)
    assert len(builds) == 1


def test_bypass_search_builds_only_shorter_horizons(monkeypatch):
    # ||F|| >= 1 at t0: the first entry is the given norm, the next ones
    # come from one build per halved horizon
    triple = transport_triple(N=32, atoms=((0.25, 1.5),))
    grid = TimeGrid(1.0, 32)
    fb = feedback_admissible(triple, grid, 2.0)
    assert fb.io_norm >= 1.0
    builds = count_calls(monkeypatch, "io_matrix", perturbation)
    entry, found = perturbation._bypass_search(triple, grid, 2.0, 1.0, 3.0,
                                               fb.io_norm)
    assert entry["io_norms"][0] == fb.io_norm
    assert [g.t0 for _, g in builds] == list(entry["horizons"][1:])
    assert entry["found"] and found.t0 == entry["t1"] < grid.t0
    assert entry["io_norms"][-1] < 1.0


def test_vop_closed_loop_samples_match_walk():
    # the matrix-world VoP samples are observability_map of (A + BC, B, C);
    # the old per-step walk in e^{h(A + BC)} agrees to roundoff
    triple = stable_triple(54, n=3, m=2)
    grid = TimeGrid(0.8, 24)
    x = numkit.random_vector(numkit.make_rng(55), 3)
    closed = MatrixTriple(triple.A + triple.B @ triple.C, triple.B,
                          triple.C)
    samples = observability_map(closed, grid, x).values
    E = numkit.expm(closed.A, grid.h)
    walk = np.empty_like(samples)
    v = x
    for k in range(grid.steps):
        walk[k] = triple.C @ v
        v = E @ v
    assert np.abs(samples - walk).max() <= 1e-14 * np.abs(walk).max()


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
