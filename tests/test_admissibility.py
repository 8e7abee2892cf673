import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.interpolate import CubicSpline

from conftest import stable_triple, transport_triple
from sgperturb import admissibility, numkit
from sgperturb.admissibility import (
    FEEDBACK_MARGIN,
    SampledSignal,
    TimeGrid,
    controllability_map,
    controllability_matrix,
    estimate_constants,
    feedback_admissible,
    io_map,
    io_matrix,
    observability_map,
    observability_matrix,
    regularity_check,
    rescaled_map_identities,
    smooth_trial_signals,
)
from sgperturb.numkit import ShapeError
from sgperturb.semigroup import GridFunction, MatrixTriple
from sgperturb.transport import BorelMeasure, phi_coefficients

SCALAR = MatrixTriple(np.array([[-1.0]]), np.array([[1.0]]),
                      np.array([[1.0]]))


def constant_signal(grid, value=1.0, m=1):
    return SampledSignal(grid, np.full((grid.steps, m), value))


# ---------------------------------------------------------------------------
# grids and signals
# ---------------------------------------------------------------------------

def test_time_grid_basics():
    grid = TimeGrid(1.0, 4)
    assert grid.h == pytest.approx(0.25)
    assert_allclose(grid.times, [0.0, 0.25, 0.5, 0.75])
    for t0 in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            TimeGrid(t0, 4)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)


def test_sampled_signal_norm_uses_step_weight():
    grid = TimeGrid(1.0, 8)
    u = constant_signal(grid)
    assert u.norm(2) == pytest.approx(1.0)
    assert u.norm(1) == pytest.approx(1.0)
    with pytest.raises(numkit.ShapeError):
        SampledSignal(grid, np.ones(5))


# ---------------------------------------------------------------------------
# controllability map
# ---------------------------------------------------------------------------

def test_controllability_zero_signal():
    grid = TimeGrid(1.0, 16)
    out = controllability_map(SCALAR, grid, constant_signal(grid, 0.0))
    assert np.abs(out).max() == 0.0


def test_controllability_scalar_closed_form():
    # int_0^1 e^{-(1-s)} ds = 1 - e^{-1}, first-order quadrature
    grid = TimeGrid(1.0, 256)
    out = controllability_map(SCALAR, grid, constant_signal(grid))
    assert abs(out[0] - (1.0 - np.exp(-1.0))) <= 2.0 * grid.h


def test_controllability_quadrature_first_order():
    exact = 1.0 - np.exp(-1.0)
    errors = []
    for steps in (32, 64, 128):
        grid = TimeGrid(1.0, steps)
        out = controllability_map(SCALAR, grid, constant_signal(grid))
        errors.append(abs(out[0] - exact))
    for e0, e1 in zip(errors, errors[1:]):
        assert 1.6 <= e0 / e1 <= 2.4


def test_controllability_transport_translates_into_window():
    # horizon 1/2 on N = 4: the signal survives on the window near s = 1
    # and the rest of [0, 1] stays zero (left-endpoint cell attribution)
    triple = transport_triple(N=4)
    grid = TimeGrid(0.5, 2)
    u = SampledSignal(grid, np.array([[2.0], [3.0]]))
    out = controllability_map(triple, grid, u)
    assert_allclose(out.values, [0.0, 0.0, 2.0, 3.0, 0.0], atol=0)


def test_controllability_transport_norm_identity():
    # ||B_t0 u||_p = ||u||_p when the whole signal survives (t0 <= 1)
    triple = transport_triple(N=16, p=3.0)
    grid = TimeGrid(0.5, 8)
    rng = numkit.make_rng(5)
    u = SampledSignal(grid, numkit.random_vector(rng, 8).reshape(-1, 1),
                      p=3.0)
    out = controllability_map(triple, grid, u)
    assert out.norm() == pytest.approx(u.norm(3.0), rel=1e-12)


# ---------------------------------------------------------------------------
# observability map
# ---------------------------------------------------------------------------

def test_observability_zero_state():
    grid = TimeGrid(1.0, 8)
    y = observability_map(SCALAR, grid, np.zeros(1))
    assert np.abs(y.values).max() == 0.0


def test_observability_scalar_samples_decay():
    grid = TimeGrid(1.0, 16)
    y = observability_map(SCALAR, grid, np.ones(1))
    assert_allclose(y.values[:, 0], np.exp(-grid.times), rtol=1e-12)


def test_observability_transport_atom_sees_shifted_sample():
    triple = transport_triple(N=8, atoms=((1.0, 0.5),))
    x = GridFunction(np.r_[np.ones(8), 0.0])  # vanishes at s = 1
    grid = TimeGrid(1.0, 8)
    y = observability_map(triple, grid, x, require_domain=False)
    # (T(t)x)(1) = 0 for every t > 0; at t = 0 the node value is x(1) = 0
    assert np.abs(y.values).max() == 0.0


# ---------------------------------------------------------------------------
# io map and matrix
# ---------------------------------------------------------------------------

def test_io_map_zero_signal():
    grid = TimeGrid(1.0, 8)
    out = io_map(SCALAR, grid, constant_signal(grid, 0.0))
    assert np.abs(out.values).max() == 0.0


def test_io_map_transport_atom_is_scalar_multiple():
    triple = transport_triple(N=16, atoms=((1.0, 0.5),))
    grid = TimeGrid(1.0, 16)
    rng = numkit.make_rng(7)
    u = SampledSignal(grid, numkit.random_vector(rng, 16).reshape(-1, 1))
    out = io_map(triple, grid, u)
    assert np.array_equal(out.values, 0.5 * u.values)


def test_io_map_scalar_closed_form():
    # (F u)(t) = int_0^t e^{-(t-s)} ds = 1 - e^{-t}
    grid = TimeGrid(1.0, 256)
    out = io_map(SCALAR, grid, constant_signal(grid))
    exact = 1.0 - np.exp(-grid.times)
    assert np.abs(out.values[:, 0] - exact).max() <= 2.0 * grid.h


def test_io_quadrature_first_order():
    errors = []
    for steps in (32, 64, 128):
        grid = TimeGrid(1.0, steps)
        out = io_map(SCALAR, grid, constant_signal(grid))
        exact = 1.0 - np.exp(-grid.times)
        errors.append(np.abs(out.values[:, 0] - exact).max())
    for e0, e1 in zip(errors, errors[1:]):
        assert 1.6 <= e0 / e1 <= 2.4


def test_io_matrix_zero_control():
    triple = MatrixTriple(np.array([[-1.0]]), np.zeros((1, 1)),
                          np.array([[1.0]]))
    F = io_matrix(triple, TimeGrid(1.0, 3))
    assert np.array_equal(F, np.zeros((3, 3)))


def test_io_matrix_transport_atom_is_alpha_identity():
    triple = transport_triple(N=16, atoms=((1.0, 0.5),))
    F = io_matrix(triple, TimeGrid(1.0, 16))
    assert np.array_equal(F, 0.5 * np.eye(16))


def test_io_matrix_matches_io_map_exactly():
    triple = stable_triple(19, n=3, m=2)
    grid = TimeGrid(0.8, 12)
    F = io_matrix(triple, grid)
    rng = numkit.make_rng(20)
    u = SampledSignal(grid, numkit.random_matrix(rng, 12, 2))
    direct = io_map(triple, grid, u)
    stacked = (F @ u.values.reshape(-1)).reshape(12, 2)
    assert np.array_equal(stacked, direct.values)


def loop_io_matrix(triple, grid):
    """Block-by-block assembly of the matrix-world io_matrix (oracle)."""
    m, steps = triple.control_dim, grid.steps
    F = np.zeros((steps * m, steps * m), dtype=np.complex128)
    E = numkit.expm(triple.A, grid.h)
    P = triple.B
    for d in range(1, steps):
        P = E @ P
        block = grid.h * (triple.C @ P)
        for j in range(d, steps):
            k = j - d
            F[j * m:(j + 1) * m, k * m:(k + 1) * m] = block
    return F


@pytest.mark.parametrize("steps", [1, 2, 7, 32])
def test_io_matrix_equals_loop_assembly(steps):
    # the lag-indexed fill places the same blocks: equal bit for bit
    triple = stable_triple(23, n=3, m=2)
    grid = TimeGrid(0.7, steps)
    F = io_matrix(triple, grid)
    assert F.shape == (2 * steps, 2 * steps)
    assert np.array_equal(F, loop_io_matrix(triple, grid))


def loop_transport_io_matrix(triple, grid):
    """Per-atom and per-cell loops over the time steps, each read added
    where it lands (oracle of the transport-world io_matrix)."""
    N, steps = triple.N, grid.steps
    q = int(round(grid.h * N))
    j0 = q * steps
    F = np.zeros((steps, steps), dtype=np.complex128)
    for loc, w in triple.mu.atoms:
        a = int(round(loc * N))
        for j in range(steps):
            idx = a + j * q - N
            if 0 <= idx < j0:
                F[j, idx // q] += w
    for cell, d in enumerate(triple.mu.density):
        for j in range(steps):
            t2 = 2 * cell + 1 + 2 * (j * q - N)
            if 0 <= t2 < 2 * j0:
                F[j, t2 // (2 * q)] += d / N
    mu = triple.mu_shift
    if mu:
        tk = grid.times
        F = np.exp(-mu * tk)[:, None] * F * np.exp(mu * tk)[None, :]
    return F


_RAGGED = tuple(np.sin(np.arange(96)) + 0.3j * np.cos(3.0 * np.arange(96)))


@pytest.mark.parametrize("triple, grid", [
    (transport_triple(N=32, density=(0.2 + 0.1j,) * 32, mu_shift=0.9),
     TimeGrid(1.0, 32)),
    (transport_triple(N=32, atoms=((1.0, 0.25j),),
                      density=(0.1 - 0.05j,) * 32, mu_shift=2.0),
     TimeGrid(0.5, 8)),
    (transport_triple(N=32, atoms=((0.25, 0.4), (1.0, 0.2))),
     TimeGrid(1.0, 16)),
    (transport_triple(N=64, atoms=((0.0, 0.25), (1.0, 0.6 + 0.3j)),
                      density=(0.1 + 0.05j,) * 64, mu_shift=1.5),
     TimeGrid(0.5, 16)),
    (transport_triple(N=96, atoms=((0.5, 0.3), (49 / 96, -0.7j),
                                   (1.0, 0.1)),
                      density=_RAGGED, mu_shift=0.4),
     TimeGrid(0.75, 24)),
    (transport_triple(N=96, atoms=((0.0, 1.5), (1 / 96, 0.5)),
                      density=_RAGGED), TimeGrid(2.0, 48)),
], ids=["complex-density-shift", "density-atom-at-1-shift-short",
        "atom-at-1-stride-2", "atoms-density-shift-stride-2",
        "ragged-density-stride-3", "horizon-past-one"])
def test_transport_io_matrix_equals_loop_assembly(triple, grid):
    # the lag-indexed build adds the same reads in the same order: equal
    # bit for bit, also where several atoms or cells share an entry
    F = io_matrix(triple, grid)
    assert F.dtype == np.complex128
    assert np.count_nonzero(F) >= grid.steps
    assert np.array_equal(F, loop_transport_io_matrix(triple, grid))


def test_controllability_matrix_matches_map():
    # column k*m + i is the map applied to the unit signal e_i at t_k
    triple = stable_triple(25, n=3, m=2)
    grid = TimeGrid(0.9, 10)
    Bc = controllability_matrix(triple, grid)
    assert Bc.shape == (3, 20)
    for k in range(grid.steps):
        for i in range(2):
            basis = np.zeros((grid.steps, 2))
            basis[k, i] = 1.0
            col = controllability_map(triple, grid,
                                      SampledSignal(grid, basis))
            assert np.abs(Bc[:, 2 * k + i] - col).max() \
                <= 1e-14 * np.abs(col).max()


def horner_control(triple, grid, u):
    """The matrix-world controllability map as a Horner loop (oracle)."""
    E = numkit.expm(triple.A, grid.h)
    acc = np.zeros(triple.state_dim, dtype=np.complex128)
    for k in range(grid.steps):
        acc = E @ (acc + triple.B @ u.values[k])
    return grid.h * acc


def walked_observe(triple, grid, x):
    """The matrix-world observability samples as a state walk (oracle)."""
    E = numkit.expm(triple.A, grid.h)
    out = np.empty((grid.steps, triple.C.shape[0]), dtype=np.complex128)
    v = x
    for k in range(grid.steps):
        out[k] = triple.C @ v
        v = E @ v
    return out


@pytest.mark.parametrize("n, m, steps", [(1, 1, 8), (3, 1, 17), (3, 2, 32),
                                         (5, 3, 64)])
def test_matrix_maps_match_their_loops(n, m, steps):
    triple = stable_triple(60 + n, n=n, m=m)
    grid = TimeGrid(0.9, steps)
    rng = numkit.make_rng(61)
    for _ in range(3):
        u = SampledSignal(grid, numkit.random_matrix(rng, steps, m))
        want = horner_control(triple, grid, u)
        got = controllability_map(triple, grid, u)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        x = numkit.random_vector(rng, n)
        want = walked_observe(triple, grid, x)
        got = observability_map(triple, grid, x)
        assert got.values.shape == (steps, m)
        assert np.abs(got.values - want).max() <= 1e-14 * np.abs(want).max()


def test_observability_matrix_rows_are_C_exp():
    triple = stable_triple(62, n=3, m=2)
    grid = TimeGrid(0.6, 6)
    O = observability_matrix(triple, grid)
    assert O.shape == (12, 3)
    for k in range(6):
        want = triple.C @ numkit.expm(triple.A, k * grid.h)
        assert np.abs(O[2 * k:2 * k + 2] - want).max() <= 1e-14


ATOM_ONE = ((0.5, 0.3), (1.0, 0.4 - 0.3j))


@pytest.mark.parametrize("triple, grid", [
    (SCALAR, TimeGrid(1.0, 8)),
    (stable_triple(63, n=3, m=1), TimeGrid(0.8, 16)),
    (stable_triple(64, n=3, m=2), TimeGrid(0.8, 16)),
    (stable_triple(65, n=2, m=2), TimeGrid(2.0, 5)),
    (transport_triple(N=64, atoms=((0.5, 0.3), (0.875, 0.2))),
     TimeGrid(0.5, 32)),
    (transport_triple(N=16), TimeGrid(1.0, 16)),
    (transport_triple(N=16, atoms=((0.0, 0.7),)), TimeGrid(1.0, 16)),
    (transport_triple(N=16, atoms=((1.0, 0.5),)), TimeGrid(1.0, 16)),
    (transport_triple(N=16, atoms=((1.0, 1.0),)), TimeGrid(1.0, 16)),
    (transport_triple(N=32, atoms=ATOM_ONE), TimeGrid(0.5, 16)),
    (transport_triple(N=32, atoms=ATOM_ONE, mu_shift=1.3),
     TimeGrid(1.0, 32)),
    (transport_triple(N=32, density=(0.2 + 0.1j,) * 32, mu_shift=0.9),
     TimeGrid(1.0, 32)),
    (transport_triple(N=32, atoms=((1.0, 0.25j),),
                      density=(0.1 - 0.05j,) * 32, mu_shift=2.0),
     TimeGrid(0.5, 8)),
    (transport_triple(N=32, atoms=((0.25, 0.4), (1.0, 0.2))),
     TimeGrid(1.0, 16)),
    (transport_triple(N=64, atoms=((0.0, 0.25), (1.0, 0.6 + 0.3j)),
                      density=(0.1 + 0.05j,) * 64, mu_shift=1.5),
     TimeGrid(0.5, 16)),
], ids=["scalar", "m1", "m2", "m2-long", "two-atoms", "zero-measure",
        "atom-at-0", "half-atom-at-1", "unit-atom-at-1", "complex-atom-at-1",
        "complex-atom-at-1-shift", "complex-density-shift",
        "density-atom-at-1-shift-short", "atom-at-1-stride-2",
        "atoms-density-shift-stride-2"])
def test_feedback_margin_equals_eigensolve(triple, grid):
    # F is lower triangular, so its diagonal is its spectrum: the diagonal
    # read equals the dense eigensolve bit for bit
    oracle = numkit.spectral_radius_distance(io_matrix(triple, grid), 1.0)
    assert feedback_admissible(triple, grid, 2.0).margin == oracle


def test_feedback_margin_rejects_entry_above_diagonal():
    F = np.tril(np.full((6, 6), 0.25 + 0j))
    assert admissibility._feedback_margin(F) == 0.75
    F[1, 4] = 1e-3
    with pytest.raises(ShapeError, match="lower-triangular"):
        admissibility._feedback_margin(F)
    with pytest.raises(ShapeError, match="lower-triangular"):
        admissibility._feedback_report(F, 2.0)


def test_io_matrix_strictly_lower_triangular_matrix_world():
    triple = stable_triple(21, n=3, m=2)
    F = io_matrix(triple, TimeGrid(1.0, 6))
    m = 2
    for bi in range(6):
        for bj in range(bi, 6):
            blk = F[bi * m:(bi + 1) * m, bj * m:(bj + 1) * m]
            assert np.abs(blk).max() == 0.0


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=11),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_io_causality(cut, seed):
    # zeroing u on [t_cut, t0) never changes (F u)(t_j) for j <= cut
    triple = stable_triple(33, n=3, m=2)
    grid = TimeGrid(1.0, 12)
    rng = numkit.make_rng(seed)
    vals = numkit.random_matrix(rng, 12, 2)
    truncated = vals.copy()
    truncated[cut:] = 0.0
    full = io_map(triple, grid, SampledSignal(grid, vals))
    trunc = io_map(triple, grid, SampledSignal(grid, truncated))
    assert np.array_equal(full.values[:cut + 1], trunc.values[:cut + 1])


# ---------------------------------------------------------------------------
# constants, feedback, rescaling, regularity
# ---------------------------------------------------------------------------

def test_estimate_constants_zero_control():
    triple = MatrixTriple(np.array([[-1.0]]), np.zeros((1, 1)),
                          np.array([[1.0]]))
    rng = numkit.make_rng(1)
    rep = estimate_constants(triple, TimeGrid(1.0, 16), 2.0, 2.0, 2.0,
                             trials=4, rng=rng)
    assert rep.M_control == 0.0
    assert rep.M_io == 0.0
    assert rep.M_observe > 0.0


def test_estimate_constants_transport_bounds():
    mu_atoms = ((0.5, 0.3), (0.875, 0.2))
    triple = transport_triple(N=64, atoms=mu_atoms)
    grid = TimeGrid(0.25, 16)
    rng = numkit.make_rng(2)
    rep = estimate_constants(triple, grid, 2.0, 2.0, 2.0, trials=8, rng=rng)
    tv = BorelMeasure(mu_atoms).total_variation()
    tail = BorelMeasure(mu_atoms).tail_mass(0.25)
    assert rep.M_control <= 1.0 + 1e-12
    assert rep.M_observe <= tv + 1e-9
    assert rep.M_io <= tail + 1e-9
    assert rep.feedback_ok


def counted_io_matrix(monkeypatch):
    calls = []
    build = admissibility.io_matrix

    def counted(triple, grid):
        calls.append(grid)
        return build(triple, grid)
    monkeypatch.setattr(admissibility, "io_matrix", counted)
    return calls


@pytest.mark.parametrize("world", ["matrix", "transport"])
def test_one_io_matrix_per_estimate(world, monkeypatch):
    if world == "matrix":
        triple, grid = stable_triple(26, n=3, m=2), TimeGrid(0.8, 16)
    else:
        triple, grid = transport_triple(N=32, atoms=((0.5, 0.3),)), \
            TimeGrid(0.5, 16)
    expected = estimate_constants(triple, grid, 2.0, 1.0, 3.0, trials=6,
                                  rng=numkit.make_rng(30))
    calls = counted_io_matrix(monkeypatch)
    report = estimate_constants(triple, grid, 2.0, 1.0, 3.0, trials=6,
                                rng=numkit.make_rng(30))
    assert report == expected
    assert len(calls) == 1
    calls.clear()
    rescaled_map_identities(triple, grid, 1.0, trials=4,
                            rng=numkit.make_rng(31))
    assert len(calls) == 2  # the shifted and the plain triple


def test_estimate_constants_validates_exponents():
    rng = numkit.make_rng(3)
    with pytest.raises(ValueError):
        estimate_constants(SCALAR, TimeGrid(1.0, 8), 2.0, 3.0, 4.0,
                           trials=2, rng=rng)


def test_feedback_matrix_world_margin_one():
    triple = stable_triple(22)
    rep = feedback_admissible(triple, TimeGrid(1.0, 8), 2.0)
    assert rep.ok
    assert rep.margin == pytest.approx(1.0, abs=1e-9)


def test_feedback_transport_half_atom():
    triple = transport_triple(N=16, atoms=((1.0, 0.5),))
    rep = feedback_admissible(triple, TimeGrid(1.0, 16), 2.0)
    assert rep.ok
    assert rep.margin == pytest.approx(0.5, abs=1e-9)
    assert rep.io_norm == pytest.approx(0.5, abs=1e-9)
    assert rep.io_norm_certifies


def test_feedback_transport_unit_atom_fails():
    triple = transport_triple(N=16, atoms=((1.0, 1.0),))
    rep = feedback_admissible(triple, TimeGrid(1.0, 16), 2.0)
    assert not rep.ok
    assert rep.margin < FEEDBACK_MARGIN


@pytest.mark.parametrize("mu_shift", [0.0, 1.0])
def test_rescaled_identities_matrix(mu_shift):
    triple = stable_triple(23)
    res = rescaled_map_identities(triple, TimeGrid(0.8, 16), mu_shift,
                                  trials=3, rng=numkit.make_rng(4))
    assert res.max_residual() <= 1e-9


def test_rescaled_identities_transport():
    triple = transport_triple(N=32, atoms=((0.5, 0.4),))
    res = rescaled_map_identities(triple, TimeGrid(0.5, 16), 2.0,
                                  trials=3, rng=numkit.make_rng(5))
    assert res.max_residual() <= 1e-9


def test_regularity_zero_control_passes():
    triple = MatrixTriple(np.array([[-1.0]]), np.zeros((1, 1)),
                          np.array([[1.0]]))
    rep = regularity_check(triple, np.array([1.0]), (0.5, 0.25, 0.125),
                           1.0, 2.0)
    assert rep.passes
    assert max(rep.quantities) == 0.0


def test_regularity_atoms_away_from_one_pass():
    triple = transport_triple(N=64, atoms=((0.5, 0.5),))
    rep = regularity_check(triple, np.array([1.0]),
                           (0.25, 0.125, 0.0625, 0.03125), 1.0, 2.0)
    assert rep.passes
    # below the gap the response is identically zero
    assert rep.quantities[-1] == pytest.approx(0.0, abs=1e-15)


def test_regularity_unit_atom_fails():
    triple = transport_triple(N=64, atoms=((1.0, 1.0),))
    rep = regularity_check(triple, np.array([1.0]),
                           (0.25, 0.125, 0.0625), 1.0, 2.0)
    assert not rep.passes


def test_regularity_validates_horizons():
    with pytest.raises(ValueError):
        regularity_check(SCALAR, np.array([1.0]), (0.5, 0.25), 1.0, 2.0)
    with pytest.raises(ValueError):
        regularity_check(SCALAR, np.array([1.0]), (0.25, 0.5, 1.0),
                         1.0, 2.0)


def test_jensen_monotonicity_of_control_constant():
    # on the same trial set, M(p2) <= mass^(1/p1 - 1/p2) M(p1) for p1 <= p2,
    # where mass is the total weight of the discrete signal measure
    # (h per sample entry, so h * steps * control_dim in the flattened norm)
    triple = stable_triple(24)
    grid = TimeGrid(0.8, 32)
    p1, p2 = 2.0, 4.0
    rep1 = estimate_constants(triple, grid, p1, p1, p1, trials=6,
                              rng=numkit.make_rng(77))
    rep2 = estimate_constants(triple, grid, p2, p2, p2, trials=6,
                              rng=numkit.make_rng(77))
    mass = grid.h * grid.steps * triple.control_dim
    bound = mass ** (1.0 / p1 - 1.0 / p2) * rep1.M_control
    assert rep2.M_control <= bound * (1.0 + 1e-12)


def cubic_spline_trial_signals(grid, m, trials, rng, p=2.0):
    """The per-component CubicSpline construction (oracle for the basis)."""
    knots = np.linspace(0.0, grid.t0, 6)
    bc = ((1, 0.0), (2, 0.0))
    out = []
    for _ in range(trials):
        samples = np.empty((grid.steps, m), dtype=np.complex128)
        for comp in range(m):
            vals = numkit.random_vector(rng, knots.size)
            vals[0] = 0.0
            samples[:, comp] = (CubicSpline(knots, vals.real, bc_type=bc)(
                grid.times) + 1j * CubicSpline(knots, vals.imag,
                                               bc_type=bc)(grid.times))
        out.append(SampledSignal(grid, samples, p=p))
    return out


SPLINE_GRIDS = [(0.5, 1), (2.0, 7), (0.5, 16), (1.0, 64), (0.3, 1024)]


@pytest.mark.parametrize("t0, steps", SPLINE_GRIDS)
def test_spline_basis_matches_cubic_spline(t0, steps):
    grid = TimeGrid(t0, steps)
    S = admissibility._spline_basis(grid)
    knots = np.linspace(0.0, t0, 6)
    for i, e in enumerate(np.eye(6)):
        ref = CubicSpline(knots, e, bc_type=((1, 0.0), (2, 0.0)))(grid.times)
        assert np.abs(S[:, i] - ref).max() <= 1e-14


def test_smooth_trial_signals_match_cubic_spline():
    # same random stream, same signals up to roundoff
    for grid in (TimeGrid(2.0, 7), TimeGrid(1.0, 64)):
        got = smooth_trial_signals(grid, 2, 4, numkit.make_rng(8), p=3.0)
        ref = cubic_spline_trial_signals(grid, 2, 4, numkit.make_rng(8),
                                         p=3.0)
        for u, v in zip(got, ref):
            assert u.p == v.p == 3.0
            assert np.abs(u.values - v.values).max() <= 1e-14


def test_spline_basis_is_clamped():
    # s(0) = e_0 (so s(0) = 0 whenever v_0 = 0) and s'(0) = 0 for every
    # column: the first difference quotient is O(h) and halves with h
    quotients = []
    for steps in (512, 1024):
        grid = TimeGrid(1.0, steps)
        S = admissibility._spline_basis(grid)
        assert np.abs(S[0] - np.eye(6)[0]).max() <= 1e-15
        quotients.append(np.abs(S[1] - S[0]) / grid.h)
    assert np.all(quotients[0] >= 1e-5)  # far above roundoff / h
    ratio = quotients[0] / quotients[1]
    assert np.all((1.9 <= ratio) & (ratio <= 2.1))


def test_smooth_trial_signals_are_clamped_at_zero():
    grid = TimeGrid(1.0, 64)
    for u in smooth_trial_signals(grid, 2, 3, numkit.make_rng(6)):
        assert np.abs(u.values[0]).max() <= 1e-12
        # small first step: the clamped cubic has u(0) = u'(0) = 0
        assert np.abs(u.values[1]).max() <= 10.0 * grid.h
