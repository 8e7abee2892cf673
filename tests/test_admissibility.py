import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.interpolate import CubicSpline

from conftest import (io_map, io_matrix, loop_observability_matrix,
                      loop_orbit_sum, loop_walk, refuse_dense_f,
                      stable_triple, total_variation, transport_triple)
from sgperturb import admissibility, numkit, perturbation
from sgperturb.admissibility import (
    FEEDBACK_MARGIN,
    SampledSignal,
    TimeGrid,
    controllability_map,
    estimate_constants,
    feedback_admissible,
    observability_map,
    rescaled_map_identities,
    smooth_trial_signals,
)
from sgperturb.numkit import ShapeError
from sgperturb.toeplitz import BlockToeplitz
from sgperturb.semigroup import MatrixTriple, _powers
from sgperturb.transport import (BorelMeasure, GridFunction,
                                 TransportDiscretization, phi_coefficients)

SCALAR = MatrixTriple(np.array([[-1.0]]), np.array([[1.0]]),
                      np.array([[1.0]]))
README_TRIPLE = MatrixTriple(np.array([[-1.0, 0.2], [0.0, -2.0]]),
                            np.array([[1.0], [0.5]]), np.array([[0.3, -0.4]]))


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


@pytest.mark.parametrize("steps", [2.5, np.nan, True, "3"])
def test_time_grid_steps_must_be_an_integer(steps):
    with pytest.raises(ValueError, match="steps must be an integer"):
        TimeGrid(0.5, steps)


def test_time_grid_accepts_a_numpy_integer():
    grid = TimeGrid(0.5, np.int64(4))
    assert grid == TimeGrid(0.5, 4)
    assert type(grid.steps) is int and grid.times.shape == (4,)


def test_sampled_signal_norm_uses_step_weight():
    grid = TimeGrid(1.0, 8)
    u = constant_signal(grid)
    assert u.norm(2) == pytest.approx(1.0)
    assert u.norm(1) == pytest.approx(1.0)
    with pytest.raises(numkit.ShapeError):
        SampledSignal(grid, np.ones(5))


def test_sampled_signal_norm_refuses_a_nan_exponent():
    u = constant_signal(TimeGrid(1.0, 8))
    with pytest.raises(numkit.UnsupportedExponentError):
        u.norm(np.nan)
    with pytest.raises(numkit.UnsupportedExponentError):
        SampledSignal(u.grid, u.values, p=np.nan).norm()


# ---------------------------------------------------------------------------
# controllability map
# ---------------------------------------------------------------------------

def test_controllability_zero_signal():
    grid = TimeGrid(1.0, 16)
    out = controllability_map(SCALAR.discretize(grid),
                              constant_signal(grid, 0.0))
    assert np.abs(out).max() == 0.0


def test_controllability_scalar_closed_form():
    # int_0^1 e^{-(1-s)} ds = 1 - e^{-1}, first-order quadrature
    grid = TimeGrid(1.0, 256)
    out = controllability_map(SCALAR.discretize(grid), constant_signal(grid))
    assert abs(out[0] - (1.0 - np.exp(-1.0))) <= 2.0 * grid.h


def test_controllability_quadrature_first_order():
    exact = 1.0 - np.exp(-1.0)
    errors = []
    for steps in (32, 64, 128):
        grid = TimeGrid(1.0, steps)
        out = controllability_map(SCALAR.discretize(grid),
                                  constant_signal(grid))
        errors.append(abs(out[0] - exact))
    for e0, e1 in zip(errors, errors[1:]):
        assert 1.6 <= e0 / e1 <= 2.4


def test_controllability_map_rejects_foreign_signals():
    grid = TimeGrid(1.0, 8)
    disc = SCALAR.discretize(grid)
    with pytest.raises(ShapeError, match="different time grid"):
        controllability_map(disc, constant_signal(TimeGrid(1.0, 4)))
    with pytest.raises(ShapeError, match="control dim 2, triple needs 1"):
        controllability_map(disc, constant_signal(grid, m=2))


def test_controllability_transport_translates_into_window():
    # horizon 1/2 on N = 4: the signal survives on the window near s = 1
    # and the rest of [0, 1] stays zero (left-endpoint cell attribution)
    triple = transport_triple(N=4)
    grid = TimeGrid(0.5, 2)
    u = SampledSignal(grid, np.array([[2.0], [3.0]]))
    out = controllability_map(triple.discretize(grid), u)
    assert_allclose(out.values, [0.0, 0.0, 2.0, 3.0, 0.0], atol=0)


def test_controllability_transport_norm_identity():
    # ||B_t0 u||_p = ||u||_p when the whole signal survives (t0 <= 1)
    triple = transport_triple(N=16, p=3.0)
    grid = TimeGrid(0.5, 8)
    rng = numkit.make_rng(5)
    u = SampledSignal(grid, numkit.random_vector(rng, 8).reshape(-1, 1),
                      p=3.0)
    out = controllability_map(triple.discretize(grid), u)
    assert out.norm() == pytest.approx(u.norm(3.0), rel=1e-12)


# ---------------------------------------------------------------------------
# observability map
# ---------------------------------------------------------------------------

def test_observability_zero_state():
    grid = TimeGrid(1.0, 8)
    y = observability_map(SCALAR.discretize(grid), np.zeros(1))
    assert np.abs(y.values).max() == 0.0


def test_observability_scalar_samples_decay():
    grid = TimeGrid(1.0, 16)
    y = observability_map(SCALAR.discretize(grid), np.ones(1))
    assert_allclose(y.values[:, 0], np.exp(-grid.times), rtol=1e-12)


def test_observability_transport_atom_sees_shifted_sample():
    triple = transport_triple(N=8, atoms=((1.0, 0.5),))
    x = GridFunction(np.r_[np.ones(8), 0.0])  # vanishes at s = 1
    grid = TimeGrid(1.0, 8)
    y = observability_map(triple.discretize(grid), x, require_domain=False)
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
    F = io_matrix(triple.discretize(TimeGrid(1.0, 3)))
    assert np.array_equal(F, np.zeros((3, 3)))


def test_io_matrix_transport_atom_is_alpha_identity():
    triple = transport_triple(N=16, atoms=((1.0, 0.5),))
    F = io_matrix(triple.discretize(TimeGrid(1.0, 16)))
    assert np.array_equal(F, 0.5 * np.eye(16))


def test_io_matrix_matches_io_map_exactly():
    triple = stable_triple(19, n=3, m=2)
    grid = TimeGrid(0.8, 12)
    F = io_matrix(triple.discretize(grid))
    rng = numkit.make_rng(20)
    u = SampledSignal(grid, numkit.random_matrix(rng, 12, 2))
    direct = io_map(triple, grid, u)
    stacked = (F @ u.values.reshape(-1)).reshape(12, 2)
    assert np.array_equal(stacked, direct.values)


def loop_io_matrix(column):
    """Block-by-block placement of F's first block column: lag ``d`` on
    every block of the d-th subdiagonal (oracle of the strided fill)."""
    steps, m = column.shape[:2]
    F = np.zeros((steps * m, steps * m), dtype=np.complex128)
    for d in range(steps):
        for j in range(d, steps):
            k = j - d
            F[j * m:(j + 1) * m, k * m:(k + 1) * m] = column[d]
    return F


@pytest.mark.parametrize("steps", [1, 2, 7, 32])
def test_io_matrix_equals_loop_assembly(steps):
    # the lag-indexed fill places the column's own blocks: equal bit for bit
    disc = stable_triple(23, n=3, m=2).discretize(TimeGrid(0.7, steps))
    F = io_matrix(disc)
    assert F.shape == (2 * steps, 2 * steps)
    assert np.array_equal(F, loop_io_matrix(disc.feedback_column()))


STABLE = stable_triple(23, n=3, m=2)
WALKED_TRIPLES = {
    "stable": STABLE,
    "readme": README_TRIPLE,
    # Re(lambda) about 20: the powers grow like e^{14} over the horizon
    "unstable": MatrixTriple(STABLE.A + 21.0 * np.eye(3), STABLE.B, STABLE.C),
}


def within_walk_roundoff(got, want):
    """Block k of ``got`` within ``4 (k + 1) eps`` of ``want``'s, relative:
    each of the k products of a walk to ``M^k`` adds one rounding."""
    k = np.arange(1, len(want) + 1)
    axes = tuple(range(1, np.ndim(want)))
    err = np.linalg.norm(got - want, axis=axes)
    return np.all(err <= 4.0 * k * np.finfo(float).eps
                  * np.linalg.norm(want, axis=axes))


@pytest.mark.parametrize("steps", [1, 2, 7, 32, 1025])
@pytest.mark.parametrize("name", list(WALKED_TRIPLES))
def test_power_walks_match_sequential_loops(name, steps):
    # the doubling walk takes E^k by other products than one step at a
    # time: each block agrees with the sequential loop to roundoff
    triple = WALKED_TRIPLES[name]
    disc = triple.discretize(TimeGrid(0.7, steps))
    assert within_walk_roundoff(disc._walk, loop_walk(disc))
    n = triple.state_dim
    assert within_walk_roundoff(
        disc.observability_matrix().reshape(steps, -1, n),
        loop_observability_matrix(disc).reshape(steps, -1, n))
    # the observation-side suite's orbit sums, one per count
    x = numkit.random_vector(numkit.make_rng(steps), n)
    counts = range(1, min(steps, 40) + 1)
    assert within_walk_roundoff(
        np.array([_powers(disc.E, x, c).sum(axis=0) for c in counts]),
        np.array([loop_orbit_sum(disc.E, x, c) for c in counts]))


def loop_transport_io_matrix(triple, grid):
    """Per-node loops over the time steps, each node's trapezoid weight
    added where its read lands (oracle of the transport-world io_matrix).
    Node k weighs its atoms, then half of cell k - 1, then half of cell k."""
    N, steps = triple.N, grid.steps
    q = int(round(grid.h * N))
    j0 = q * steps
    weight = [0j] * (N + 1)
    for loc, w in triple.mu.atoms:
        weight[int(round(loc * N))] += w
    for cell, d in enumerate(triple.mu.density):
        weight[cell + 1] += d / (2 * N)
    for cell, d in enumerate(triple.mu.density):
        weight[cell] += d / (2 * N)
    F = np.zeros((steps, steps), dtype=np.complex128)
    for node, w in enumerate(weight):
        for j in range(steps):
            idx = node + j * q - N
            if 0 <= idx < j0:
                F[j, idx // q] += w
    mu = triple.mu_shift
    if mu:
        # the shifted F is Toeplitz with lag l scaled by e^{-mu t_l};
        # test_shifted_transport_io_matrix_is_the_conjugation checks that
        # against e^{-mu t_j} F e^{mu t_k}
        lag = np.subtract.outer(np.arange(steps), np.arange(steps))
        F = F * np.exp(-mu * grid.times)[np.maximum(lag, 0)]
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
    F = io_matrix(triple.discretize(grid))
    oracle = loop_transport_io_matrix(triple, grid)
    assert F.dtype == (np.complex128 if oracle.imag.any() else np.float64)
    assert np.count_nonzero(F) >= grid.steps
    assert np.array_equal(F, oracle)


@pytest.mark.parametrize("triple, grid", [
    (transport_triple(N=32, density=(0.2 + 0.1j,) * 32, mu_shift=0.9),
     TimeGrid(1.0, 32)),
    (transport_triple(N=64, atoms=((0.5, 0.3), (0.875, 0.2)), mu_shift=3.0),
     TimeGrid(1.0, 64)),
    (transport_triple(N=96, atoms=((0.5, 0.3), (49 / 96, -0.7j),
                                   (1.0, 0.1)),
                      density=_RAGGED, mu_shift=3.0),
     TimeGrid(0.75, 24)),
], ids=["complex-density", "atoms", "ragged-density-atom-at-1-stride-3"])
def test_shifted_transport_io_matrix_is_the_conjugation(triple, grid):
    # the shifted column gives e^{-mu t_j} F e^{mu t_k} to roundoff
    F = io_matrix(triple.discretize(grid))
    plain = io_matrix(replace(triple, mu_shift=0.0).discretize(grid))
    mu, tk = triple.mu_shift, grid.times
    conj = np.exp(-mu * tk)[:, None] * plain * np.exp(mu * tk)[None, :]
    assert np.abs(F - conj).max() <= 1e-14 * np.abs(conj).max()
    assert np.array_equal(F == 0, conj == 0)


def test_shifted_transport_io_matrix_finite_past_exp_overflow():
    # mu t0 = 1500 > 709: e^{mu t_k} overflows, the shifted column does not
    triple = transport_triple(N=64, atoms=((0.5, 0.3), (0.875, 0.2)),
                              mu_shift=1500.0)
    grid = TimeGrid(1.0, 64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        F = io_matrix(triple.discretize(grid))
    assert np.isfinite(F).all()
    # the atom at 0.875 sits 8 steps below s = 1; the one at 0.5 (lag 32,
    # e^{-750}) underflows to 0
    want = 0.2 * np.exp(-1500.0 * 8 / 64)
    assert want > 0.0
    assert abs(F[8, 0] - want) <= 1e-14 * want
    assert np.array_equal(np.flatnonzero(F[:, 0]), [8])
    assert np.array_equal(np.diag(F, -8), np.full(56, F[8, 0]))


_COSINE = tuple(0.3 + 0.2 * np.cos(np.arange(64)))
_MIXED = dict(atoms=((0.0, 0.25), (0.5, 0.3), (1.0, 0.4)),
              density=tuple(0.1 + 0.05j * np.sin(np.arange(64))))


def composition_residual(triple, grid, u):
    """``max_k |C T((k-1) t0) B u - (F_{3 t0} [u; 0; 0])_k| / max |F u|``
    over k = 1, 2: the triple's maps on ``grid`` against the blocks of the
    assembled F on three horizons."""
    long = TimeGrid(3.0 * grid.t0, 3 * grid.steps)
    m = triple.control_dim
    padded = np.zeros((long.steps, m), dtype=np.complex128)
    padded[:grid.steps] = u.values
    Fu = (io_matrix(triple.discretize(long)) @ padded.reshape(-1)).reshape(
        3, grid.steps, m)
    disc = triple.discretize(grid)
    state = disc.control(u.values)
    worst = 0.0
    for k in (1, 2):
        y = disc.observe(state)
        worst = max(worst, float(np.abs(y - Fu[k]).max()))
        state = triple.step(grid.t0, state)
    return worst / np.abs(Fu).max()


@pytest.mark.parametrize("triple, grid", [
    (stable_triple(61, n=3, m=2), TimeGrid(0.5, 16)),
    (transport_triple(N=64, atoms=((0.5, 0.3), (0.875, 0.2))),
     TimeGrid(0.5, 32)),
] + [
    (transport_triple(N=64, mu_shift=shift, **measure), TimeGrid(0.5, steps))
    for measure in (dict(density=_COSINE), _MIXED)
    for steps in (32, 16)
    for shift in (0.0, 1.5)
], ids=["matrix", "atoms"] + [
    f"{name}-stride-{q}-shift-{shift}"
    for name in ("density", "atoms-density-atom-at-1")
    for q in (1, 2) for shift in (0.0, 1.5)])
def test_frames_compose_to_the_io_map(triple, grid):
    # F over three horizons has C T((k-1) t0) B below its diagonal: the
    # input-output map and the maps of the triple read Phi the same way
    for u in smooth_trial_signals(grid, triple.control_dim, 3,
                                  numkit.make_rng(13)):
        assert composition_residual(triple, grid, u) <= 1e-12


def test_controllability_matrix_matches_map():
    # column k*m + i is the map applied to the unit signal e_i at t_k
    triple = stable_triple(25, n=3, m=2)
    grid = TimeGrid(0.9, 10)
    Bc = triple.discretize(grid).controllability_matrix()
    assert Bc.shape == (3, 20)
    for k in range(grid.steps):
        for i in range(2):
            basis = np.zeros((grid.steps, 2))
            basis[k, i] = 1.0
            col = controllability_map(triple.discretize(grid),
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
        got = controllability_map(triple.discretize(grid), u)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        x = numkit.random_vector(rng, n)
        want = walked_observe(triple, grid, x)
        got = observability_map(triple.discretize(grid), x)
        assert got.values.shape == (steps, m)
        assert np.abs(got.values - want).max() <= 1e-14 * np.abs(want).max()


def test_observability_matrix_rows_are_C_exp():
    triple = stable_triple(62, n=3, m=2)
    grid = TimeGrid(0.6, 6)
    O = triple.discretize(grid).observability_matrix()
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
    eigs = np.linalg.eigvals(io_matrix(triple.discretize(grid)))
    oracle = float(np.min(np.abs(eigs - 1.0)))
    assert feedback_admissible(triple, grid, 2.0).margin == oracle


def test_feedback_margin_rejects_entry_above_diagonal():
    # the margin reads the diagonal of F's lag-0 block, which is its
    # spectrum only when the block is lower triangular
    column = np.tile(np.tril(np.full((3, 3), 0.25 + 0j)), (6, 1, 1))
    assert admissibility._feedback_margin(column) == 0.75
    column[0, 1, 2] = 1e-3
    with pytest.raises(ShapeError, match="lower-triangular"):
        admissibility._feedback_margin(column)
    with pytest.raises(ShapeError, match="lower-triangular"):
        admissibility._feedback_report(BlockToeplitz(column), 3.0)
    column[0, 1, 2] = 0.0
    column[1, 1, 2] = 1e-3      # other lags are unconstrained
    assert admissibility._feedback_margin(column) == 0.75


def heat_ds_triple(n):
    """Heat equation on n cells in the L^2 frame: ``n^2`` times the
    cell-centred Neumann Laplacian, controlled through the flux at s = 1 by
    the spatial mean of an n-dimensional input, ``B = (sqrt(n) e_n)
    (1 / sqrt(n))^T``, and observed everywhere, ``C = I``."""
    L = (np.diag(np.full(n - 1, 1.0), 1) + np.diag(np.full(n - 1, 1.0), -1)
         - 2.0 * np.eye(n))
    L[0, 0] = L[-1, -1] = -1.0
    B = np.zeros((n, n))
    B[-1] = 1.0
    return MatrixTriple(n * n * L, B, np.eye(n))


@pytest.mark.parametrize("triple, grid", [
    (README_TRIPLE, TimeGrid(0.5, 32)),
    (README_TRIPLE, TimeGrid(0.5, 256)),
    (README_TRIPLE, TimeGrid(0.5, 2048)),
    (stable_triple(19, n=3, m=2), TimeGrid(0.8, 64)),
    (heat_ds_triple(16), TimeGrid(0.5, 32)),
    (transport_triple(N=64, density=(0.2 + 0.1j,) * 64, mu_shift=0.9),
     TimeGrid(1.0, 64)),
    (transport_triple(N=64, atoms=((0.5, 0.3), (0.875, 0.2))),
     TimeGrid(0.5, 32)),
    (transport_triple(N=64, atoms=((0.25, 0.4), (1.0, 0.6 + 0.3j))),
     TimeGrid(1.0, 32)),
], ids=["readme-32", "readme-256", "readme-2048", "complex-m2", "heat-ds-16",
        "density-shift", "atoms", "atoms-atom-at-1-stride-2"])
def test_two_norm_equals_the_dense_oracle(triple, grid):
    # Lanczos on F's FFT products against the Gram eigensolve of the dense
    # F, the p = 2 path the package once shipped
    oracle = numkit.induced_norm(io_matrix(triple.discretize(grid)), 2)
    fb = feedback_admissible(triple, grid, 2.0)
    assert oracle > 0.01
    assert fb.io_norm == pytest.approx(oracle, rel=1e-12, abs=0.0)
    assert fb.io_norm_certifies == (oracle < 1.0)


@pytest.mark.parametrize("triple", [
    transport_triple(N=16, atoms=((1.0, 1.0),)),
    transport_triple(N=16, atoms=((1.0, np.exp(0.7j)),)),
    transport_triple(N=16, atoms=((0.75, 1.0),)),
], ids=["unit-atom-at-1", "unimodular-atom-at-1", "unit-atom-at-0.75"])
def test_unit_norm_f_never_certifies(triple):
    # F = I, F = e^{0.7i} I and a pure shift have norm exactly 1 on every
    # horizon where they are not 0; Lanczos may read that one ulp low, so
    # only the margin on theta keeps ||F|| < 1 from being decided there
    grid = TimeGrid(1.0, 16)
    fb = feedback_admissible(triple, grid, 2.0)
    entry, found = perturbation._bypass_search(triple, grid, 2.0, 1.0, 3.0,
                                               fb)
    unit = [t for t, nrm in zip(entry["horizons"], entry["io_norms"])
            if nrm > 0.5]
    assert unit and unit == list(entry["horizons"][:len(unit)])
    for t in unit:
        g = TimeGrid(t, round(16 * t))
        report = feedback_admissible(triple, g, 2.0)
        assert abs(report.io_norm - 1.0) <= 1e-13
        assert not report.io_norm_certifies
    if found is None:
        assert len(unit) == len(entry["horizons"])
    else:
        assert entry["io_norm_at_t1"] == 0.0 and found.t0 < unit[-1]


_COLUMN_NORM_CASES = [
    (stable_triple(29, n=3, m=2), TimeGrid(0.8, 16)),
    (transport_triple(N=32, atoms=((1.0, 0.25j),),
                      density=(0.1 - 0.05j,) * 32, mu_shift=2.0),
     TimeGrid(0.5, 8)),
]


@pytest.mark.parametrize("triple, grid", _COLUMN_NORM_CASES,
                         ids=["matrix-m2", "complex-density-atom-at-1-shift"])
def test_io_norm_off_two_comes_from_the_column(triple, grid, monkeypatch):
    # p in {1, inf}: the exact dense norms; p = 3: Riesz-Thorin between
    # them; all read off F's first block column, with no dense F formed
    F = io_matrix(triple.discretize(grid))
    n1, ninf = numkit.induced_norm(F, 1), numkit.induced_norm(F, np.inf)
    assert n1 > 0.0 and ninf > 0.0
    margin = feedback_admissible(triple, grid, 2.0).margin
    refuse_dense_f(monkeypatch, F.shape[0])
    for p, want in ((1.0, n1), (np.inf, ninf),
                    (3.0, n1 ** (1.0 / 3.0) * ninf ** (2.0 / 3.0))):
        fb = feedback_admissible(triple, grid, p)
        assert fb.io_norm == pytest.approx(want, rel=1e-14, abs=0.0)
        assert fb.margin == margin


def test_io_matrix_strictly_lower_triangular_matrix_world():
    triple = stable_triple(21, n=3, m=2)
    F = io_matrix(triple.discretize(TimeGrid(1.0, 6)))
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
# constants, feedback, rescaling
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
    tv = total_variation(BorelMeasure(mu_atoms))
    tail = BorelMeasure(mu_atoms).tail_mass(0.25)
    assert rep.M_control <= 1.0 + 1e-12
    assert rep.M_observe <= tv + 1e-9
    assert rep.M_io <= tail + 1e-9
    assert rep.feedback_ok


@pytest.mark.parametrize("p, alpha, beta", [(2.0, 1.0, 3.0),
                                             (3.0, 1.0, 4.0)])
@pytest.mark.parametrize("triple, grid", [
    (stable_triple(26, n=3, m=2), TimeGrid(0.8, 16)),
    (transport_triple(N=32, atoms=((0.5, 0.3),), density=(0.1,) * 32,
                      mu_shift=1.0), TimeGrid(0.5, 16)),
], ids=["matrix-m2", "transport-density-shift"])
def test_m_io_matches_the_dense_products(triple, grid, p, alpha, beta):
    # the trials go through one FFT product with F's first block column;
    # the dense io_map on each trial agrees to FFT rounding
    rep = estimate_constants(triple, grid, p, alpha, beta, trials=6,
                             rng=numkit.make_rng(30))
    signals = smooth_trial_signals(grid, triple.control_dim, 6,
                                   numkit.make_rng(30), p=p)
    oracle = max(io_map(triple, grid, u).norm(beta) / u.norm(alpha)
                 for u in signals)
    assert oracle > 0.0
    assert rep.M_io == pytest.approx(oracle, rel=1e-13, abs=0.0)


def count_columns(monkeypatch, discretization):
    """The grid of each ``feedback_column`` a ``discretization`` builds."""
    grids = []
    build = discretization.feedback_column

    def counted(disc):
        grids.append(disc.grid)
        return build(disc)
    monkeypatch.setattr(discretization, "feedback_column", counted)
    return grids


@pytest.mark.parametrize("world", ["matrix", "transport"])
def test_one_feedback_column_per_estimate(world, monkeypatch):
    # one F per estimate, its first block column: the trial products and
    # the norm at every p come off it, and no dense F reaches a norm
    if world == "matrix":
        triple, grid = stable_triple(26, n=3, m=2), TimeGrid(0.8, 16)
    else:
        triple, grid = transport_triple(N=32, atoms=((0.5, 0.3),)), \
            TimeGrid(0.5, 16)
    expected = {p: estimate_constants(triple, grid, p, 1.0, 3.0, trials=6,
                                      rng=numkit.make_rng(30))
                for p in (2.0, 3.0)}
    refuse_dense_f(monkeypatch, grid.steps * triple.control_dim)
    columns = count_columns(monkeypatch, type(triple.discretize(grid)))
    for p in (2.0, 3.0):
        report = estimate_constants(triple, grid, p, 1.0, 3.0, trials=6,
                                    rng=numkit.make_rng(30))
        assert report == expected[p]
    assert columns == [grid, grid]
    columns.clear()
    rescaled_map_identities(triple, grid, 1.0, trials=4,
                            rng=numkit.make_rng(31))
    # the shifted triple's column, and the unshifted one's lag-0 block
    # next to the frames
    assert columns == [grid, grid]


@pytest.mark.parametrize("world", ["matrix", "transport"])
def test_rescaling_builds_each_map_once_per_triple(world, monkeypatch):
    # one discretization per triple per call, not one per trial: the matrix
    # world's control and observe read the W and O it builds once, and the
    # transport world's read the grid without any stacked matrix
    if world == "matrix":
        triple, grid = stable_triple(26, n=3, m=2), TimeGrid(0.8, 16)
    else:
        triple, grid = transport_triple(N=32, atoms=((0.5, 0.3),)), \
            TimeGrid(0.5, 16)
    expected = rescaled_map_identities(triple, grid, 1.0, trials=4,
                                       rng=numkit.make_rng(31))
    discs = []
    build = type(triple).discretize

    def counted(self, g):
        discs.append(build(self, g))
        return discs[-1]
    monkeypatch.setattr(type(triple), "discretize", counted)
    if world == "transport":
        def refuse(self):
            raise AssertionError("stacked matrix built")
        for name in ("controllability_matrix", "observability_matrix"):
            monkeypatch.setattr(TransportDiscretization, name, refuse)
    result = rescaled_map_identities(triple, grid, 1.0, trials=4,
                                     rng=numkit.make_rng(31))
    assert result == expected
    # two triples, the shifted and the plain one, one discretization each
    assert len(discs) == 2 and discs[0].triple is not discs[1].triple
    if world == "matrix":
        assert all({"_W", "_O"} <= set(vars(d)) for d in discs)


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


RESCALING_TRANSPORT = [
    transport_triple(N=32, atoms=((0.5, 0.4),)),
    transport_triple(N=32, atoms=((0.5, 0.3),), density=tuple(
        np.random.default_rng(6).uniform(-0.2, 0.2, 32))),
]


@pytest.mark.parametrize("triple", RESCALING_TRANSPORT,
                         ids=["atom", "atom+density"])
def test_rescaled_io_identity_catches_a_skewed_decay(triple, monkeypatch):
    # the right side reads F off the unshifted frames, so a shifted column
    # whose decay is off by 1e-6 no longer agrees with it
    args = (triple, TimeGrid(1.0, 16), 2.0)
    assert rescaled_map_identities(*args, trials=3,
                                   rng=numkit.make_rng(5)).io <= 1e-12
    build = TransportDiscretization.__post_init__

    def skewed(self):
        build(self)
        if self.triple.mu_shift:
            object.__setattr__(self, "_decay", self._decay * (1.0 + 1e-6))
    monkeypatch.setattr(TransportDiscretization, "__post_init__", skewed)
    res = rescaled_map_identities(*args, trials=3, rng=numkit.make_rng(5))
    assert res.io > 1e-9 and res.max_residual() > 1e-9


@pytest.mark.parametrize("triple", RESCALING_TRANSPORT,
                         ids=["atom", "atom+density"])
def test_rescaled_io_identity_catches_a_wrong_column(triple, monkeypatch):
    # a column twice F's is wrong on both sides of the identity when both
    # read it; the frames' side, which reads it only at lag 0, exposes it
    column = TransportDiscretization.feedback_column
    monkeypatch.setattr(TransportDiscretization, "feedback_column",
                        lambda self: 2.0 * column(self))
    res = rescaled_map_identities(triple, TimeGrid(1.0, 16), 2.0, trials=3,
                                  rng=numkit.make_rng(5))
    assert res.io > 1e-3


@pytest.mark.parametrize("world", ["matrix", "transport"])
def test_frame_column_is_the_feedback_column(world):
    # the composition C T(t_{l-1}) B of the last input sample is F's lag l
    if world == "matrix":
        disc = stable_triple(23).discretize(TimeGrid(0.8, 16))
    else:
        disc = RESCALING_TRANSPORT[1].rescale(0.5).discretize(
            TimeGrid(1.0, 16))
    assert_allclose(admissibility._frame_column(disc), disc.feedback_column(),
                    rtol=0, atol=1e-15)


@pytest.mark.parametrize("t0, steps", [(10.0, 128), (20.0, 256)])
def test_rescaled_io_identity_holds_at_long_horizons(t0, steps):
    # e^{mu t0} = e^40 at t0 = 20: an FFT product with the grown signal
    # M u would leave residuals of 1.9e-9 at t0 = 10 and 0.4 at t0 = 20;
    # the conjugated column keeps the F identity at rounding level
    triple = stable_triple(23)
    res = rescaled_map_identities(triple, TimeGrid(t0, steps), 2.0,
                                  trials=3, rng=numkit.make_rng(4))
    assert res.io <= 1e-12
    assert res.max_residual() <= 1e-9


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
