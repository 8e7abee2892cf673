import cmath
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
try:
    from numpy.lib.array_utils import byte_bounds
except ImportError:  # numpy < 2
    from numpy import byte_bounds
from numpy.testing import assert_allclose

from conftest import (apply_phi, block_solve_pde, compatible_state,
                      total_variation, transport_triple)
import sgperturb
from sgperturb import admissibility, numkit, perturbation, transport
from sgperturb.admissibility import SampledSignal, TimeGrid
from sgperturb.transport import (
    BorelMeasure,
    GridFunction,
    characteristic_roots,
    dirichlet_operator,
    greiner_compatibility,
    little_mass,
    phi_coefficients,
    solve_pde,
    transfer_scalar,
    upwind_generator,
)

TWO_ATOMS = BorelMeasure(atoms=((0.5, 0.3), (0.9, 0.2)))


def smooth_state(N):
    s = np.arange(N + 1) / N
    return GridFunction(np.sin(np.pi * s) * (1.0 - s))


# ---------------------------------------------------------------------------
# measures and Phi
# ---------------------------------------------------------------------------

def test_measure_validation():
    with pytest.raises(ValueError):
        BorelMeasure(atoms=((1.5, 1.0),))
    with pytest.raises(ValueError):
        BorelMeasure(atoms=((0.5, 1.0), (0.5, 2.0)))
    with pytest.raises(ValueError):
        BorelMeasure(atoms=((0.5, np.inf),))


def test_total_variation_and_tail_mass():
    mu = BorelMeasure(atoms=((0.5, 0.3), (0.9, -0.2j)), density=(1.0,) * 4)
    assert total_variation(mu) == pytest.approx(0.5 + 1.0)
    assert mu.tail_mass(0.05) == pytest.approx(0.05)      # density only
    assert mu.tail_mass(0.2) == pytest.approx(0.2 + 0.2)  # + atom at 0.9


def test_apply_phi_zero_measure():
    assert apply_phi(BorelMeasure(), np.ones(9)) == 0.0


def test_apply_phi_single_atom_evaluates_at_one():
    mu = BorelMeasure(atoms=((1.0, 0.7),))
    f = np.arange(9, dtype=float)
    assert apply_phi(mu, f) == pytest.approx(0.7 * 8.0)


def test_apply_phi_unit_density_integrates_one():
    N = 64
    mu = BorelMeasure(density=(1.0,) * N)
    assert apply_phi(mu, np.ones(N + 1)) == pytest.approx(1.0, abs=1e-12)


def test_phi_coefficients_reject_off_grid_atom():
    with pytest.raises(ValueError):
        phi_coefficients(BorelMeasure(atoms=((0.3, 1.0),)), 8)
    with pytest.raises(ValueError):
        phi_coefficients(BorelMeasure(density=(1.0,) * 3), 8)


# per-cell loop oracles: the array builds must equal them bit for bit.  A
# ragged complex density catches a quotient taken through numpy's complex
# division by a real scalar (a reciprocal multiply, which rounds apart from
# Python's ``d / N``) and an abs taken by numpy's complex abs.

_K = np.arange(96)
RAGGED_96 = tuple(complex(v) for v in np.exp(np.sin(7.0 * _K))
                  * (np.sin(_K) + 0.3j * np.cos(3.0 * _K)))
ATOMS_96 = tuple((k / 96, w) for k, w in (
    (0, 0.4), (17, -0.25j), (48, 0.3 - 0.2j), (49, 0.15 + 0.1j),
    (70, -0.35), (83, 0.05 + 0.2j), (96, 0.1 + 0.05j)))


def loop_phi_coefficients(mu, N):
    c = np.zeros(N + 1, dtype=np.complex128)
    for loc, w in mu.atoms:
        c[int(round(loc * N))] += w
    for cell, d in enumerate(mu.density):
        c[cell] += d / (2.0 * N)
        c[cell + 1] += d / (2.0 * N)
    return c


def loop_tail_mass(mu, delta):
    lo = 1.0 - delta
    mass = sum(abs(w) for loc, w in mu.atoms if loc >= lo - 1e-15)
    h = 1.0 / len(mu.density)
    for cell, d in enumerate(mu.density):
        overlap = max(0.0, min((cell + 1) * h, 1.0) - max(cell * h, lo))
        mass += abs(d) * overlap
    return float(mass)


def loop_upwind_generator(mu, N):
    c = loop_phi_coefficients(mu, N)
    A = np.zeros((N, N), dtype=np.complex128)
    for k in range(N - 1):
        A[k, k] = -N
        A[k, k + 1] = N
    A[N - 1, N - 1] = -N
    A[N - 1, :] += N * c[:N] / (1.0 - c[N])
    return A


def test_phi_coefficients_equal_loop_oracle():
    mu = BorelMeasure(atoms=ATOMS_96, density=RAGGED_96)
    assert np.array_equal(phi_coefficients(mu, 96),
                          loop_phi_coefficients(mu, 96))


@pytest.mark.parametrize("atoms", [ATOMS_96, ()], ids=["atoms", "no-atoms"])
def test_tail_mass_equals_loop_oracle(atoms):
    mu = BorelMeasure(atoms=atoms, density=RAGGED_96)
    for k in range(96):              # each delta cuts cell 95 - k
        delta = (k + 0.3) / 96
        assert mu.tail_mass(delta) == loop_tail_mass(mu, delta)
    assert mu.tail_mass(1.0) == loop_tail_mass(mu, 1.0)


# ---------------------------------------------------------------------------
# Dirichlet lift
# ---------------------------------------------------------------------------

def test_dirichlet_lift_lambda_zero_is_constant():
    out = dirichlet_operator(0.0, 16)
    assert np.array_equal(out.values, np.ones(17))


def test_dirichlet_lift_solves_kernel_problem():
    N, lam = 256, 1.0
    f = dirichlet_operator(lam, N).values
    assert f[N] == pytest.approx(1.0)
    # forward-difference residual of (lam - d/ds) f = 0 is O(1/N)
    res = np.abs(lam * f[:N] - N * (f[1:] - f[:N])).max()
    assert res <= 5.0 / N
    with pytest.raises(numkit.NumericalRangeError):
        dirichlet_operator(600.0, N)


# ---------------------------------------------------------------------------
# little mass
# ---------------------------------------------------------------------------

def test_little_mass_unit_atom_at_one_fails():
    report = little_mass(BorelMeasure(atoms=((1.0, 1.0),)),
                         (0.5, 0.25, 0.125))
    assert report.mass == (1.0, 1.0, 1.0)
    assert not report.passes


def test_little_mass_zero_measure_passes():
    report = little_mass(BorelMeasure(), (0.5, 0.25))
    assert report.q_found == 0.0
    assert report.passes


def test_little_mass_two_atoms_vanishes_below_gap():
    report = little_mass(TWO_ATOMS, (0.5, 0.2, 0.05))
    assert report.mass[0] == pytest.approx(0.5)
    assert report.mass[-1] == pytest.approx(0.0, abs=1e-15)
    assert report.passes
    # masses are non-increasing along the decreasing delta grid
    assert all(report.mass[i] >= report.mass[i + 1]
               for i in range(len(report.mass) - 1))


# ---------------------------------------------------------------------------
# solve_pde
# ---------------------------------------------------------------------------

def test_solve_pde_zero_measure_is_pure_transport():
    N = 32
    x0 = smooth_state(N)
    traj = solve_pde(BorelMeasure(), x0, 0.5, N)
    shifted = np.zeros(N + 1, dtype=complex)
    shifted[:N // 2] = x0.values[N // 2:N]
    assert np.abs(traj.states[-1] - shifted).max() <= 1e-15


def test_solve_pde_half_atom_matches_zero_measure():
    # alpha delta_1 with alpha != 1: elimination forces x(1, t) = 0
    N = 32
    x0 = GridFunction(np.r_[np.sin(np.pi * np.arange(N) / N), 0.0])
    mu = BorelMeasure(atoms=((1.0, 0.5),))
    a = solve_pde(mu, x0, 1.0, N)
    b = solve_pde(BorelMeasure(), x0, 1.0, N)
    assert np.abs(a.states - b.states).max() == 0.0


def test_solve_pde_boundary_relation_holds():
    N = 80
    mu = TWO_ATOMS
    traj = solve_pde(mu, compatible_state(mu, N), 1.0, N)
    c = phi_coefficients(mu, N)
    for row in traj.states[1:]:
        assert abs(row[N] - c @ row) <= 1e-12 * max(1.0, np.abs(row).max())


def test_solve_pde_rejects_bad_horizon_and_grid():
    N = 16
    with pytest.raises(ValueError):
        solve_pde(BorelMeasure(), smooth_state(N), 0.33, N)
    with pytest.raises(numkit.ShapeError):
        solve_pde(BorelMeasure(), smooth_state(8), 0.5, N)


def test_solve_pde_unit_atom_at_one_degenerate():
    with pytest.raises(ArithmeticError):
        solve_pde(BorelMeasure(atoms=((1.0, 1.0),)), smooth_state(16),
                  0.5, 16)


_BROKEN_BOUNDARY = """
import sys
from sgperturb import transport
from sgperturb.transport import (BorelMeasure, GridFunction, phi_coefficients,
                                 solve_pde)

right = transport._boundary_coefficients
transport._boundary_coefficients = lambda mu, N: (right(mu, N)[0],
                                                  2.0 * right(mu, N)[1])
mu, N = BorelMeasure(atoms=((0.5, 0.3), (0.875, 0.2))), 16
v = [1.0] * (N + 1)
c = phi_coefficients(mu, N)
v[N] = complex(sum(c[:N]) / (1.0 - c[N]))
try:
    solve_pde(mu, GridFunction(v), 1.0, N)
except ArithmeticError:
    sys.exit(0)
sys.exit(3)
"""


def test_solve_pde_broken_boundary_raises(monkeypatch):
    # a wrong solvability factor breaks x(1) = Phi x at the first level;
    # the check raises, also under python -O (it is not an assert)
    mu, N = TWO_ATOMS, 40
    right = transport._boundary_coefficients
    monkeypatch.setattr(
        transport, "_boundary_coefficients",
        lambda m, n: (right(m, n)[0], 2.0 * right(m, n)[1]))
    with pytest.raises(ArithmeticError, match="boundary relation"):
        solve_pde(mu, compatible_state(mu, N), 1.0, N)
    src = str(Path(sgperturb.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-O", "-c", _BROKEN_BOUNDARY],
                          env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()


def test_solve_pde_refinement_halves_error():
    # self-convergence of the boundary feedback under N doubling
    mu = TWO_ATOMS
    sups = []
    for N in (80, 160, 320):
        traj = solve_pde(mu, compatible_state(mu, N), 1.0, N)
        coarse = traj.states[-1][::N // 80]
        sups.append(coarse)
    e1 = np.abs(sups[1] - sups[0]).max()
    e2 = np.abs(sups[2] - sups[1]).max()
    assert e2 <= 0.75 * e1


def _solve_pde_oracle(mu, x0, horizon, N):
    """Per-level method of steps: one shift and one boundary read per level,
    every level copied into its own row."""
    levels = int(round(horizon * N))
    c, denom = transport._boundary_coefficients(mu, N)
    states = np.zeros((levels + 1, N + 1), dtype=np.complex128)
    states[0] = x0.values
    for j in range(1, levels + 1):
        nxt = np.empty(N + 1, dtype=np.complex128)
        nxt[:N] = states[j - 1, 1:]
        nxt[N] = (c[:N] @ nxt[:N]) / denom
        gap = abs(nxt[N] - c @ nxt)
        if not gap <= 1e-12 * max(1.0, np.abs(nxt).max()):
            raise ArithmeticError(
                f"boundary relation x(1) = Phi x broken by {gap:.3e} at "
                f"time level {j}")
        states[j] = nxt
    return states


@pytest.mark.parametrize("mu, N, horizon", [
    (TWO_ATOMS, 80, 239 / 80),                              # blocks of 8
    (BorelMeasure(atoms=((0.25, 0.4), (1.0, 0.5))), 64, 2.0),  # atom at 1
    (BorelMeasure(atoms=((0.0, 0.7),)), 64, 2.5),          # one block per N
    (BorelMeasure(density=tuple(np.sin(np.arange(64)))), 64, 1.5),  # L = 1
    (BorelMeasure(), 64, 2.0),                              # one block
], ids=["atoms", "atom-at-one", "atom-at-zero", "density", "zero"])
def test_solve_pde_matches_per_level_oracle(mu, N, horizon):
    x0 = compatible_state(mu, N)
    ref = _solve_pde_oracle(mu, x0, horizon, N)
    traj = solve_pde(mu, x0, horizon, N)
    assert traj.states.shape == ref.shape
    assert np.abs(ref).max() > 0.1
    err = np.abs(traj.states - ref).max()
    assert err <= 1e-14 * max(1.0, np.abs(ref).max())
    assert_allclose(traj.times, np.arange(ref.shape[0]) / N, rtol=0, atol=0)


@pytest.mark.parametrize("support", [(24, 28), (30, 35)])
def test_solve_pde_broken_boundary_names_oracle_level(monkeypatch, support):
    # x0 vanishes except on nodes the atom at 0.5 reads only from a later
    # level on, so the doubled solvability factor first shows there: at the
    # end of the first block, and inside the third block
    N = 40
    v = np.zeros(N + 1, dtype=complex)
    v[support[0]:support[1]] = 1.0
    x0 = GridFunction(v)
    right = transport._boundary_coefficients
    monkeypatch.setattr(
        transport, "_boundary_coefficients",
        lambda m, n: (right(m, n)[0], 2.0 * right(m, n)[1]))
    with pytest.raises(ArithmeticError) as oracle:
        _solve_pde_oracle(TWO_ATOMS, x0, 1.0, N)
    level = re.search(r"time level (\d+)", str(oracle.value)).group(1)
    assert int(level) == support[0] - N // 2
    with pytest.raises(ArithmeticError, match=f"at time level {level}$"):
        solve_pde(TWO_ATOMS, x0, 1.0, N)


def test_solve_pde_large_weights_pass_the_boundary_check():
    # atoms (0.5, 1e5) and (1, w = 1e5 + 1/2): solved for x(1), the loop
    # x(1) = Phi_0 x / (1 - w) has gain about 1 (Phi_0 the atom at 0.5), but
    # the terms of x(1) = Phi x are 1e5 times the state, so a scale of
    # max(1, max |state|) read their roundoff as a broken relation
    mu, N = BorelMeasure(atoms=((0.5, 1e5), (1.0, 1e5 + 0.5))), 64
    x0 = compatible_state(mu, N)
    traj = solve_pde(mu, x0, 2.0, N)
    c = phi_coefficients(mu, N)
    z = list(x0.values)
    for j in range(1, 2 * N + 1):
        z.append((c[:N] @ np.array(z[j:j + N])) / (1.0 - c[N]))
    assert np.abs(traj.states[-1]).max() > 0.1
    assert_allclose(traj.states[-1], z[2 * N:], rtol=1e-14, atol=0)


def test_solve_pde_subnormal_states_pass_the_boundary_check():
    # subnormal terms round to a multiple of 2^-1074, far above 1e-12 of
    # their size; the smallest normal float bounds that roundoff
    mu, N = BorelMeasure(atoms=((0.25, 0.4), (1.0, 0.3 + 0.05j))), 64
    rng = np.random.default_rng(0)
    v = 1e-318 * (rng.standard_normal(N + 1) + 1j * rng.standard_normal(N + 1))
    traj = solve_pde(mu, GridFunction(v), 1.0, N)
    assert np.all(np.isfinite(traj.states)) and np.abs(traj.states).max() > 0


def test_solve_pde_states_are_one_read_only_sequence():
    # N = 4096 to t = 8 would be 2.1 GB as one row per level; the window
    # view spans only the N + 1 + levels values of the one sequence
    N, horizon = 4096, 8.0
    mu = BorelMeasure(atoms=((0.5, 0.3), (0.875, 0.2)))
    traj = solve_pde(mu, compatible_state(mu, N), horizon, N)
    levels = int(horizon * N)
    assert traj.states.shape == (levels + 1, N + 1)
    assert not traj.states.flags.writeable
    lo, hi = byte_bounds(traj.states)
    assert hi - lo == (N + 1 + levels) * 16
    with pytest.raises(ValueError):
        traj.states[0, 0] = 1.0


def closed_loop_state(seed, N=2048):
    """The initial state of the closed-loop benchmark battery for
    ``seed``: stream 1 of the seed, boundary value read off the README
    atoms (none at s = 1)."""
    seq = np.random.SeedSequence(seed).spawn(2)[1]
    rng = np.random.Generator(np.random.PCG64(seq))
    amp, freq = rng.uniform(-1.0, 1.0, 4), rng.uniform(1.0, 3.0, 2)
    s = np.arange(N + 1) / N
    v = (amp[0] * np.sin(np.pi * freq[0] * s)
         + amp[1] * np.cos(np.pi * freq[1] * s)
         + amp[2] + amp[3] * s).astype(np.complex128)
    v[N] = 0.3 * v[N // 2] + 0.2 * v[7 * N // 8]
    return GridFunction(v)


DENSITY_2048 = BorelMeasure(
    density=tuple(np.random.default_rng(3).uniform(-0.3, 0.3, 2048)))


@pytest.mark.parametrize("mu, x0, horizon, N", [
    (TWO_ATOMS, None, 239 / 80, 80),
    (BorelMeasure(atoms=((0.25, 0.4), (1.0, 0.5))), None, 2.0, 64),
    (BorelMeasure(atoms=((0.0, 0.7),)), None, 2.5, 64),
    (BorelMeasure(density=tuple(np.sin(np.arange(64)))), None, 1.5, 64),
    (BorelMeasure(), None, 2.0, 64),
    (BorelMeasure(atoms=((0.5, 0.3), (0.875, 0.2))), closed_loop_state(7),
     4.0, 2048),
    (DENSITY_2048, None, 4.0, 2048),
], ids=["atoms", "atom-at-one", "atom-at-zero", "density", "zero",
        "closed-loop", "density-2048"])
def test_solve_pde_equals_block_oracle(mu, x0, horizon, N):
    # the check after the recursion leaves the trajectory bit for bit
    x0 = compatible_state(mu, N) if x0 is None else x0
    ref = block_solve_pde(mu, x0, horizon, N)
    traj = solve_pde(mu, x0, horizon, N)
    assert np.array_equal(traj.states, ref.states)
    assert np.array_equal(traj.times, ref.times)


@pytest.mark.parametrize("factor", [2.0, 1e-200])
def test_solve_pde_long_broken_horizon_names_block_oracle_level(
        monkeypatch, factor):
    # the recursion runs on past the broken level (to 320 levels; a factor
    # of 1e-200 overflows it to inf and nan), and the check after it still
    # raises the oracle's error, with no RuntimeWarning on the way
    N = 40
    v = np.zeros(N + 1, dtype=complex)
    v[30:35] = 1.0
    x0 = GridFunction(v)
    right = transport._boundary_coefficients
    monkeypatch.setattr(
        transport, "_boundary_coefficients",
        lambda m, n: (right(m, n)[0], factor * right(m, n)[1]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ArithmeticError) as oracle:
            block_solve_pde(TWO_ATOMS, x0, 8.0, N)
        with pytest.raises(ArithmeticError) as err:
            solve_pde(TWO_ATOMS, x0, 8.0, N)
    assert str(err.value) == str(oracle.value)
    assert str(err.value).endswith("at time level 10")


def dense_observe(triple, grid, x):
    """Observed samples by one product of the strided level windows with
    every Phi coefficient (oracle of ``TransportDiscretization.observe``)."""
    N = triple.N
    q = int(round(grid.h * N))
    padded = np.zeros(N + 1 + (grid.steps - 1) * q, dtype=np.complex128)
    padded[:N] = x.values[:N]
    windows = np.lib.stride_tricks.sliding_window_view(padded, N + 1)
    out = windows[::q] @ phi_coefficients(triple.mu, N)
    return out * np.exp(-triple.mu_shift * grid.times)


def dense_vop_outputs(triple, grid, x):
    """Phi of the PDE states at the grid times by one product of the
    strided level windows (oracle of
    ``TransportDiscretization.vop_outputs``)."""
    q = int(round(grid.h * triple.N))
    states = solve_pde(triple.mu, x, grid.t0, triple.N).states
    out = states[::q][:grid.steps] @ phi_coefficients(triple.mu, triple.N)
    return out * np.exp(-triple.mu_shift * grid.times)


PHI_READ_CASES = [
    (transport_triple(N=64, atoms=((0.5, 0.3), (0.875, 0.2))),
     TimeGrid(0.5, 32)),
    (transport_triple(N=64, atoms=((0.5, 0.3), (0.875, 0.2))),
     TimeGrid(1.0, 32)),
    (transport_triple(N=48, atoms=((0.0, 0.7), (1.0, 0.4 - 0.3j)),
                      mu_shift=1.3), TimeGrid(2.0, 32)),
    (transport_triple(N=96, atoms=ATOMS_96), TimeGrid(0.75, 24)),
    (transport_triple(N=64, density=(0.2 + 0.1j,) * 64, mu_shift=0.9),
     TimeGrid(1.0, 64)),
    (transport_triple(N=96, atoms=((0.5, 0.3), (1.0, 0.1)),
                      density=RAGGED_96, mu_shift=0.4), TimeGrid(0.5, 16)),
]
PHI_READ_IDS = ["two-atoms", "two-atoms-stride-2",
                "atoms-at-0-and-1-shift-past-one", "seven-atoms-stride-3",
                "complex-density-shift", "atoms-ragged-density-stride-3"]


@pytest.mark.parametrize("triple, grid", PHI_READ_CASES, ids=PHI_READ_IDS)
def test_observe_matches_dense_window_read(triple, grid):
    x = GridFunction(np.r_[np.cos(np.arange(triple.N)) + 0.5j, 0.0])
    ref = dense_observe(triple, grid, x)
    got = triple.discretize(grid).observe(x)
    assert got.shape == (grid.steps, 1)
    assert np.abs(ref).max() > 0.1
    assert np.abs(got[:, 0] - ref).max() <= 1e-14 * np.abs(ref).max()


def test_observe_refuses_a_state_off_the_domain():
    # the observation map lives on D(A), where x(1) = 0; the relaxed read
    # takes any state and never reads its boundary sample
    triple, grid = PHI_READ_CASES[0]
    disc = triple.discretize(grid)
    values = np.r_[np.cos(np.arange(triple.N)) + 0.5j, 1e-6]
    with pytest.raises(ValueError, match=r"outside D\(A\)"):
        disc.observe(GridFunction(values))
    inside = disc.observe(GridFunction(np.r_[values[:-1], 0.0]))
    relaxed = disc.observe(GridFunction(values), require_domain=False)
    assert np.abs(inside).max() > 0.1
    assert np.array_equal(relaxed, inside)


@pytest.mark.parametrize("triple, grid", PHI_READ_CASES, ids=PHI_READ_IDS)
def test_vop_outputs_match_dense_window_read(triple, grid):
    x = compatible_state(triple.mu, triple.N)
    ref = dense_vop_outputs(triple, grid, x)
    got = triple.discretize(grid).vop_outputs(x)
    assert got.shape == (grid.steps, 1)
    assert np.abs(ref).max() > 0.05
    assert np.abs(got[:, 0] - ref).max() <= 1e-14 * np.abs(ref).max()


# ---------------------------------------------------------------------------
# upwind generator
# ---------------------------------------------------------------------------

def test_upwind_zero_measure_is_bidiagonal():
    N = 4
    A = upwind_generator(BorelMeasure(), N)
    expected = np.zeros((N, N), dtype=complex)
    for k in range(N):
        expected[k, k] = -N
        if k + 1 < N:
            expected[k, k + 1] = N
    assert np.array_equal(A, expected)


def test_upwind_half_atom_equals_zero_measure():
    N = 16
    A0 = upwind_generator(BorelMeasure(), N)
    A1 = upwind_generator(BorelMeasure(atoms=((1.0, 0.5),)), N)
    assert np.array_equal(A0, A1)


def test_upwind_generator_equals_loop_oracle():
    mu = BorelMeasure(atoms=ATOMS_96, density=tuple(
        0.2 * d for d in RAGGED_96))
    assert np.array_equal(upwind_generator(mu, 96),
                          loop_upwind_generator(mu, 96))


def test_upwind_unit_atom_degenerate():
    with pytest.raises(ArithmeticError):
        upwind_generator(BorelMeasure(atoms=((1.0, 1.0),)), 16)


def test_upwind_eigenvalues_approach_characteristic_roots():
    # mu = e * delta_0: continuum eigenvalues at 1 + 2 pi i k
    mu = BorelMeasure(atoms=((0.0, np.e),))
    lam = numkit.eigenvalues(upwind_generator(mu, 800))
    for k in (0, 1, 2):
        target = 1.0 + 2j * np.pi * k
        assert np.min(np.abs(lam - target)) <= 0.1 * max(1.0, k * k)


# ---------------------------------------------------------------------------
# transfer function and characteristic roots
# ---------------------------------------------------------------------------

def test_transfer_scalar_atom_values():
    # H(lam) = int e^{lam (r-1)} dmu: single atom at 1 gives its weight
    mu = BorelMeasure(atoms=((1.0, 0.5),))
    for lam in (0.0, 1.0, -2.0 + 3.0j):
        assert transfer_scalar(mu, lam) == pytest.approx(0.5)


def test_transfer_scalar_unit_density_closed_form():
    N = 512
    mu = BorelMeasure(density=(1.0,) * N)
    lam = 1.5
    exact = (1.0 - np.exp(-lam)) / lam
    assert transfer_scalar(mu, lam) == pytest.approx(exact, rel=1e-3)


def test_transfer_scalar_range_guard():
    with pytest.raises(numkit.NumericalRangeError):
        transfer_scalar(BorelMeasure(atoms=((0.0, 1.0),)), 600.0)


NON_FINITE = [np.nan, complex(np.nan, 0.0), complex(1.0, np.inf),
              complex(0.0, np.nan), -np.inf]


@pytest.mark.parametrize("lam", NON_FINITE)
def test_transfer_scalar_rejects_non_finite_lambda(lam):
    mu = BorelMeasure(atoms=((0.5, 0.3),), density=(0.1,) * 8)
    with pytest.raises(numkit.NumericalRangeError):
        transfer_scalar(mu, lam)


def test_transfer_scalar_finite_at_huge_imaginary_part():
    # |lam h| up to 1.25e299: the Taylor terms of R and of its slope must
    # not be formed off the small entries, or z^3 overflows
    mu = BorelMeasure(atoms=((0.5, 0.3),), density=(0.1,) * 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lam in (1e64j, 1e300j):
            assert np.isfinite(transfer_scalar(mu, lam))


@pytest.mark.parametrize("lam", NON_FINITE)
def test_triple_transfer_and_resolvent_reject_non_finite_lambda(lam):
    triple = transport_triple(atoms=((0.5, 0.3),))
    with pytest.raises(numkit.NumericalRangeError):
        triple.transfer(lam)
    with pytest.raises(numkit.NumericalRangeError):
        triple.perturbed_resolvent(lam)


def test_characteristic_roots_zero_measure_empty():
    roots = characteristic_roots(BorelMeasure(), (-2.0, 2.0, -5.0, 5.0))
    assert roots.size == 0


def test_characteristic_roots_exponential_atom():
    mu = BorelMeasure(atoms=((0.0, np.e),))
    roots = characteristic_roots(mu, (-1.0, 3.0, -0.5, 14.0))
    expected = np.array([1.0, 1.0 + 2j * np.pi, 1.0 + 4j * np.pi])
    assert roots.size == expected.size
    for t in expected:
        assert np.min(np.abs(roots - t)) <= 1e-10


def test_characteristic_roots_constant_transfer_empty():
    mu = BorelMeasure(atoms=((1.0, 0.5),))
    roots = characteristic_roots(mu, (-5.0, 5.0, -5.0, 5.0))
    assert roots.size == 0


def scalar_ratio(z):
    """(e^z - 1) / z with the Taylor switch of R in
    ``transport._exp_ratio_and_slope``."""
    if abs(z) < 1e-5:
        return 1.0 + z / 2.0 + z * z / 6.0 + z ** 3 / 24.0
    return (np.exp(z) - 1.0) / z


def scalar_ratio_slope(z):
    """d/dz (e^z - 1) / z: Taylor through z^5 below 1e-2, else closed."""
    if abs(z) < 1e-2:
        return sum(k * z ** (k - 1) / math.factorial(k + 1)
                   for k in range(1, 7))
    return (z * np.exp(z) - np.expm1(z)) / (z * z)


def scalar_transfer(mu, lam):
    """H(lam) summed atom by atom and cell by cell in Python complex."""
    H = sum((w * np.exp(lam * (loc - 1.0)) for loc, w in mu.atoms), 0j)
    n = len(mu.density)
    for cell, d in enumerate(mu.density):
        H += d / n * np.exp(lam * (cell / n - 1.0)) * scalar_ratio(lam / n)
    return complex(H)


def scalar_slope(mu, lam):
    """H'(lam), the derivative of ``scalar_transfer``, summed the same way:
    ``(r - 1) w e^{lam (r - 1)}`` per atom and, per cell of left edge
    ``a = k / n``, ``(c / n) e^{lam (a - 1)} ((a - 1) R(z) + R'(z) / n)``
    with ``z = lam / n``."""
    dH = sum(((loc - 1.0) * w * np.exp(lam * (loc - 1.0))
              for loc, w in mu.atoms), 0j)
    n = len(mu.density)
    for cell, d in enumerate(mu.density):
        a, z = cell / n, lam / n
        dH += (d / n * np.exp(lam * (a - 1.0))
               * ((a - 1.0) * scalar_ratio(z) + scalar_ratio_slope(z) / n))
    return complex(dH)


def quadrature_slope(mu, lam, order=24):
    """H'(lam) = int (r - 1) e^{lam (r - 1)} dmu(r): atoms exactly, each
    density cell by Gauss-Legendre of ``order`` nodes, in Python complex."""
    lam = complex(lam)
    nodes, weights = np.polynomial.legendre.leggauss(order)
    dH = sum(((loc - 1.0) * w * cmath.exp(lam * (loc - 1.0))
              for loc, w in mu.atoms), 0j)
    n = len(mu.density)
    for cell, d in enumerate(mu.density):
        for x, q in zip(nodes.tolist(), weights.tolist()):
            r = (cell + (x + 1.0) / 2.0) / n
            dH += d * q / (2.0 * n) * (r - 1.0) * cmath.exp(lam * (r - 1.0))
    return dH


DENSITY_64 = tuple(np.random.default_rng(5).uniform(-0.2, 0.2, 64))
SMOOTH_64 = tuple(0.5 + 0.3 * np.cos(np.arange(64)))
# lambda = 0, |lambda h| = 1e-8 (where the closed form of R' loses 1e-8)
# and just below and just above the 1e-2 Taylor switch of R' (h = 1/64),
# |Im lambda| = 300, Re lambda = +-400
SLOPE_POINTS = [0.0, 1e-8 * 64 * np.exp(0.3j), 0.0099 * 64 * np.exp(0.7j),
                0.0101 * 64 * np.exp(0.7j), 0.0099 * 64, -0.0101 * 64,
                1.0 + 300j, -2.0 - 300j, 400.0 + 5j, -400.0 - 5j]


@pytest.mark.parametrize("mu", [
    BorelMeasure(atoms=((0.0, 0.7), (0.5, -0.3j), (0.9, 0.2), (1.0, 0.1))),
    BorelMeasure(density=SMOOTH_64),
    BorelMeasure(atoms=((0.25, 0.4), (0.75, 0.2 + 0.1j)),
                 density=SMOOTH_64),
], ids=["atoms", "density64", "atoms+density64"])
def test_transfer_slope_matches_quadrature(mu):
    lam = np.asarray(SLOPE_POINTS, dtype=np.complex128)
    H, dH = transport._transfer_and_slope(mu, lam)
    for z, value, slope in zip(lam, H, dH):
        assert value == transfer_scalar(mu, z)
        exact = quadrature_slope(mu, z)
        assert abs(slope - exact) <= 1e-12 * abs(exact), z


def exp_ratio_oracle(z):
    """The ratio ``(e^z - 1) / z`` of transport before its Taylor terms
    were restricted to the small entries, verbatim."""
    small = np.abs(z) < 1e-5
    safe = np.where(small, 1.0, z)
    return np.where(small, 1.0 + z / 2.0 + z * z / 6.0 + z ** 3 / 24.0,
                    (np.exp(safe) - 1.0) / safe)


def power_table_oracle(flat, left, h):
    """The cell exponentials ``e^{lam (kh - 1)}`` of transport's power
    table, one row per entry of ``flat``, in the blocks of
    ``transport._transfer_and_slope``, verbatim: one ``exp`` per run of
    ``_CELL_RUN`` cells, then the powers of ``e^{lam h}`` along the run."""
    n, run = left.size, min(left.size, transport._CELL_RUN)
    starts = left[::run]
    step = np.exp(flat * h)
    rows = max(1, transport._CELL_BLOCK // (starts.size * run))
    for i in range(0, flat.size, rows):
        chunk = flat[i:i + rows]
        table = np.empty((chunk.size, starts.size, run), complex)
        table[..., 0] = np.exp(np.multiply.outer(chunk, starts))
        table[..., 1:] = step[i:i + rows, None, None]
        table.reshape(chunk.size, -1)[:, n:] = 1.0   # past the last cell
        block = np.multiply.accumulate(table, axis=2).reshape(
            chunk.size, -1)[:, :n]
        yield i, rows, block


def transfer_values_oracle(mu, lam):
    """The H part of transport's evaluator, verbatim, with
    :func:`exp_ratio_oracle` for the ratio and
    :func:`power_table_oracle` for the cell exponentials."""
    H = np.zeros(lam.shape, dtype=np.complex128)
    for loc, w in mu.atoms:
        H += w * np.exp(lam * (loc - 1.0))
    if mu.density:
        n = len(mu.density)
        h = 1.0 / n
        weights = np.asarray(mu.density, dtype=np.complex128) * h
        left = np.arange(n) * h - 1.0
        flat = lam.reshape(-1)
        cells = np.empty_like(flat)
        for i, rows, block in power_table_oracle(flat, left, h):
            cells[i:i + rows] = (block * weights).sum(axis=-1)
        H += cells.reshape(lam.shape) * exp_ratio_oracle(lam * h)
    return H


@pytest.mark.parametrize("mu", [
    TWO_ATOMS,
    BorelMeasure(atoms=((0.5, 0.3),), density=DENSITY_64),
    BorelMeasure(density=SMOOTH_64),
    # 1000 cells: 64 rows per power-table block, so the points span blocks
    BorelMeasure(atoms=((0.0, 0.5j),), density=tuple(
        np.random.default_rng(2).uniform(-1.0, 1.0, 1000) * (1.0 + 0.5j))),
], ids=["atoms", "atoms+density64", "density64", "density1000"])
def test_transfer_values_bit_identical_to_oracle(mu):
    rng = np.random.default_rng(9)
    lam = (rng.uniform(-450.0, 450.0, 300)
           + 1j * rng.uniform(-300.0, 300.0, 300))
    lam[:6] = [0.0, 1e-7, 3e-6j, 0.5 + 0.5j, -2.0 - 1e-4j, 60.0]
    H = transport._transfer_and_slope(mu, lam)[0]
    assert np.array_equal(H, transfer_values_oracle(mu, lam))
    grid = lam.reshape(20, 15)
    assert np.array_equal(transport._transfer_and_slope(mu, grid)[0],
                          transfer_values_oracle(mu, grid))
    for z in lam[:12]:
        assert transfer_scalar(mu, z) == transfer_values_oracle(
            mu, np.array([z]))[0]


def closed_loop_measure(seed):
    """The root-search measure of the closed-loop benchmark battery: an
    atom (0.5, 0.3) and a 64-cell density, drawn from stream 1 of ``seed``
    after the six coefficients of the battery's initial state."""
    seq = np.random.SeedSequence(seed).spawn(2)[1]
    rng = np.random.Generator(np.random.PCG64(seq))
    rng.uniform(-1.0, 1.0, 4), rng.uniform(1.0, 3.0, 2)
    return BorelMeasure(atoms=((0.5, 0.3),),
                        density=tuple(rng.uniform(-0.2, 0.2, 64)))


def counted_evaluations(monkeypatch) -> list:
    """Patch the evaluator of H to record the size of each batch."""
    calls = []
    evaluate = transport._transfer_and_slope

    def counted(mu, lam):
        calls.append(lam.size)
        return evaluate(mu, lam)
    monkeypatch.setattr(transport, "_transfer_and_slope", counted)
    return calls


@pytest.mark.parametrize("max_iter", [1, 5, 60])
def test_characteristic_roots_one_evaluation_per_step(monkeypatch, max_iter):
    # one count batch, then one evaluation per Newton step until the count
    # is met, then the final filter; at max_iter = 1 the count could save
    # no step, so it is not made (the step bound is a module constant, 60,
    # set here to reach the short runs)
    monkeypatch.setattr(transport, "_NEWTON_STEPS", max_iter)
    calls = counted_evaluations(monkeypatch)
    mu = closed_loop_measure(7)
    roots = characteristic_roots(mu, (-5.0, 3.0, -20.0, 20.0))
    counted = max_iter > 1
    if counted:
        # the upper half contour: 15 nodes on each of 5 + 2 + 5 segments
        assert calls[0] == 15 * 12
    newton = calls[counted:-1]
    # a real measure on a grid symmetric about the real axis: Newton runs
    # from the 11 of 21 imaginary columns with Im >= 0
    assert newton[0] == 9 * 11
    assert 1 <= len(newton) <= min(max_iter, 6)
    if max_iter == 60:
        assert roots.size == 3 and len(calls) <= 8


def exp_ratio_slope_oracle(z):
    """R'(z) of transport before R and R' shared one exponential,
    verbatim."""
    small = np.abs(z) < 1e-2
    tiny = np.where(small, z, 0.0)
    safe = np.where(small, 1.0, z)
    return np.where(
        small,
        0.5 + tiny * (1.0 / 3.0 + tiny * (1.0 / 8.0 + tiny * (
            1.0 / 30.0 + tiny * (1.0 / 144.0 + tiny / 840.0)))),
        (np.exp(safe) - np.expm1(safe) / safe) / safe)


def exp_transfer_and_slope(mu, lam):
    """``transport._transfer_and_slope`` before the measure's arrays were
    built once per measure, R, R' shared one exponential and the cell
    exponentials came from a power table, verbatim (one ``exp`` per point
    and cell), with :func:`exp_ratio_oracle` and
    :func:`exp_ratio_slope_oracle` for R and R'."""
    H = np.zeros(lam.shape, dtype=np.complex128)
    dH = np.zeros(lam.shape, dtype=np.complex128)
    for loc, w in mu.atoms:
        atom = w * np.exp(lam * (loc - 1.0))
        H += atom
        dH += (loc - 1.0) * atom
    if mu.density:
        n = len(mu.density)
        h = 1.0 / n
        weights = np.asarray(mu.density, dtype=np.complex128) * h
        left = np.arange(n) * h - 1.0
        moments = weights * left
        flat = lam.reshape(-1)
        cells = np.empty_like(flat)
        cell_moments = np.empty_like(flat)
        rows = max(1, transport._CELL_BLOCK // n)
        for i in range(0, flat.size, rows):
            block = np.exp(np.multiply.outer(flat[i:i + rows], left))
            cells[i:i + rows] = (block * weights).sum(axis=-1)
            cell_moments[i:i + rows] = (block * moments).sum(axis=-1)
        cells = cells.reshape(lam.shape)
        ratio = exp_ratio_oracle(lam * h)
        H += cells * ratio
        dH += (cell_moments.reshape(lam.shape) * ratio
               + cells * h * exp_ratio_slope_oracle(lam * h))
    return H, dH


def transfer_and_slope_oracle(mu, lam):
    """``transport._transfer_and_slope``, verbatim but for the measure's
    arrays, built here from the measure, with :func:`exp_ratio_oracle` and
    :func:`exp_ratio_slope_oracle` for R and R' and
    :func:`power_table_oracle` for the cell exponentials."""
    H = np.zeros(lam.shape, dtype=np.complex128)
    dH = np.zeros(lam.shape, dtype=np.complex128)
    for loc, w in mu.atoms:
        atom = w * np.exp(lam * (loc - 1.0))
        H += atom
        dH += (loc - 1.0) * atom
    if mu.density:
        n = len(mu.density)
        h = 1.0 / n
        weights = np.asarray(mu.density, dtype=np.complex128) * h
        left = np.arange(n) * h - 1.0
        moments = weights * left
        flat = lam.reshape(-1)
        cells = np.empty_like(flat)
        cell_moments = np.empty_like(flat)
        for i, rows, block in power_table_oracle(flat, left, h):
            cells[i:i + rows] = (block * weights).sum(axis=-1)
            cell_moments[i:i + rows] = (block * moments).sum(axis=-1)
        cells = cells.reshape(lam.shape)
        ratio = exp_ratio_oracle(lam * h)
        H += cells * ratio
        dH += (cell_moments.reshape(lam.shape) * ratio
               + cells * h * exp_ratio_slope_oracle(lam * h))
    return H, dH


def test_exp_ratio_and_slope_bit_identical_to_oracles():
    # both Taylor switches, the window between them (R closed, R' Taylor),
    # and points far out, where R and R' share one exponential
    z = np.concatenate([np.array([0.0, 1e-300j]), np.outer(
        [1e-9, 9.9e-6, 1.01e-5, 3e-4, 9.9e-3, 1.01e-2, 0.7, 40.0, 450.0],
        np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 7))).ravel()])
    ratio, slope = transport._exp_ratio_and_slope(z, np.exp(z))
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.array_equal(ratio, exp_ratio_oracle(z))
    assert np.array_equal(slope, exp_ratio_slope_oracle(z))


def bit_test_points():
    """The 300 points of ``test_transfer_values_bit_identical_to_oracle``."""
    rng = np.random.default_rng(9)
    lam = (rng.uniform(-450.0, 450.0, 300)
           + 1j * rng.uniform(-300.0, 300.0, 300))
    lam[:6] = [0.0, 1e-7, 3e-6j, 0.5 + 0.5j, -2.0 - 1e-4j, 60.0]
    return lam


REAL_MEASURES = [
    TWO_ATOMS,
    BorelMeasure(atoms=((0.5, 0.3),), density=DENSITY_64),
    BorelMeasure(density=SMOOTH_64),
    BorelMeasure(atoms=((0.0, 0.5),), density=tuple(
        np.random.default_rng(2).uniform(-1.0, 1.0, 1000))),
]
REAL_IDS = ["atoms", "atoms+density64", "density64", "density1000"]


COMPLEX_1000 = BorelMeasure(atoms=((0.0, 0.5j),), density=tuple(
    np.random.default_rng(2).uniform(-1.0, 1.0, 1000) * (1.0 + 0.5j)))


@pytest.mark.parametrize("mu", REAL_MEASURES + [COMPLEX_1000],
                         ids=REAL_IDS + ["complex1000"])
def test_transfer_and_slope_bit_identical_to_oracle(mu):
    lam = bit_test_points()
    # lam[:6] holds points with |lam h| < 1e-2 (the Taylor branches of R
    # and R'); lam[6:] has none, so every R and R' is the closed form
    assert np.abs(lam[6:] / 64).min() >= 1e-2
    for points in (lam, lam[6:], lam.reshape(20, 15)):
        H, dH = transport._transfer_and_slope(mu, points)
        H_ref, dH_ref = transfer_and_slope_oracle(mu, points)
        assert np.array_equal(H, H_ref) and np.array_equal(dH, dH_ref)


@pytest.mark.parametrize("mu", REAL_MEASURES[1:] + [COMPLEX_1000],
                         ids=REAL_IDS[1:] + ["complex1000"])
def test_power_table_within_128_eps_of_the_cell_exponentials(mu):
    # the power table against one exp per point and cell, relative to the
    # sum of the magnitudes of the terms of H and of H' (46 and 75 eps are
    # the largest errors at 64 and 1000 cells)
    lam = bit_test_points()
    H, dH = transport._transfer_and_slope(mu, lam)
    H_exp, dH_exp = exp_transfer_and_slope(mu, lam)
    n = len(mu.density)
    h = 1.0 / n
    left = np.arange(n) * h - 1.0
    cells = np.abs(np.exp(np.multiply.outer(lam, left))) * h * np.abs(
        np.asarray(mu.density))
    ratio, slope = transport._exp_ratio_and_slope(lam * h, np.exp(lam * h))
    terms = cells.sum(axis=-1) * np.abs(ratio)
    slope_terms = (cells @ np.abs(left) * np.abs(ratio)
                   + cells.sum(axis=-1) * h * np.abs(slope))
    for loc, w in mu.atoms:
        atom = np.abs(w * np.exp(lam * (loc - 1.0)))
        terms += atom
        slope_terms += (1.0 - loc) * atom
    eps = np.finfo(float).eps
    assert np.all(np.abs(H - H_exp) <= 128 * eps * terms)
    assert np.all(np.abs(dH - dH_exp) <= 128 * eps * slope_terms)


@pytest.mark.parametrize("mu", [closed_loop_measure(7), COMPLEX_1000],
                         ids=["closed-loop", "complex1000"])
def test_transfer_takes_one_exp_per_run_of_cells(monkeypatch, mu):
    # the work, not the time: one exp per point for each atom, for the
    # first cell of each run of 64 cells, and for e^{lam h}, which the
    # table's step and R(lam h) share; one exp per point and cell would be
    # 64 per point at 64 cells
    exp = np.exp
    sizes = []

    def counted(x, *args, **kwargs):
        sizes.append(np.size(x))
        return exp(x, *args, **kwargs)
    monkeypatch.setattr(np, "exp", counted)
    lam = bit_test_points()
    transport._transfer_and_slope(mu, lam)
    runs = -(-len(mu.density) // 64)
    assert sum(sizes) <= lam.size * (len(mu.atoms) + runs + 1)


@pytest.mark.parametrize("mu", REAL_MEASURES, ids=REAL_IDS)
def test_real_measure_transfer_commutes_with_conjugation(mu):
    # the premise of the mirrored root search: for a real measure,
    # H(conj lam) = conj H(lam) and H'(conj lam) = conj H'(lam) in floating
    # point, bit for bit up to the sign of a zero part
    lam = bit_test_points()
    for points in (lam, lam[6:]):
        H, dH = transport._transfer_and_slope(mu, points)
        H_bar, dH_bar = transport._transfer_and_slope(mu, points.conj())
        assert np.array_equal(H_bar, H.conj())
        assert np.array_equal(dH_bar, dH.conj())


def full_grid_roots(mu, search_box, tol=1e-10, max_iter=60):
    """``characteristic_roots`` before the mirrored search, verbatim:
    Newton from every start of the grid."""
    re_min, re_max, im_min, im_max = (float(v) for v in search_box)
    if not np.all(np.isfinite((re_max - re_min, im_max - im_min))):
        raise ValueError("search box edges and extent must be finite")
    if not (re_min < re_max and im_min < im_max):
        raise ValueError("search box must have positive extent")
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError("tol must be positive and finite")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    n_re = min(40, max(3, int(np.ceil((re_max - re_min) / 1.0)) + 1))
    n_im = min(80, max(3, int(np.ceil((im_max - im_min) / 2.0)) + 1))
    lam = np.add.outer(np.linspace(re_min, re_max, n_re),
                       1j * np.linspace(im_min, im_max, n_im)).ravel()
    converged = np.zeros(lam.size, dtype=bool)
    live = np.arange(lam.size)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for _ in range(max_iter):
            z = lam[live]
            keep = np.abs(z.real) <= transport._RE_LIMIT
            live, z = live[keep], z[keep]
            H, dg = transport._transfer_and_slope(mu, z)
            g = H - 1.0
            done = np.abs(g) <= min(tol, 1e-12)
            converged[live[done]] = True
            keep = ~done
            live, z, g, dg = live[keep], z[keep], g[keep], dg[keep]
            step = g / dg
            z = z - step
            keep = ((np.abs(dg) >= 1e-300) & np.isfinite(step.real)
                    & np.isfinite(step.imag) & (np.abs(z) <= 1e6))
            live = live[keep]
            lam[live] = z[keep]
            if not live.size:
                break
    found = lam[converged]
    pad = 1e-9
    H = transport._transfer_and_slope(mu, found)[0]
    found = found[(np.abs(H - 1.0) <= tol)
                  & (re_min - pad <= found.real) & (found.real <= re_max + pad)
                  & (im_min - pad <= found.imag)
                  & (found.imag <= im_max + pad)]
    roots = []
    while found.size:
        roots.append(found[0])
        found = found[np.abs(found - found[0]) > 1e-6]
    roots = np.asarray(roots, dtype=np.complex128)
    return roots[np.lexsort((roots.real, roots.imag))]


README_ATOMS = BorelMeasure(atoms=((0.5, 0.3), (0.875, 0.2)))
CLOSED_LOOP_BOX = (-5.0, 3.0, -20.0, 20.0)


def newton_gap_bound(mu, roots):
    """Per-root bound on the distance between two points that Newton
    accepted at the same root: each has ``|H - 1| <= 1e-12``, so each lies
    within about ``1e-12 / |H'|`` of the root; 2.5 rather than 2 leaves room
    for the variation of ``H'`` and for rounding."""
    return 2.5e-12 / np.abs(transport._transfer_and_slope(mu, roots)[1])


def assert_same_roots_to_the_newton_stop(mu, roots, oracle):
    assert roots.size == oracle.size
    if roots.size:
        gap = np.abs(roots[:, None] - oracle).min(axis=1)
        assert np.all(gap <= newton_gap_bound(mu, roots))


@pytest.mark.parametrize("mu, box, stops", [
    *[(closed_loop_measure(seed), CLOSED_LOOP_BOX, True)
      for seed in range(1, 6)],
    (README_ATOMS, CLOSED_LOOP_BOX, True),
    # 21 x 80 starts: linspace(-300, 300, 80) is not symmetric bit for bit;
    # the count, 95, is never met (79 roots found)
    (BorelMeasure(atoms=((0.0, 1.0), (0.01, 1.0))),
     (-10.0, 10.0, -300.0, 300.0), False),
    (BorelMeasure(atoms=((0.5, 0.3 + 0.2j),),
                  density=closed_loop_measure(3).density), CLOSED_LOOP_BOX,
     True),
    (closed_loop_measure(2), (-5.0, 3.0, -10.0, 30.0), True),
    (closed_loop_measure(4), (-5.0, 3.0, -30.3, 30.3), True),
    # an even number of imaginary columns, symmetric: no column on Im = 0
    (closed_loop_measure(5), (-5.0, 3.0, -21.0, 21.0), True),
    (BorelMeasure(atoms=((0.0, np.e),)), (-1.0, 3.0, -14.0, 14.0), True),
], ids=[*(f"closed-loop-{seed}" for seed in range(1, 6)), "readme-atoms",
        "95-root-box", "complex-weight", "asymmetric-box", "box-30.3",
        "even-columns", "exponential-atom"])
def test_characteristic_roots_equal_full_grid_search(monkeypatch, mu, box,
                                                     stops):
    oracle = full_grid_roots(mu, box)
    calls = counted_evaluations(monkeypatch)
    roots = characteristic_roots(mu, box)
    assert roots.size
    # count batch, Newton steps, final filter: fewer steps iff the count
    # was met, and then each root is the first start's to converge by the
    # stop, which Newton's own stop puts this close to the full run's
    assert (len(calls) < 62) == stops
    if stops:
        assert_same_roots_to_the_newton_stop(mu, roots, oracle)
    else:
        assert np.array_equal(roots, oracle)


@pytest.mark.parametrize("mu, box, contour, starts", [
    (closed_loop_measure(7), (-5.0, 3.0, -21.0, 21.0), 15 * 14, 9 * 11),
    (BorelMeasure(atoms=((0.5, 0.3 - 1e-3j),),
                  density=closed_loop_measure(7).density),
     CLOSED_LOOP_BOX, 15 * 24, 9 * 21),
    (BorelMeasure(atoms=((0.5, 0.3),), density=tuple(
        np.asarray(closed_loop_measure(7).density) * (1.0 + 0j)
        + np.r_[1e-9j, np.zeros(63)])), CLOSED_LOOP_BOX, 15 * 24, 9 * 21),
    (closed_loop_measure(7), (-5.0, 3.0, -10.0, 30.0), 15 * 24, 9 * 21),
    (closed_loop_measure(7), (-5.0, 3.0, -30.3, 30.3), 15 * 36, 9 * 32),
], ids=["symmetric-even", "complex-atom", "complex-density",
        "asymmetric-box", "box-30.3"])
def test_first_newton_step_takes_the_mirrored_or_the_whole_grid(
        monkeypatch, mu, box, contour, starts):
    # the count batch comes first: the upper half contour where the grid
    # is mirrored, else (a complex weight, an asymmetric grid) the whole
    # one; then the first Newton batch
    calls = counted_evaluations(monkeypatch)
    characteristic_roots(mu, box)
    assert calls[:2] == [contour, starts]


E_ATOM = BorelMeasure(atoms=((0.0, np.e),))   # roots 1 + 2 pi i k


@pytest.mark.parametrize("mirrored", [True, False])
def test_root_count_exponential_atom(mirrored):
    # 1 + 2 pi i k for |k| <= 3 lie in the box; the upper half contour and
    # the whole one count the same
    assert transport._root_count(E_ATOM, CLOSED_LOOP_BOX, mirrored,
                                 10 ** 6) == 7


def test_unmet_count_runs_every_step(monkeypatch):
    # 95 zeros in the box, 79 of them found from the 21 x 80 starts: the
    # count is certified but never met, so every step runs and the result
    # is the full run's
    mu = BorelMeasure(atoms=((0.0, 1.0), (0.01, 1.0)))
    box = (-10.0, 10.0, -300.0, 300.0)
    assert transport._root_count(mu, box, False, 10 ** 6) == 95
    oracle = full_grid_roots(mu, box)
    calls = counted_evaluations(monkeypatch)
    roots = characteristic_roots(mu, box)
    assert len(calls) == 1 + 60 + 1
    assert roots.size == 79 and np.array_equal(roots, oracle)


@pytest.mark.parametrize("re_max", [1.0 + 1e-7, 1.0 - 1e-7],
                         ids=["roots-inside", "roots-outside"])
def test_roots_next_to_the_contour_refuse_the_count(monkeypatch, re_max):
    # the roots 1 + 2 pi i k lie 1e-7 from the right edge: the count is not
    # certified, so the search runs as without one
    box = (-5.0, re_max, -20.0, 20.0)
    assert transport._root_count(E_ATOM, box, True, 10 ** 6) is None
    assert transport._root_count(E_ATOM, box, False, 10 ** 6) is None
    oracle = full_grid_roots(E_ATOM, box)
    calls = counted_evaluations(monkeypatch)
    roots = characteristic_roots(E_ATOM, box)
    assert len(calls) == 1 + 60 + 1
    assert np.array_equal(roots, oracle)
    assert roots.size == (7 if re_max > 1.0 else 0)


def test_root_count_refused_beyond_the_strip_or_the_budget():
    # the contour must lie where H is evaluable and cost no more than the
    # Newton steps it can save
    box = (-600.0, 3.0, -20.0, 20.0)
    assert transport._root_count(E_ATOM, box, False, 10 ** 6) is None
    assert transport._root_count(E_ATOM, CLOSED_LOOP_BOX, True,
                                 15 * 12 - 1) is None
    assert transport._root_count(E_ATOM, CLOSED_LOOP_BOX, True, 15 * 12) == 7


THIN_BOX = (-0.5, 0.5, -20.0, 20.0)


@pytest.mark.parametrize("g, slope, box, count", [
    # one zero 1 from the right edge: both sums round to 1
    (lambda lam: lam - (2.0 + 0.3j), np.ones_like, CLOSED_LOOP_BOX, 1),
    # 0.5 from the edge the Kronrod sum still rounds to 1 within 1e-4,
    # but the Gauss sum misses by 2.6e-3: refused
    (lambda lam: lam - (2.5 + 0.3j), np.ones_like, CLOSED_LOOP_BOX, None),
    # no zero, and both sums vanish; the phase of e^{lam / 4} turns slowly
    (lambda lam: np.exp(lam / 4.0), lambda lam: np.exp(lam / 4.0) / 4.0,
     THIN_BOX, 0),
    # ... but that of e^{12 lam} by more than pi / 2 between nodes: refused
    (lambda lam: np.exp(12.0 * lam), lambda lam: 12.0 * np.exp(12.0 * lam),
     THIN_BOX, None),
], ids=["zero-inside", "zero-near-edge", "slow-phase", "fast-phase"])
def test_root_count_certifies_only_resolved_contours(monkeypatch, g, slope,
                                                     box, count):
    monkeypatch.setattr(transport, "_transfer_and_slope",
                        lambda mu, lam: (g(lam) + 1.0, slope(lam)))
    assert transport._root_count(None, box, False, 10 ** 6) == count


def test_clip_and_dedup_counts_the_roots_kept():
    box, none = (-1.0, 1.0, -2.0, 2.0), np.empty(0, dtype=np.complex128)
    # 0.5 + 1j + 4e-7 is within 1e-6 of 0.5 + 1j; 3, 1 + 2e-9, -1 - 2e-9,
    # 2.5j and -2.1j lie outside the box padded by 1e-9, 1 + 5e-10 inside
    points = np.array([0.5 + 1j, 0.5 + 1j + 4e-7, 3.0, 0.2 - 1.5j,
                       1.0 + 5e-10, 1.0 + 2e-9, -1.0 - 2e-9, 2.5j, -2.1j])
    seen, found = transport._clip_and_dedup(points, none, box, False)
    assert np.array_equal(seen, points[[0, 3, 4]]) and found == 3
    seen, found = transport._clip_and_dedup(np.array([0.2 - 1.5j + 1e-8]),
                                            seen, box, False)
    assert seen.size == 3 and found == 3
    # mirrored: a point stands for its conjugate too, kept with Im >= 0;
    # off the axis it counts twice, within 1e-6 of it once
    seen, found = transport._clip_and_dedup(
        np.array([0.5 - 1j, 0.5 + 1j, -0.3 + 4e-7j, -0.3 - 4e-7j]), none,
        box, True)
    assert np.array_equal(seen, [0.5 + 1j, -0.3 + 4e-7j]) and found == 3


def test_gauss_kronrod_table_is_exact_to_its_degree():
    x, kronrod, gauss = transport._gauss_kronrod_15()
    assert np.all(np.diff(x) > 0) and np.count_nonzero(gauss) == 7
    for degree in range(23):
        exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
        assert abs(kronrod @ x ** degree - exact) <= 1e-15
        if degree <= 13:
            assert abs(gauss @ x ** degree - exact) <= 1e-15


def central_difference(mu):
    """The slope the search used before H' was analytic; ``None`` (drop the
    start) when a difference point leaves the strip ``|Re| <= 500``."""
    def slope(lam):
        d = 1e-6 * (1.0 + abs(lam))
        if abs(lam.real) + d > 500.0:
            return None
        return (scalar_transfer(mu, lam + d)
                - scalar_transfer(mu, lam - d)) / (2.0 * d)
    return slope


def scalar_newton_roots(mu, box, slope, tol=1e-10, max_iter=60):
    """The root search start by start: reference for the batched one."""
    re_min, re_max, im_min, im_max = box
    n_re = min(40, max(3, int(np.ceil(re_max - re_min)) + 1))
    n_im = min(80, max(3, int(np.ceil((im_max - im_min) / 2.0)) + 1))
    roots = []
    for re0 in np.linspace(re_min, re_max, n_re):
        for im0 in np.linspace(im_min, im_max, n_im):
            lam, ok = complex(re0, im0), False
            for _ in range(max_iter):
                if abs(lam.real) > 500.0:
                    break
                g = scalar_transfer(mu, lam) - 1.0
                if abs(g) <= min(tol, 1e-12):
                    ok = True
                    break
                dg = slope(lam)
                if dg is None or abs(dg) < 1e-300:
                    break
                step = g / dg
                if not np.isfinite(step):
                    break
                lam = lam - step
                if abs(lam) > 1e6:
                    break
            if not ok or abs(scalar_transfer(mu, lam) - 1.0) > tol:
                continue
            pad = 1e-9
            if not (re_min - pad <= lam.real <= re_max + pad
                    and im_min - pad <= lam.imag <= im_max + pad):
                continue
            if all(abs(lam - r) > 1e-6 for r in roots):
                roots.append(lam)
    roots.sort(key=lambda z: (z.imag, z.real))
    return np.asarray(roots, dtype=np.complex128)


@pytest.mark.parametrize("mu, box", [
    (TWO_ATOMS, (-5.0, 3.0, -20.0, 20.0)),
    (BorelMeasure(atoms=((0.5, 0.3),), density=DENSITY_64),
     (-5.0, 3.0, -20.0, 20.0)),
    (BorelMeasure(), (-2.0, 2.0, -5.0, 5.0)),
    (BorelMeasure(atoms=((1.0, 0.5),)), (-5.0, 5.0, -5.0, 5.0)),
    # the starts with |Re| > 500 are dropped before their first step
    (BorelMeasure(atoms=((0.2, 3.0), (0.6, -1.5))),
     (-600.0, 600.0, -30.0, 30.0)),
    # the only root, -550, lies outside the strip: every iterate heading
    # for it is dropped when it leaves, so none is reported
    (BorelMeasure(atoms=((0.0, np.exp(-550.0)),)),
     (-600.0, 600.0, -3.0, 3.0)),
], ids=["atoms", "atoms+density64", "empty", "constant", "strip",
        "beyond-strip"])
def test_characteristic_roots_match_scalar_newton(mu, box):
    roots = characteristic_roots(mu, box)
    oracle = scalar_newton_roots(mu, box, lambda lam: scalar_slope(mu, lam))
    assert_same_roots_to_the_newton_stop(mu, roots, oracle)
    # the central-difference search finds the same roots: the analytic
    # slope neither loses nor adds one
    difference = scalar_newton_roots(mu, box, central_difference(mu))
    assert roots.size == difference.size
    if roots.size:
        assert np.abs(roots - difference).max() <= 1e-10
    for lam in roots:
        assert abs(transfer_scalar(mu, lam) - 1.0) <= 1e-10
        assert abs(transfer_scalar(mu, lam) - scalar_transfer(mu, lam)) \
            <= 1e-13


def test_characteristic_roots_validation():
    mu = BorelMeasure(atoms=((0.0, np.e),))
    for bad_box in [(1.0, -1.0, 0.0, 1.0), (-np.inf, 1.0, -1.0, 1.0),
                    (-1.0, 1.0, -1.0, np.inf), (-1.0, np.nan, -1.0, 1.0),
                    (-1e308, 1e308, -1.0, 1.0)]:
        with pytest.raises(ValueError):
            characteristic_roots(mu, bad_box)


# ---------------------------------------------------------------------------
# Greiner compatibility residual
# ---------------------------------------------------------------------------

def test_greiner_zero_lambda_exact():
    assert greiner_compatibility(0.0, 64) == 0.0


def test_greiner_residual_halves_with_N():
    r1 = greiner_compatibility(1.0, 256)
    r2 = greiner_compatibility(1.0, 512)
    assert r1 <= 5e-3
    assert r2 <= 0.65 * r1


def test_greiner_complex_lambda_same_contract():
    lam = -2.0 + 3.0j
    r1 = greiner_compatibility(lam, 256)
    r2 = greiner_compatibility(lam, 512)
    assert r2 <= 0.65 * r1


# ---------------------------------------------------------------------------
# the one on-grid check
# ---------------------------------------------------------------------------

OFF_GRID_TRIPLE = transport_triple(N=16, atoms=((0.5, 0.3), (0.875, 0.2)))
OFF_GRID_DOMAIN = GridFunction(np.r_[np.ones(16), 0.0])   # x(1) = 0
OFF_GRID_CLOSED = compatible_state(OFF_GRID_TRIPLE.mu, 16)  # x(1) = Phi x


def _ones(g):
    return SampledSignal(g, np.ones(g.steps))


# each public entry point that takes a transport time or time step, called
# with h (or t) off the 1/N grid
OFF_GRID_CALLS = {
    "step": lambda g: OFF_GRID_TRIPLE.step(g.h, OFF_GRID_DOMAIN),
    "solve_pde":
        lambda g: solve_pde(OFF_GRID_TRIPLE.mu, OFF_GRID_CLOSED, g.h, 16),
    "controllability_map": lambda g: admissibility.controllability_map(
        OFF_GRID_TRIPLE.discretize(g), _ones(g)),
    "observability_map": lambda g: admissibility.observability_map(
        OFF_GRID_TRIPLE.discretize(g), OFF_GRID_DOMAIN),
    "controllability_matrix":
        lambda g: OFF_GRID_TRIPLE.discretize(g).controllability_matrix(),
    "observability_matrix":
        lambda g: OFF_GRID_TRIPLE.discretize(g).observability_matrix(),
    "feedback_admissible": lambda g: admissibility.feedback_admissible(
        OFF_GRID_TRIPLE, g, 2.0),
    "estimate_constants": lambda g: admissibility.estimate_constants(
        OFF_GRID_TRIPLE, g, 2.0, 1.0, 3.0, trials=2, rng=numkit.make_rng(1)),
    "rescaled_map_identities": lambda g: admissibility.rescaled_map_identities(
        OFF_GRID_TRIPLE, g, 1.0),
    "weiss_staffans_semigroup":
        lambda g: perturbation.weiss_staffans_semigroup(
            OFF_GRID_TRIPLE, g, g.t0, OFF_GRID_CLOSED),
    "variation_of_parameters_residual":
        lambda g: perturbation.variation_of_parameters_residual(
            OFF_GRID_TRIPLE, g, g.t0, OFF_GRID_CLOSED),
    "long_horizon_growth_check":
        lambda g: perturbation.long_horizon_growth_check(
            OFF_GRID_TRIPLE, g, (1.0,)),
}


@pytest.mark.parametrize("grid_args", [(0.5, 6), (0.25, 8)],
                         ids=["hN=4/3", "hN=1/2"])
@pytest.mark.parametrize("entry", sorted(OFF_GRID_CALLS))
def test_off_grid_time_raises_from_every_entry_point(entry, grid_args):
    # h N = 4/3 is not whole and h N = 1/2 is below one node: every entry
    # point stops at the one check, with its message
    with pytest.raises(ValueError,
                       match=r"is not a (positive|non-negative) multiple "
                             r"of 1/16$"):
        OFF_GRID_CALLS[entry](TimeGrid(*grid_args))
