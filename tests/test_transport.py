import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import compatible_state
import sgperturb
from sgperturb import numkit, transport
from sgperturb.semigroup import GridFunction
from sgperturb.transport import (
    BorelMeasure,
    apply_phi,
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
    assert mu.total_variation() == pytest.approx(0.5 + 1.0)
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


# ---------------------------------------------------------------------------
# Dirichlet lift
# ---------------------------------------------------------------------------

def test_dirichlet_lift_lambda_zero_is_constant():
    out = dirichlet_operator(0.0, 1.0, 16)
    assert np.array_equal(out.values, np.ones(17))


def test_dirichlet_lift_zero_boundary_value():
    out = dirichlet_operator(2.0 + 1.0j, 0.0, 16)
    assert np.abs(out.values).max() == 0.0


def test_dirichlet_lift_solves_kernel_problem():
    N, lam = 256, 1.0
    f = dirichlet_operator(lam, 1.0, N).values
    assert f[N] == pytest.approx(1.0)
    # forward-difference residual of (lam - d/ds) f = 0 is O(1/N)
    res = np.abs(lam * f[:N] - N * (f[1:] - f[:N])).max()
    assert res <= 5.0 / N
    with pytest.raises(numkit.NumericalRangeError):
        dirichlet_operator(600.0, 1.0, N)


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
from sgperturb.semigroup import GridFunction
from sgperturb.transport import BorelMeasure, phi_coefficients, solve_pde

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


def scalar_transfer(mu, lam):
    """H(lam) summed atom by atom and cell by cell in Python complex."""
    H = sum((w * np.exp(lam * (loc - 1.0)) for loc, w in mu.atoms), 0j)
    n = len(mu.density)
    for cell, d in enumerate(mu.density):
        z = lam / n
        ratio = (1.0 + z / 2.0 + z * z / 6.0 + z ** 3 / 24.0
                 if abs(z) < 1e-5 else (np.exp(z) - 1.0) / z)
        H += d / n * np.exp(lam * (cell / n - 1.0)) * ratio
    return complex(H)


def scalar_newton_roots(mu, box, tol=1e-10, max_iter=60):
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
                d = 1e-6 * (1.0 + abs(lam))
                if abs(lam.real) + d > 500.0:
                    break
                dg = (scalar_transfer(mu, lam + d)
                      - scalar_transfer(mu, lam - d)) / (2.0 * d)
                if abs(dg) < 1e-300:
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


DENSITY_64 = tuple(np.random.default_rng(5).uniform(-0.2, 0.2, 64))


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
    oracle = scalar_newton_roots(mu, box)
    assert roots.size == oracle.size
    if roots.size:
        assert np.abs(roots - oracle).max() <= 1e-12
    for lam in roots:
        assert abs(transfer_scalar(mu, lam) - 1.0) <= 1e-10
        assert abs(transfer_scalar(mu, lam) - scalar_transfer(mu, lam)) \
            <= 1e-13


def test_characteristic_roots_validation():
    with pytest.raises(ValueError):
        characteristic_roots(BorelMeasure(), (1.0, -1.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        characteristic_roots(BorelMeasure(), (-1.0, 1.0, -1.0, 1.0), tol=0.0)


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
