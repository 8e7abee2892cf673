"""Acceptance battery: one test per shipping criterion.

Each test prints the measured numbers, so ``pytest -v -s tests/test_acceptance.py``
doubles as the acceptance report.
"""

import functools
import json

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conftest import (chain_entry, dissipative_matrix, feedback_forward_matrix,
                      io_matrix, materialize, shipped_feedback_inverse,
                      stable_triple, taylor_expm, total_variation)
from test_cli import matrix_config, transport_config
from sgperturb import numkit
from sgperturb.admissibility import (
    TimeGrid,
    estimate_constants,
    rescaled_map_identities,
)
from sgperturb.classical import ds_suite, mv_suite
from sgperturb.cli import run as cli_run
from sgperturb.perturbation import (
    generation_certificate,
    variation_of_parameters_residual,
    weiss_staffans_semigroup,
)
from sgperturb.semigroup import MatrixTriple
from sgperturb.toeplitz import BlockToeplitz, column_norm
from sgperturb.transport import (
    BorelMeasure,
    GridFunction,
    TransportTriple,
    characteristic_roots,
    phi_coefficients,
    solve_pde,
    upwind_generator,
)

TWO_ATOMS = ((0.5, 0.3), (0.9, 0.2))
EULER_ATOM = ((0.0, float(np.e)),)
CHAR_ROOTS = tuple(1.0 + 2.0j * np.pi * k for k in range(-3, 4))


def stabilized_5x5(seed):
    rng = numkit.make_rng(1000 + seed)
    A = numkit.random_matrix(rng, 5, 5)
    A = A - (np.max(numkit.eigenvalues(A).real) + 0.5) * np.eye(5)
    B = 0.7 * numkit.random_matrix(rng, 5, 2)
    C = 0.7 * numkit.random_matrix(rng, 2, 5)
    return MatrixTriple(A, B, C), rng


def snapped_state(mu, values, p=2.0):
    """Adjust the boundary node so the discrete domain constraint holds."""
    v = np.asarray(values, dtype=np.complex128).copy()
    N = v.shape[0] - 1
    c = phi_coefficients(mu, N)
    v[N] = (c[:N] @ v[:N]) / (1.0 - c[N])
    return GridFunction(v, p=p)


def test_criterion_01_closed_loop_resolvent_formula():
    worst = 0.0
    for seed in range(50):
        triple, rng = stabilized_5x5(seed)
        closed = triple.A + triple.B @ triple.C
        ab = max(np.max(numkit.eigenvalues(triple.A).real),
                 np.max(numkit.eigenvalues(closed).real))
        for _ in range(20):
            lam = complex(ab + rng.uniform(0.3, 2.5), rng.uniform(-6.0, 6.0))
            Q = triple.perturbed_resolvent(lam)
            direct = np.linalg.inv(lam * np.eye(5) - closed)
            rel = (numkit.induced_norm(Q - direct, 2)
                   / numkit.induced_norm(direct, 2))
            worst = max(worst, rel)
    print(f"criterion 01: worst relative resolvent residual {worst:.3e} "
          f"over 50 triples x 20 points (tol 1e-10)")
    assert worst <= 1e-10


def test_criterion_02_semigroup_construction_first_order():
    lo, hi = np.inf, 0.0
    for seed in range(10):
        triple = stable_triple(seed)
        x = numkit.random_vector(numkit.make_rng(4000 + seed), 4)
        oracle = taylor_expm(triple.A + triple.B @ triple.C, 0.8) @ x
        errs = []
        for steps in (16, 32, 64, 128):
            ws = weiss_staffans_semigroup(triple, TimeGrid(0.8, steps),
                                          0.8, x)
            errs.append(np.abs(ws - oracle).max())
        for k in range(3):
            ratio = errs[k] / errs[k + 1]
            lo, hi = min(lo, ratio), max(hi, ratio)
    print(f"criterion 02: error ratios under grid doubling in "
          f"[{lo:.3f}, {hi:.3f}] across 10 seeds (need [1.6, 2.4])")
    assert lo >= 1.6
    assert hi <= 2.4


def test_criterion_03_variation_of_parameters():
    worst = 0.0
    for seed in range(8):
        triple = stable_triple(100 + seed)
        grid = TimeGrid(0.8, 64)
        x = numkit.random_vector(numkit.make_rng(200 + seed), 4)
        res = variation_of_parameters_residual(triple, grid, 0.8, x)
        worst = max(worst, res / (5.0 * grid.h * np.linalg.norm(x)))
    residuals = []
    for N in (64, 128):
        cells = (np.arange(N) + 0.5) / N
        mu = BorelMeasure((), tuple(0.4 + 0.3 * np.sin(np.pi * cells)))
        triple = TransportTriple(N=N, p=2.0, mu=mu)
        s = np.arange(N + 1) / N
        x = snapped_state(mu, np.cos(np.pi * s))
        residuals.append(variation_of_parameters_residual(
            triple, TimeGrid(1.0, N // 2), 1.0, x))
    print(f"criterion 03: matrix residual at {worst:.3f} of the 5h||x|| "
          f"budget; transport residual {residuals[0]:.3e} -> "
          f"{residuals[1]:.3e} under refinement")
    assert worst <= 1.0
    assert residuals[1] <= 0.75 * residuals[0]


def test_criterion_04_toeplitz_norm_bound_never_violated():
    violations = 0
    for seed in range(100):
        rng = numkit.make_rng(seed)
        n = int(rng.integers(1, 9))
        T = BlockToeplitz([numkit.random_matrix(rng, 3, 3)
                           for _ in range(n)])
        exact = numkit.induced_norm(materialize(T), 2)
        if exact > column_norm(T.blocks, 2):
            violations += 1
    print(f"criterion 04: {violations} bound violations over 100 seeded "
          f"draws (need 0)")
    assert violations == 0


def test_criterion_05_feedback_toeplitz_inverse():
    worst_product = 0.0
    for seed in range(50):
        rng = numkit.make_rng(100 + seed)
        n = int(rng.integers(1, 7))
        F = numkit.random_matrix(rng, 2, 2)
        nrm = numkit.induced_norm(F, 2)
        if nrm > 0.5:
            F = F * (0.5 / nrm)
        B = numkit.random_matrix(rng, 3, 2)
        C = numkit.random_matrix(rng, 2, 3)
        T = numkit.random_matrix(rng, 3, 3)
        forward = feedback_forward_matrix(F, B, C, T, n)
        inverse, _ = shipped_feedback_inverse(F, B, C, T, n)
        eye = np.eye(forward.shape[0])
        worst_product = max(worst_product,
                            np.abs(forward @ inverse - eye).max(),
                            np.abs(inverse @ forward - eye).max())
        lhs, rhs = chain_entry(F, B, C, T, n)
        assert lhs <= rhs * (1.0 + 1e-12)
    print(f"criterion 05: worst inverse product residual {worst_product:.3e}"
          f" over 50 seeds, n <= 6 (tol 1e-10); norm chain held throughout")
    assert worst_product <= 1e-10


def test_criterion_06_rescaling_identities_both_worlds():
    worst = 0.0
    cases = (
        (stable_triple(6), TimeGrid(0.8, 16)),
        (TransportTriple(N=32, p=2.0, mu=BorelMeasure(((0.5, 0.4),))),
         TimeGrid(0.5, 16)),
    )
    for k, (triple, grid) in enumerate(cases):
        for mu_shift in (0.0, 1.0, 2.0):
            res = rescaled_map_identities(triple, grid, mu_shift, trials=3,
                                          rng=numkit.make_rng(60 + k))
            worst = max(worst, res.control, res.observe, res.io)
    print(f"criterion 06: worst rescaling identity residual {worst:.3e} "
          f"for shifts 0, 1, 2 in both worlds (tol 1e-9)")
    assert worst <= 1e-9


def test_criterion_07_transport_map_norm_bounds():
    mu = BorelMeasure(((0.5, 0.3), (0.875, 0.2)))
    triple = TransportTriple(N=256, p=2.0, mu=mu)
    grid = TimeGrid(0.25, 64)
    rep = estimate_constants(triple, grid, 2.0, 2.0, 2.0, trials=8,
                             rng=numkit.make_rng(7))
    tv = total_variation(mu)
    tail = mu.tail_mass(grid.t0)
    print(f"criterion 07: M_control {rep.M_control:.9f} (<= 1), M_observe "
          f"{rep.M_observe:.9f} (<= {tv:.2f}), M_io {rep.M_io:.9f} "
          f"(<= {tail:.2f})")
    assert rep.M_control <= 1.0 + 1e-12
    assert rep.M_observe <= tv + 1e-9
    assert rep.M_io <= tail + 1e-9


def test_criterion_08_boundary_atom_edge_cases():
    grid = TimeGrid(1.0, 16)
    for alpha in (0.5, 1.0):
        triple = TransportTriple(N=16, p=2.0,
                                 mu=BorelMeasure(((1.0, alpha),)))
        F = io_matrix(triple.discretize(grid))
        assert np.array_equal(F, alpha * np.eye(16))
    half = TransportTriple(N=16, p=2.0, mu=BorelMeasure(((1.0, 0.5),)))
    unit = TransportTriple(N=16, p=2.0, mu=BorelMeasure(((1.0, 1.0),)))
    cert_half = generation_certificate(half, grid, 2.0, 1.0, 3.0,
                                       numkit.make_rng(8))
    cert_unit = generation_certificate(unit, grid, 2.0, 1.0, 3.0,
                                       numkit.make_rng(9))
    worst_transfer = max(abs(complex(unit.transfer(lam)[0, 0]) - 1.0)
                         for lam in (0.0, 1.0, -2.0 + 3.0j, 10.0j))
    print(f"criterion 08: io matrix equals alpha*I exactly; verdicts "
          f"{cert_half.verdict} / {cert_unit.verdict}; unit-atom transfer "
          f"deviation from 1 is {worst_transfer:.1e}")
    assert cert_half.verdict == "generated"
    assert cert_unit.verdict == "not_generated"
    assert worst_transfer == 0.0


@functools.lru_cache(maxsize=None)
def _upwind_eigs_near_one(N=2000, count=9):
    A = sp.csr_matrix(upwind_generator(BorelMeasure(EULER_ATOM), N))
    v0 = np.full(N, 1.0)
    return spla.eigs(A, k=count, sigma=1.0, v0=v0,
                     return_eigenvectors=False)


def test_criterion_09_characteristic_roots_vs_upwind_spectrum():
    mu = BorelMeasure(EULER_ATOM)
    roots = characteristic_roots(mu, (-1.0, 3.0, -20.0, 20.0))
    worst_root = max(float(np.abs(roots - lam).min()) for lam in CHAR_ROOTS)
    eigs = _upwind_eigs_near_one()
    dists = [float(np.abs(eigs - lam).min()) for lam in CHAR_ROOTS]
    rels = [d / abs(lam) for d, lam in zip(dists, CHAR_ROOTS)]
    inner = [d for d, lam in zip(dists, CHAR_ROOTS)
             if abs(lam.imag) < 5.0 * np.pi]
    print(f"criterion 09: roots located to {worst_root:.2e} (tol 1e-10); "
          f"upwind distances {[f'{d:.4f}' for d in dists]}; worst relative "
          f"{max(rels):.4f}")
    assert worst_root <= 1e-10
    assert max(rels) <= 0.05
    assert max(inner) <= 0.05


@pytest.mark.xfail(
    strict=True,
    reason="first-order upwind truncation leaves the outermost conjugate "
           "root pair |root|^2/(2N) ~ 0.089 from its discrete counterpart "
           "at N = 2000; an absolute tolerance of 0.05 there needs "
           "N >= 3600")
def test_criterion_09_absolute_tolerance_outermost_pair():
    eigs = _upwind_eigs_near_one()
    outer = [lam for lam in CHAR_ROOTS if abs(lam.imag) > 5.0 * np.pi]
    assert max(float(np.abs(eigs - lam).min()) for lam in outer) <= 0.05


def test_criterion_10_three_way_transport_agreement():
    mu = BorelMeasure(TWO_ATOMS)
    roots = characteristic_roots(mu, (-3.0, -0.5, -1.0, 1.0))
    assert roots.shape[0] == 1
    lam = float(roots[0].real)
    prev = None
    ratios = []
    for N in (80, 160, 320):
        s = np.arange(N + 1) / N
        x = snapped_state(mu, np.exp(lam * (s - 1.0)))
        triple = TransportTriple(N=N, p=2.0, mu=mu)
        pde = solve_pde(mu, x, 1.0, N).states[-1][:N]
        ws = weiss_staffans_semigroup(triple, TimeGrid(1.0, N // 2), 1.0,
                                      x).values[:N]
        em = numkit.expm(upwind_generator(mu, N), 1.0) @ x.values[:N]
        diffs = np.array([np.abs(ws - pde).max(), np.abs(em - pde).max(),
                          np.abs(ws - em).max()])
        if prev is not None:
            ratios.append(diffs / prev)
        prev = diffs
    ratios = np.array(ratios)
    print(f"criterion 10: pairwise sup-difference ratios under N doubling "
          f"{np.round(ratios, 3).tolist()} (need <= 0.75)")
    assert ratios.max() <= 0.75


def test_criterion_11_indicator_bound_slack_shrinks():
    def battery(steps):
        worst_slack = 0.0
        entries = 0
        for seed in range(300, 307):
            rng = numkit.make_rng(seed)
            A = dissipative_matrix(rng, 4)
            C = 0.8 * numkit.random_matrix(rng, 4, 4)
            triple = MatrixTriple(A, np.eye(4), C)
            rep = mv_suite(triple, TimeGrid(1.0, steps), 2.0,
                           numkit.make_rng(9000 + seed))
            assert rep.checks["indicator_bound"]["ok"]
            for entry in rep.checks["indicator_bound"]["entries"]:
                entries += 1
                assert entry["lhs"] <= entry["rhs_envelope"] * (1.0 + 1e-9)
                worst_slack = max(worst_slack, entry["slack"])
        return worst_slack, entries

    coarse, n_coarse = battery(16)
    fine, _ = battery(64)
    print(f"criterion 11: worst measured slack over {n_coarse} indicator "
          f"signals {coarse:.3e} -> {fine:.3e} under 4x refinement")
    assert n_coarse >= 20
    assert fine <= max(0.5 * coarse, 1e-12)


def test_criterion_12_classical_reduction_certificates():
    generated = 0
    for seed in range(20):
        rng = numkit.make_rng(500 + seed)
        A = dissipative_matrix(rng, 4)
        B = 0.8 * numkit.random_matrix(rng, 4, 4)
        rep_ds = ds_suite(MatrixTriple(A, B, np.eye(4)), TimeGrid(1.0, 16),
                          2.0, rng)
        rng = numkit.make_rng(700 + seed)
        A = dissipative_matrix(rng, 4)
        C = 0.8 * numkit.random_matrix(rng, 4, 4)
        rep_mv = mv_suite(MatrixTriple(A, np.eye(4), C), TimeGrid(1.0, 16),
                          2.0, rng)
        for rep in (rep_ds, rep_mv):
            assert rep.ok
            assert rep.checks["semigroup_first_order"]["ok"]
            generated += rep.checks["certificate"]["verdict"] == "generated"
    print(f"criterion 12: {generated}/40 suite certificates generated with "
          f"first-order oracle agreement (need 40)")
    assert generated == 40


def test_criterion_13_battery_determinism(tmp_path):
    configs = {
        "matrix": matrix_config(),
        "transport": transport_config([[0.5, 0.3], [0.875, 0.2]],
                                      "generated", seed=11),
    }
    for world, cfg in configs.items():
        path = tmp_path / f"{world}.json"
        path.write_text(json.dumps(cfg))
        outs = []
        for tag in ("r1", "r2"):
            out = tmp_path / f"{world}_{tag}"
            assert cli_run(path, out_dir=out, verify=True,
                           write_csv=True) == 0
            outs.append(out)
        first, second = outs
        names = sorted(p.name for p in first.iterdir())
        assert sorted(p.name for p in second.iterdir()) == names
        for name in names:
            assert (second / name).read_bytes() == (first / name).read_bytes()
        print(f"criterion 13: {world} battery byte-identical across two "
              f"runs ({len(names)} output files)")
