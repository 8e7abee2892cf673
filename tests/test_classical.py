import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import dissipative_matrix, taylor_expm
from sgperturb import classical, numkit, toeplitz
from sgperturb.admissibility import TimeGrid
from sgperturb.classical import ds_suite, mv_suite, random_bounded_factor
from sgperturb.semigroup import MatrixDiscretization, MatrixTriple, _powers
from sgperturb.transport import BorelMeasure, TransportTriple


def control_triple(seed, n=4):
    """C = Id so the control factor acts on the state space itself."""
    rng = numkit.make_rng(seed)
    A = dissipative_matrix(rng, n)
    B = 0.8 * numkit.random_matrix(rng, n, n)
    return MatrixTriple(A, B, np.eye(n)), rng


def observation_triple(seed, n=4):
    """B = Id so the observation factor acts on the state space itself."""
    rng = numkit.make_rng(seed)
    A = dissipative_matrix(rng, n)
    C = 0.8 * numkit.random_matrix(rng, n, n)
    return MatrixTriple(A, np.eye(n), C), rng


# ---------------------------------------------------------------------------
# factories
# ---------------------------------------------------------------------------

def test_dissipative_matrix_is_stable():
    A = dissipative_matrix(numkit.make_rng(1), 5)
    assert np.max(numkit.eigenvalues(A).real) < 0.0


def test_random_bounded_factor_respects_bound():
    F = random_bounded_factor(numkit.make_rng(2), 6)
    assert numkit.induced_norm(F, 2) <= 2.0 + 1e-12


# ---------------------------------------------------------------------------
# control-side suite
# ---------------------------------------------------------------------------

def test_ds_zero_control_trivially_passes():
    rng = numkit.make_rng(3)
    A = dissipative_matrix(rng, 3)
    triple = MatrixTriple(A, np.zeros((3, 3)), np.eye(3))
    report = ds_suite(triple, TimeGrid(1.0, 16), 2.0, rng)
    assert report.ok
    assert report.checks["certificate"]["verdict"] == "generated"


def test_ds_random_triple_generated_and_matches_exponential():
    triple, rng = control_triple(4)
    grid = TimeGrid(0.8, 32)
    report = ds_suite(triple, grid, 2.0, rng)
    assert report.ok
    assert report.checks["certificate"]["verdict"] == "generated"
    first = report.checks["semigroup_first_order"]
    assert first["ok"]
    # refinement actually reduced the defect against the exponential
    assert first["error_fine"] <= max(0.75 * first["error_coarse"], 1e-12)


def test_ds_translation_continuity_bound_holds():
    triple, rng = control_triple(5)
    report = ds_suite(triple, TimeGrid(1.0, 24), 2.0, rng)
    entry = report.checks["translation_continuity"]
    assert entry["ok"]
    assert entry["worst_gap"] <= 1e-10


def test_ds_sup_bound_holds():
    triple, rng = control_triple(6)
    report = ds_suite(triple, TimeGrid(1.0, 16), 3.0, rng)
    assert report.checks["sup_bound"]["ok"]


def test_ds_bounded_factor_variant_passes():
    triple, rng = control_triple(7)
    report = ds_suite(triple, TimeGrid(0.5, 16), 2.0, rng)
    nested = report.checks["bounded_factor_stability"]
    assert nested["ok"]
    assert nested["sub_checks"]["certificate"]


def test_ds_requires_identity_observation():
    rng = numkit.make_rng(8)
    A = dissipative_matrix(rng, 3)
    triple = MatrixTriple(A, np.eye(3), 2.0 * np.eye(3))
    with pytest.raises(ValueError):
        ds_suite(triple, TimeGrid(1.0, 8), 2.0, rng)


def test_ds_rejects_transport_world():
    triple = TransportTriple(N=8, p=2.0, mu=BorelMeasure())
    with pytest.raises(ValueError):
        ds_suite(triple, TimeGrid(1.0, 8), 2.0, numkit.make_rng(9))


# ---------------------------------------------------------------------------
# observation-side suite
# ---------------------------------------------------------------------------

def test_mv_zero_observation_all_bounds_hold_with_zero_constant():
    rng = numkit.make_rng(10)
    A = dissipative_matrix(rng, 3)
    triple = MatrixTriple(A, np.eye(3), np.zeros((3, 3)))
    report = mv_suite(triple, TimeGrid(1.0, 16), 2.0, rng)
    assert report.ok
    assert report.checks["indicator_bound"]["constant"] == 0.0


def test_mv_scalar_closed_form_bound():
    # A = -1, C = c, p = 2 on [0, 1]: the admissibility constant is
    # M = int_0^1 e^{-2s} ds = (1 - e^{-2}) / 2 and the indicator bound
    # for gamma = 0, delta = 1 reads lhs <= c^2 M (1 + 1/2) (delta-gamma+h)^2
    c = 1.3
    triple = MatrixTriple(np.array([[-1.0]]), np.eye(1), np.array([[c]]))
    grid = TimeGrid(1.0, 256)
    h = grid.h
    M = c * c * (1.0 - np.exp(-2.0)) / 2.0
    # left side computed by direct quadrature of the closed-form integrand:
    # || C int_0^r e^{A (r-s)} x ds ||^2 = c^2 (1 - e^{-r})^2
    r = grid.times
    lhs = float(np.sum((c * (1.0 - np.exp(-r))) ** 2) * h)
    assert lhs <= M * 1.5 * (1.0 + h) ** 2
    report = mv_suite(triple, grid, 2.0, numkit.make_rng(11))
    assert report.ok
    # left-endpoint quadrature of the decreasing integrand c^2 e^{-2s}
    # overestimates the integral by at most h * c^2
    assert report.checks["indicator_bound"]["constant"] <= M + c * c * h


def test_mv_random_triple_generated_and_matches_exponential():
    triple, rng = observation_triple(12)
    grid = TimeGrid(0.8, 32)
    report = mv_suite(triple, grid, 2.0, rng)
    assert report.ok
    assert report.checks["certificate"]["verdict"] == "generated"
    assert report.checks["semigroup_first_order"]["ok"]


def test_mv_indicator_inequality_entries():
    triple, rng = observation_triple(13)
    report = mv_suite(triple, TimeGrid(1.0, 32), 2.0, rng)
    entry = report.checks["indicator_bound"]
    assert entry["ok"]
    for trial in entry["entries"]:
        assert trial["lhs"] <= trial["rhs_envelope"]
        assert trial["slack"] >= 0.0


def test_mv_indicator_slack_shrinks_under_refinement():
    def slack(steps):
        triple, rng = observation_triple(14)
        report = mv_suite(triple, TimeGrid(1.0, steps), 2.0, rng)
        return max(t["slack"] for t in
                   report.checks["indicator_bound"]["entries"])

    assert slack(64) <= max(0.5 * slack(16), 1e-12)


def test_mv_step_function_l1_bound():
    triple, rng = observation_triple(15)
    report = mv_suite(triple, TimeGrid(1.0, 24), 2.0, rng)
    assert report.checks["step_function_bound"]["ok"]


def test_mv_bounded_factor_variant_passes():
    triple, rng = observation_triple(16)
    report = mv_suite(triple, TimeGrid(0.5, 16), 2.0, rng)
    nested = report.checks["bounded_factor_stability"]
    assert nested["ok"]
    assert nested["sub_checks"]["certificate"]


def test_mv_rejects_p_at_most_one():
    triple, rng = observation_triple(17)
    for p in (1.0, np.inf):
        with pytest.raises(ValueError):
            mv_suite(triple, TimeGrid(1.0, 16), p, rng)


def test_mv_requires_identity_control():
    rng = numkit.make_rng(18)
    A = dissipative_matrix(rng, 3)
    triple = MatrixTriple(A, 2.0 * np.eye(3), np.eye(3))
    with pytest.raises(ValueError):
        mv_suite(triple, TimeGrid(1.0, 16), 2.0, rng)


def test_suites_carry_boundedness_header():
    triple, rng = control_triple(19)
    report = ds_suite(triple, TimeGrid(0.5, 8), 2.0, rng)
    assert "bounded" in report.header
    assert "not unboundedness itself" in report.header


def count_dense_f_norms(monkeypatch, triple, grid, builds):
    """Record ``triple`` in ``builds`` for each norm of a square operand of
    F's size: F has no dense builder left to count, so a dense F shows up
    as such an operand reaching ``induced_norm``."""
    norm = numkit.induced_norm
    columns = grid.steps * triple.control_dim

    def counted(A, p):
        if np.shape(A) == (columns, columns):
            builds.append(triple)
        return norm(A, p)
    for module in (numkit, toeplitz):
        monkeypatch.setattr(module, "induced_norm", counted)


@pytest.mark.parametrize("builder, per_level", [("io_matrix", 0),
                                                ("observability_matrix", 1)],
                         ids=["io_matrix", "observability_matrix"])
def test_mv_suite_builds_each_operator_once_per_level(builder, per_level,
                                                      monkeypatch):
    # the indicator, step-function and constant checks share the level's
    # observability matrix, and apply F as FFT products with its first
    # block column: no level builds a dense F, its certificate included
    triple, _ = observation_triple(47, n=3)
    grid = TimeGrid(0.5, 32)
    expected = mv_suite(triple, grid, 3.0, numkit.make_rng(48))
    builds = []
    if builder == "io_matrix":
        count_dense_f_norms(monkeypatch, triple, grid, builds)
    else:
        build = getattr(MatrixDiscretization, builder)

        def counted(disc):
            builds.append(disc.triple)
            return build(disc)
        monkeypatch.setattr(MatrixDiscretization, builder, counted)
    report = mv_suite(triple, grid, 3.0, numkit.make_rng(48))
    assert report == expected
    # per_level builds by the suite, then as many by its bounded-factor level
    assert len(builds) == 2 * per_level
    assert all(b is triple for b in builds[:per_level])


@pytest.mark.parametrize("seed", range(3))
def test_orbit_sum_matches_one_exponential_per_sample(seed):
    # the indicator and step-function inner integrals walk e^{hA} once
    # instead of taking e^{khA} per sample
    triple, rng = observation_triple(seed)
    h = 0.5 / 32
    E = numkit.expm(triple.A, h)
    for count in (1, 2, 7, 32):
        x = numkit.random_vector(rng, 4)
        per_sample = sum(numkit.expm(triple.A, k * h) @ x
                         for k in range(count))
        walked = _powers(E, x, count).sum(axis=0)
        assert (np.linalg.norm(walked - per_sample)
                <= 1e-13 * np.linalg.norm(per_sample))


def test_mv_suite_level_takes_one_exponential_for_its_sums(monkeypatch):
    # one e^{hA} serves every indicator and step-function inner sum; one
    # exponential per summed sample made 84 of this level's 120 calls
    triple, _ = observation_triple(47, n=3)
    calls = []
    expm = numkit.expm

    def counted(A, t=1.0):
        calls.append(t)
        return expm(A, t)
    monkeypatch.setattr(numkit, "expm", counted)
    classical.mv_suite(triple, TimeGrid(0.5, 32), 2.0, numkit.make_rng(48),
                       _nested=False)
    assert len(calls) <= 15
