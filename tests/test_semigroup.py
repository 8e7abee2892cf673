import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import stable_triple, transport_triple
from sgperturb import numkit
from sgperturb.admissibility import rescale
from sgperturb.semigroup import MatrixTriple
from sgperturb.transport import (
    BorelMeasure,
    GridFunction,
    TransportTriple,
    as_grid_function,
    shift_open,
    volterra_resolvent_values,
)


def smooth_gridfun(N, p=2.0):
    s = np.arange(N + 1) / N
    return GridFunction(np.sin(np.pi * s) + 0.3 * np.cos(2 * np.pi * s),
                        p=p)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_matrix_triple_shape_checks():
    with pytest.raises(numkit.ShapeError):
        MatrixTriple(np.zeros((2, 3)), np.zeros((2, 1)), np.zeros((1, 2)))
    with pytest.raises(numkit.ShapeError):
        MatrixTriple(np.zeros((2, 2)), np.zeros((3, 1)), np.zeros((1, 2)))
    with pytest.raises(numkit.ShapeError):
        # control and observation dimensions must agree
        MatrixTriple(np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((2, 2)))


def test_transport_triple_validation():
    with pytest.raises(ValueError):
        transport_triple(N=3)
    with pytest.raises(ValueError):
        TransportTriple(N=8, p=0.5, mu=BorelMeasure())
    with pytest.raises(ValueError):
        # atom must sit on a grid node
        transport_triple(N=8, atoms=((0.3, 1.0),))
    with pytest.raises(ValueError):
        transport_triple(N=8, density=(1.0,) * 5)


@pytest.mark.parametrize("N", [64.0, np.float64(64.0), True, "64"])
def test_transport_triple_N_must_be_an_integer(N):
    with pytest.raises(ValueError, match="need an integer N"):
        TransportTriple(N, 2.0, BorelMeasure())


def test_transport_triple_accepts_a_numpy_integer():
    triple = TransportTriple(np.int64(16), 2.0, BorelMeasure())
    assert triple == TransportTriple(16, 2.0, BorelMeasure())
    assert type(triple.N) is int and triple.coef.shape == (17,)


def test_grid_function_norm_refuses_a_nan_exponent():
    with pytest.raises(numkit.UnsupportedExponentError):
        GridFunction(np.ones(9), p=np.nan).norm()


@pytest.mark.parametrize("p", [0.5, 0.0, -2.0, np.nan])
def test_grid_function_refuses_a_non_norm_exponent(p):
    # refused when built, not only when its norm is taken
    with pytest.raises(numkit.UnsupportedExponentError):
        GridFunction(np.ones(9), p=p)


def test_transport_state_must_carry_the_triple_exponent():
    # the norm of a state does not depend on how it is passed
    triple = TransportTriple(8, 4.0, BorelMeasure())
    v = np.r_[np.arange(8.0), 0.0]
    assert triple.state_norm(GridFunction(v, p=4.0)) == triple.state_norm(v)
    with pytest.raises(ValueError, match="p = 2.0, triple p = 4.0"):
        triple.state_norm(GridFunction(v, p=2.0))
    with pytest.raises(ValueError):
        triple.step(0.25, GridFunction(v, p=2.0))


def test_grid_function_norm_uses_left_endpoint_weight():
    N = 8
    f = GridFunction(np.ones(N + 1), p=2.0)
    # node N carries no quadrature weight
    assert f.norm() == pytest.approx(1.0)
    g = GridFunction(np.r_[np.zeros(N), 7.0], p=2.0)
    assert g.norm() == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------------------------
# semigroup action
# ---------------------------------------------------------------------------

def test_apply_semigroup_t0_is_identity_matrix_world():
    triple = stable_triple(1)
    x = numkit.random_vector(numkit.make_rng(2), 4)
    assert_allclose(triple.step(0.0, x), x, atol=1e-14)


def test_apply_semigroup_t0_is_identity_transport_world():
    triple = transport_triple(N=16)
    f = smooth_gridfun(16)
    out = triple.step(0.0, f)
    # same L^p class: interior nodes intact, node N zeroed
    assert np.array_equal(out.values[:16], f.values[:16])
    assert out.values[16] == 0.0


def test_transport_nilpotent_at_time_one():
    triple = transport_triple(N=4)
    f = GridFunction(np.arange(5, dtype=float))
    out = triple.step(1.0, f)
    assert np.array_equal(out.values, np.zeros(5))


def test_matrix_scalar_decay():
    triple = MatrixTriple(np.array([[-1.0]]), np.array([[1.0]]),
                          np.array([[1.0]]))
    assert_allclose(triple.step(2.0, np.array([1.0])),
                    [np.exp(-2.0)], rtol=1e-12)


def test_semigroup_law_matrix():
    triple = stable_triple(3)
    x = numkit.random_vector(numkit.make_rng(4), 4)
    lhs = triple.step(0.3, triple.step(0.5, x))
    rhs = triple.step(0.8, x)
    assert np.abs(lhs - rhs).max() <= 1e-9


def test_semigroup_law_transport_exact_on_grid():
    triple = transport_triple(N=32)
    f = smooth_gridfun(32)
    lhs = triple.step(0.25, triple.step(0.5, f))
    rhs = triple.step(0.75, f)
    assert np.array_equal(lhs.values, rhs.values)


def test_transport_rejects_off_grid_time():
    triple = transport_triple(N=8)
    with pytest.raises(ValueError):
        triple.step(0.3, smooth_gridfun(8))


@pytest.mark.parametrize("triple, x", [
    (stable_triple(1), np.ones(4)),
    (transport_triple(N=8), smooth_gridfun(8)),
], ids=["matrix", "transport"])
def test_step_refuses_negative_time(triple, x):
    with pytest.raises(ValueError):
        triple.step(-0.25, x)


def test_transport_shift_is_a_contraction_exactly():
    triple = transport_triple(N=32, p=3.0)
    rng = numkit.make_rng(6)
    f = GridFunction(numkit.random_vector(rng, 33), p=3.0)
    for t in (0.0, 0.25, 0.5, 31 / 32):
        assert triple.step(t, f).norm() <= f.norm()


def test_shift_open_zero_fills():
    out = shift_open(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), 2)
    assert np.array_equal(out, [3.0, 4.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        shift_open(np.zeros(5), -1)


# ---------------------------------------------------------------------------
# resolvent
# ---------------------------------------------------------------------------

def test_resolvent_scalar_is_multiplication_by_one():
    triple = MatrixTriple(np.array([[-1.0]]), np.array([[1.0]]),
                          np.array([[1.0]]))
    R = triple.resolvent(0.0)
    assert_allclose(R(np.array([3.0])), [3.0], rtol=1e-14)


def test_resolvent_of_zero_is_zero():
    m = stable_triple(7).resolvent(1.0)(np.zeros(4))
    assert np.abs(m).max() == 0.0
    tr = transport_triple(N=16).resolvent(1.0)(GridFunction(np.zeros(17)))
    assert np.abs(tr.values).max() == 0.0


def test_transport_resolvent_matches_closed_form():
    N = 256
    triple = transport_triple(N=N)
    lam = 1.0
    f = GridFunction(np.ones(N + 1))
    out = triple.resolvent(lam)(f)
    s = np.arange(N + 1) / N
    exact = (1.0 - np.exp(lam * (s - 1.0))) / lam
    assert np.abs(out.values - exact).max() <= 1e-3


def test_resolvent_equation_matrix():
    triple = stable_triple(8)
    lam, nu = 1.0 + 0.5j, 2.5 - 1.0j
    x = numkit.random_vector(numkit.make_rng(9), 4)
    Rl, Rn = triple.resolvent(lam), triple.resolvent(nu)
    lhs = Rl(x) - Rn(x)
    rhs = (nu - lam) * Rl(Rn(x))
    assert np.abs(lhs - rhs).max() <= 1e-8


def test_resolvent_equation_transport():
    triple = transport_triple(N=64)
    f = smooth_gridfun(64)
    lam, nu = 1.0, 2.0 + 1.0j
    Rl, Rn = triple.resolvent(lam), triple.resolvent(nu)
    lhs = Rl(f).values - Rn(f).values
    rhs = (nu - lam) * Rl(Rn(f)).values
    # discrete Volterra quadrature: the identity holds to quadrature error
    assert np.abs(lhs - rhs).max() <= 1e-4


def test_resolvent_guards_spectrum():
    # the resolvent refuses when it is applied: its solve's pivot test
    # finds lam I - A singular, with no eigensolve beforehand
    triple = MatrixTriple(np.diag([-1.0, -2.0]), np.zeros((2, 1)),
                          np.zeros((1, 2)))
    with pytest.raises(numkit.SingularMatrixError):
        triple.resolvent(-1.0)(np.ones(2))


@pytest.mark.parametrize("call", [
    lambda t, lam: t.transfer(lam),
    lambda t, lam: t.resolvent(lam)(np.ones(t.state_dim)),
    lambda t, lam: t.perturbed_resolvent(lam),
], ids=["transfer", "resolvent", "perturbed_resolvent"])
@pytest.mark.parametrize("lam", [-1.0, -2.0, 0.5j])
def test_matrix_resolvents_refuse_an_exact_eigenvalue(call, lam):
    A = np.array([[-1.0, 3.0, 0.0], [0.0, -2.0, 1.0], [0.0, 0.0, 0.5j]])
    triple = MatrixTriple(A, np.ones((3, 1)), np.ones((1, 3)))
    with pytest.raises(numkit.SingularMatrixError, match="pivot ratio"):
        call(triple, complex(lam))


def test_volterra_resolvent_overflow_guard():
    with pytest.raises(numkit.NumericalRangeError):
        volterra_resolvent_values(1e6, np.ones(9))


@pytest.mark.parametrize("lam", [-1000.0, 1000.0 + 1.0j, complex("nan"),
                                 complex(0.0, np.inf)],
                         ids=["re-1000", "re+1000", "nan", "inf"])
def test_volterra_resolvent_refuses_lambda_out_of_range(lam):
    # the values grow like e^{|Re lam|} across [0, 1], so the range is
    # |Re lam| <= 500 for the whole interval, as transfer_scalar's, not per
    # cell: at N = 64, lam = -1000 overflowed (a RuntimeWarning, inf with
    # warnings off) and a NaN lam returned NaN
    triple = transport_triple(N=64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(numkit.NumericalRangeError):
            volterra_resolvent_values(lam, np.ones(65))
        with pytest.raises(numkit.NumericalRangeError):
            triple.resolvent(lam)(smooth_gridfun(64))
        for edge in (-500.0, 500.0):
            assert np.isfinite(triple.resolvent(edge)(
                smooth_gridfun(64)).values).all()


# ---------------------------------------------------------------------------
# rescale
# ---------------------------------------------------------------------------

def test_rescale_zero_is_identity():
    triple = stable_triple(10)
    assert rescale(triple, 0.0) is triple


def test_rescale_matrix_shifts_spectrum():
    triple = stable_triple(11)
    shifted = rescale(triple, 2.0)
    assert_allclose(shifted.A, triple.A - 2.0 * np.eye(4), atol=0)
    lam = np.sort_complex(numkit.eigenvalues(triple.A))
    lam_mu = np.sort_complex(numkit.eigenvalues(shifted.A))
    assert np.abs((lam - 2.0) - lam_mu).max() <= 1e-10
    assert np.array_equal(shifted.B, triple.B)
    assert np.array_equal(shifted.C, triple.C)


def test_rescale_transport_decays_semigroup_pointwise():
    triple = transport_triple(N=32)
    shifted = rescale(triple, 1.0)
    f = smooth_gridfun(32)
    t = 0.5
    plain = triple.step(t, f).values
    decayed = shifted.step(t, f).values
    assert_allclose(decayed, np.exp(-1.0 * t) * plain, rtol=0, atol=1e-15)


def test_rescale_rejects_negative_shift():
    with pytest.raises(ValueError):
        rescale(stable_triple(12), -0.5)


# ---------------------------------------------------------------------------
# spectral abscissa
# ---------------------------------------------------------------------------

def test_spectral_abscissa_diagonal():
    triple = MatrixTriple(np.diag([-1.0, -3.0]), np.zeros((2, 1)),
                          np.zeros((1, 2)))
    a = triple.spectral_abscissa()
    assert type(a) is float
    assert a == np.max(numkit.eigenvalues(triple.A).real)
    assert a == pytest.approx(-1.0)


def test_spectral_abscissa_transport_flags_nilpotency():
    # the nilpotent shift has an empty spectrum: its abscissa is -inf
    a = transport_triple(N=8).spectral_abscissa()
    assert type(a) is float and a == -np.inf


def test_spectral_abscissa_matches_eigenvalues():
    triple = stable_triple(13, n=6)
    a = triple.spectral_abscissa()
    assert a == pytest.approx(
        np.max(numkit.eigenvalues(triple.A).real), abs=1e-12)


def test_as_grid_function_accepts_raw_samples():
    triple = transport_triple(N=8, p=4.0)
    gf = as_grid_function(triple, np.ones(9))
    assert isinstance(gf, GridFunction)
    assert gf.p == 4.0
    with pytest.raises(numkit.ShapeError):
        as_grid_function(triple, np.ones(7))
