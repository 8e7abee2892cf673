"""Controllability, observability and input-output maps on a time grid.

For a horizon ``t0`` split into ``steps`` uniform intervals of length ``h``
the three maps of admissibility theory are discretized as

* controllability  ``B_t0 u = int_0^t0 T(t0 - s) B u(s) ds``,
* observability    ``(C_t0 x)(t_k) = C T(t_k) x`` (pointwise samples),
* input-output     ``(F_t0 u)(t_j) = C int_0^{t_j} T(t_j - s) B u(s) ds``,

each by its world's closed form, a method of the triple class.  F is
causal, hence lower triangular in both worlds.

Signals are sampled at left endpoints ``t_k = k h`` and normed with weight
``h``; since the weights are uniform they cancel in induced operator norms,
so ``io_matrix`` can be fed to :func:`sgperturb.numkit.induced_norm` directly.

A non-negative spectral shift ``mu`` on the triple enters the maps through
the exact discrete conjugation

    B^mu = e^{-mu t0} B M,   C^mu_k = e^{-mu t_k} C_k,   F^mu = M^{-1} F M,

with ``M = diag(e^{mu t_k})`` — these are *identities* at the discrete level,
which is what :func:`rescaled_map_identities` verifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import numkit
from .numkit import ShapeError, as_vector
from .semigroup import rescale
from .toeplitz import FEEDBACK_MARGIN

__all__ = [
    "TimeGrid",
    "SampledSignal",
    "AdmissibilityReport",
    "FeedbackReport",
    "RescalingResiduals",
    "RegularityReport",
    "controllability_map",
    "controllability_matrix",
    "observability_map",
    "observability_matrix",
    "io_map",
    "io_matrix",
    "estimate_constants",
    "feedback_admissible",
    "rescaled_map_identities",
    "regularity_check",
    "smooth_trial_signals",
]

#: io_matrix refuses to materialize anything wider than this
IO_SIZE_CAP = 4096


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of ``[0, t0]`` into ``steps`` cells of length h."""

    t0: float
    steps: int

    def __post_init__(self):
        if not 0 < self.t0 < np.inf:
            raise ValueError(
                f"horizon must be positive and finite, got {self.t0}")
        if self.steps < 1:
            raise ValueError(f"need at least one step, got {self.steps}")

    @property
    def h(self) -> float:
        return self.t0 / self.steps

    @property
    def times(self) -> np.ndarray:
        """Left endpoints ``t_k = k h``, k = 0 .. steps-1."""
        return self.h * np.arange(self.steps, dtype=float)


@dataclass(frozen=True)
class SampledSignal:
    """U-valued signal sampled at the left endpoints of a :class:`TimeGrid`.

    ``values`` has shape ``(steps, m)``; the p-norm is the flat weighted norm
    ``(h sum_{k,i} |u_{k,i}|^p)^(1/p)`` which agrees with the usual
    ``L^p([0, t0], l^p(C^m))`` discretization.
    """

    grid: TimeGrid
    values: np.ndarray
    p: float = 2.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.ndim == 1:
            v = v.reshape(-1, 1)
        if v.ndim != 2 or v.shape[0] != self.grid.steps:
            raise ShapeError(
                f"signal needs shape ({self.grid.steps}, m), got {v.shape}")
        if v.size and not np.all(np.isfinite(v.real) & np.isfinite(v.imag)):
            raise numkit.NumericalRangeError("signal samples must be finite")
        object.__setattr__(self, "values", v)

    def norm(self, p: Optional[float] = None) -> float:
        q = self.p if p is None else p
        return numkit.vector_norm(self.values.reshape(-1), q,
                                  weight=self.grid.h)

    @property
    def control_dim(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class AdmissibilityReport:
    """Constant estimates (lower bounds over the trial set) and feedback data."""

    M_control: float
    M_observe: float
    M_io: float
    p: float
    alpha: float
    beta: float
    feedback_ok: bool
    margin: float
    samples: int


class FeedbackReport(NamedTuple):
    ok: bool
    margin: float
    io_norm: float
    io_norm_certifies: bool


@dataclass(frozen=True)
class RescalingResiduals:
    control: float
    observe: float
    io: float
    mu_shift: float

    def max_residual(self) -> float:
        return max(self.control, self.observe, self.io)


@dataclass(frozen=True)
class RegularityReport:
    times: tuple
    quantities: tuple
    fitted_exponent: float
    predicted_exponent: float
    passes: bool


# ---------------------------------------------------------------------------
# grid compatibility helpers
# ---------------------------------------------------------------------------

def _signal_on(grid: TimeGrid, u: SampledSignal, m: int) -> np.ndarray:
    if u.grid != grid:
        raise ShapeError("signal lives on a different time grid")
    if u.control_dim != m:
        raise ShapeError(
            f"signal has control dim {u.control_dim}, triple needs {m}")
    return u.values


# ---------------------------------------------------------------------------
# the three maps
# ---------------------------------------------------------------------------

def controllability_map(triple, grid: TimeGrid, u: SampledSignal):
    """State reached from 0 at time ``t0`` under the input ``u``.

    matrix world: ``h sum_k e^{(t0 - t_k) A} B u_k``, i.e.
    :func:`controllability_matrix` applied to the stacked samples;
    transport world: the translated signal placed on the surviving window
    ``[1 - t0, 1)`` exactly, with the spectral-shift factor folded in at the
    snapped sample times.
    """
    return triple.control(grid)(_signal_on(grid, u, triple.control_dim))


def controllability_matrix(triple, grid: TimeGrid) -> np.ndarray:
    """Stacked euclidean matrix of the controllability map.

    Applied to the stacked samples of ``u`` it gives
    :func:`controllability_map` (transport world: on nodes ``0 .. N-1``).
    Matrix world: column block k is ``h e^{(t0 - t_k) A} B``, read off one
    walk in ``E = e^{hA}``.
    """
    return triple.controllability_matrix(grid)


def observability_map(triple, grid: TimeGrid, x, *,
                      require_domain: bool = True) -> SampledSignal:
    """Samples ``C T(t_k) x`` of the observed free orbit.

    transport world: ``x`` must represent a state with ``x(1) = 0`` (the
    observation of the *unperturbed* orbit is defined on that domain); pass
    ``require_domain=False`` for constructions that supply perturbed-domain
    states on purpose.
    """
    return SampledSignal(grid, triple.observe(grid, require_domain)(x),
                         p=triple.p)


def observability_matrix(triple, grid: TimeGrid) -> np.ndarray:
    """Stacked euclidean matrix of the observability map.

    Applied to the state (transport world: its nodes ``0 .. N-1``) it gives
    the samples of :func:`observability_map`, rows read as ``(steps, m)``.
    Matrix world: row block k is ``C e^{t_k A} = C E^k`` from one forward
    walk in ``E = e^{hA}``.
    """
    return triple.observability_matrix(grid)


def io_matrix(triple, grid: TimeGrid) -> np.ndarray:
    """Dense sample matrix of the input-output map on the grid.

    Because signal quadrature weights are uniform they cancel in induced
    norms, so this matrix *is* the discrete ``L^p -> L^p`` operator.  Matrix
    world fills blocks ``h C e^{d h A} B`` on sub-diagonal ``d >= 1``
    (strictly block lower triangular).  Transport world assembles the exact
    measure-window reads: an atom at an interior node lands strictly below
    the diagonal; an atom at ``s = 1`` lands *on* it; density cells read the
    signal at their midpoint through pure integer index arithmetic.
    """
    n_cols = grid.steps * triple.control_dim
    if n_cols > IO_SIZE_CAP:
        raise ValueError(
            f"io_matrix would have {n_cols} > {IO_SIZE_CAP} columns")
    return triple.io_matrix(grid)


def io_map(triple, grid: TimeGrid, u: SampledSignal) -> SampledSignal:
    """Input-output map ``u -> F_t0 u``, via the assembled sample matrix.

    Single code path for both worlds so that applying :func:`io_matrix` to
    the stacked samples agrees with this function bit-for-bit.
    """
    _signal_on(grid, u, triple.control_dim)
    return _apply_io(io_matrix(triple, grid), u)


def _apply_io(F: np.ndarray, u: SampledSignal) -> SampledSignal:
    """``F`` from :func:`io_matrix` applied to the stacked samples of ``u``."""
    out = (F @ u.values.reshape(-1)).reshape(u.values.shape)
    return SampledSignal(u.grid, out, p=u.p)


# ---------------------------------------------------------------------------
# constants, feedback, rescaling, regularity
# ---------------------------------------------------------------------------

#: knots of the trial-signal spline, equispaced on [0, t0]
_KNOTS = 6


def _spline_basis(grid: TimeGrid) -> np.ndarray:
    """Sampled cardinal splines: ``(steps, _KNOTS)``, column j through e_j.

    Moment form in the cell variable ``τ = t / H - i`` on cell i (knot
    spacing H): the scaled second derivatives ``m_i = H² s''(x_i)`` solve
    ``T m = 6 D v`` with rows (1, 4, 1) and (1, -2, 1) at the interior knots
    (C² continuity), (2, 1) and (-1, 1) at t = 0 (``s'(0) = 0``) and
    ``m = 0`` at t0 (natural end).  On cell i the spline is
    ``(1-τ) v_i + τ v_{i+1} + ((1-τ)³ - (1-τ)) m_i / 6 + (τ³ - τ) m_{i+1} / 6``.
    The identity as ``v`` gives every column at once.
    """
    n = _KNOTS
    eye = np.eye(n)
    T = 4.0 * eye + np.eye(n, k=1) + np.eye(n, k=-1)
    D = np.eye(n, k=1) - 2.0 * eye + np.eye(n, k=-1)
    T[0, :2], D[0, :2] = (2.0, 1.0), (-1.0, 1.0)
    T[-1], D[-1] = eye[-1], 0.0
    m = np.linalg.solve(T, 6.0 * D)
    tau = grid.times * ((n - 1) / grid.t0)
    cell = np.minimum(tau.astype(int), n - 2)
    tau = (tau - cell)[:, None]
    return ((1.0 - tau) * eye[cell] + tau * eye[cell + 1]
            + ((1.0 - tau) ** 3 - (1.0 - tau)) / 6.0 * m[cell]
            + (tau ** 3 - tau) / 6.0 * m[cell + 1])


def smooth_trial_signals(grid: TimeGrid, m: int, trials: int,
                         rng: np.random.Generator, p: float = 2.0):
    """Seeded smooth trial signals with ``u(0) = u'(0) = 0``.

    Random complex knot values on six equispaced nodes are interpolated by a
    clamped cubic spline (zero value and slope at t = 0, natural at t0) and
    sampled at the left endpoints — the discrete stand-in for smooth dense
    subspaces of vanishing initial data.

    The spline is linear in its knot values, so each component is
    ``S @ vals`` with one ``(steps, 6)`` basis ``S`` per call: column i is
    the spline through the i-th unit knot vector, sampled at
    ``grid.times`` (see :func:`_spline_basis`).
    """
    S = _spline_basis(grid)
    out = []
    for _ in range(trials):
        samples = np.empty((grid.steps, m), dtype=np.complex128)
        for comp in range(m):
            vals = numkit.random_vector(rng, _KNOTS)
            vals[0] = 0.0
            samples[:, comp] = S @ vals
        out.append(SampledSignal(grid, samples, p=p))
    return out


def estimate_constants(triple, grid: TimeGrid, p: float, alpha: float,
                       beta: float, trials: int,
                       rng: np.random.Generator) -> AdmissibilityReport:
    """Estimate the three admissibility constants on seeded trial data.

    All three numbers are maxima of Rayleigh-type ratios over the trial set,
    hence *lower bounds* of the true constants: ``M_control`` over smooth
    signals, ``M_observe`` over random unit states (transport states drawn
    in the observation domain), ``M_io`` as the ``alpha -> beta`` ratio of
    the input-output map.  Feedback admissibility and margin ride along.
    """
    return _constants_and_feedback(triple, grid, p, alpha, beta, trials,
                                   rng)[0]


def _constants_and_feedback(triple, grid: TimeGrid, p: float, alpha: float,
                            beta: float, trials: int,
                            rng: np.random.Generator):
    """:func:`estimate_constants` and :func:`feedback_admissible` at ``p``
    from one :func:`io_matrix` build."""
    if trials < 1:
        raise ValueError("need at least one trial")
    if not (alpha <= p <= beta):
        raise ValueError(f"need alpha <= p <= beta, got {alpha}, {p}, {beta}")
    m = triple.control_dim
    signals = smooth_trial_signals(grid, m, trials, rng, p=p)
    F = io_matrix(triple, grid)
    control = triple.control(grid)
    M_control = 0.0
    M_io = 0.0
    used = 0
    for u in signals:
        nu_p = u.norm(p)
        nu_a = u.norm(alpha)
        if nu_p <= 1e-14 or nu_a <= 1e-14:
            continue
        used += 1
        M_control = max(M_control, triple.state_norm(control(u.values)) / nu_p)
        M_io = max(M_io, _apply_io(F, u).norm(beta) / nu_a)
    if used == 0:
        raise ValueError("all trial signals had zero norm; nothing estimated")
    observe = triple.observe(grid)
    M_observe = 0.0
    for _ in range(trials):
        y = SampledSignal(grid, observe(triple.random_domain_state(rng)))
        M_observe = max(M_observe, y.norm(p))
    fb = _feedback_report(F, p)
    report = AdmissibilityReport(
        M_control=float(M_control), M_observe=float(M_observe),
        M_io=float(M_io), p=float(p), alpha=float(alpha), beta=float(beta),
        feedback_ok=fb.ok, margin=fb.margin, samples=used)
    return report, fb


def feedback_admissible(triple, grid: TimeGrid, p: float) -> FeedbackReport:
    """Distance of 1 from the spectrum of the discretized input-output map.

    ``ok`` iff the margin is >= 1e-8.  F is causal, hence lower triangular
    in both worlds (strictly block lower in the matrix world; diagonal
    ``w(1)``, the weight of an atom at ``s = 1``, in the transport world),
    so its spectrum is its diagonal and the margin is ``min |1 - F_kk|``
    read off exactly, with no eigensolve.  The report also carries the
    induced p-norm of the map (exact for p in {1, 2, inf}, interpolation
    upper bound otherwise) and whether that norm certifies admissibility by
    ``||F|| < 1`` alone — the sufficient condition that survives to the
    continuum.
    """
    return _feedback_report(io_matrix(triple, grid), p)


def _feedback_margin(F: np.ndarray) -> float:
    """``min |1 - diag F|``, the distance of 1 from the spectrum of the
    lower-triangular ``F`` (:class:`ShapeError` above the diagonal)."""
    numkit._require_lower_triangular(F, "the feedback margin")
    return float(np.min(np.abs(np.diag(F) - 1.0)))


def _io_norm(F: np.ndarray, p: float) -> float:
    """Induced p-norm of ``F``: exact for p in {1, 2, inf}, else the upper
    end of :func:`~sgperturb.numkit.norm_bounds`."""
    try:
        return float(numkit.induced_norm(F, p))
    except numkit.UnsupportedExponentError:
        return float(numkit.norm_bounds(F, p)[1])


def _feedback_report(F: np.ndarray, p: float) -> FeedbackReport:
    margin = _feedback_margin(F)
    nrm = _io_norm(F, p)
    return FeedbackReport(bool(margin >= FEEDBACK_MARGIN), margin, nrm,
                          bool(nrm < 1.0))


def _modulated(u: SampledSignal, factors: np.ndarray) -> SampledSignal:
    return SampledSignal(u.grid, factors[:, None] * u.values, p=u.p)


def rescaled_map_identities(triple, grid: TimeGrid, mu_shift: float,
                            trials: int = 4,
                            rng: Optional[np.random.Generator] = None
                            ) -> RescalingResiduals:
    """Residuals of the three exact rescaling identities on trial data.

    With ``M = diag(e^{mu t_k})`` acting on signal samples, the maps of the
    shifted triple must satisfy ``B^mu = e^{-mu t0} B M``,
    ``C^mu = M^{-1} C`` and ``F^mu = M^{-1} F M``.  Both sides are computed
    independently on smooth trial signals / random states; the sup residuals
    are returned and are expected at the 1e-9 level (the identities are exact
    discretely; only floating-point evaluation differs).
    """
    if mu_shift < 0:
        raise ValueError("mu_shift must be >= 0")
    rng = numkit.make_rng(20240) if rng is None else rng
    shifted = rescale(triple, mu_shift)
    tk = grid.times
    grow = np.exp(mu_shift * tk)
    decay = np.exp(-mu_shift * tk)
    m = triple.control_dim
    signals = smooth_trial_signals(grid, m, trials, rng)
    F_shifted = io_matrix(shifted, grid)
    F = io_matrix(triple, grid)

    res_control = 0.0
    res_io = 0.0
    for u in signals:
        lhs_B = controllability_map(shifted, grid, u)
        rhs_B = controllability_map(triple, grid, _modulated(u, grow))
        gap = abs(lhs_B - np.exp(-mu_shift * grid.t0) * rhs_B)
        res_control = max(res_control, float(gap.max()))
        lhs_F = _apply_io(F_shifted, u)
        rhs_F = _modulated(_apply_io(F, _modulated(u, grow)), decay)
        res_io = max(res_io,
                     float(np.abs(lhs_F.values - rhs_F.values).max()))

    res_observe = 0.0
    for _ in range(trials):
        x = triple.random_domain_state(rng)
        lhs_C = observability_map(shifted, grid, x)
        rhs_C = _modulated(observability_map(triple, grid, x), decay)
        res_observe = max(res_observe,
                          float(np.abs(lhs_C.values - rhs_C.values).max()))
    return RescalingResiduals(control=res_control, observe=res_observe,
                              io=res_io, mu_shift=float(mu_shift))


def regularity_check(triple, v, t_sequence, alpha: float, beta: float,
                     base_steps: int = 64) -> RegularityReport:
    """Decay of the averaged input-output response to a frozen input.

    For each horizon ``t`` the quantity ``|| (1/t) int_0^t (F_t 1 (x) v)(s) ds ||``
    is computed on a grid adapted to ``t``; compatibility-style regularity
    predicts decay like ``t^(1/alpha - 1/beta)``.  The check passes when the
    quantity is non-increasing along the (decreasing) horizon sequence and
    the log-log fitted exponent is >= the predicted one minus 0.25, or when
    the quantity is identically zero.
    """
    ts = [float(t) for t in t_sequence]
    if len(ts) < 3:
        raise ValueError("need at least 3 horizons to fit a rate")
    if any(t <= 0 for t in ts):
        raise ValueError("horizons must be positive")
    if any(ts[i] <= ts[i + 1] for i in range(len(ts) - 1)):
        raise ValueError("horizons must be strictly decreasing")
    v = as_vector(v)
    m = triple.control_dim
    if v.shape[0] != m:
        raise ShapeError(f"direction must have control dim {m}")

    quantities = []
    for t in ts:
        grid = TimeGrid(t, triple.grid_steps(t, base_steps))
        u = SampledSignal(grid, np.tile(v, (grid.steps, 1)))
        y = io_map(triple, grid, u)
        avg = (grid.h / t) * y.values.sum(axis=0)
        quantities.append(float(np.linalg.norm(avg)))

    predicted = 1.0 / alpha - 1.0 / beta
    nonzero = [(t, qy) for t, qy in zip(ts, quantities) if qy > 1e-14]
    monotone = all(quantities[i] + 1e-12 >= quantities[i + 1]
                   for i in range(len(quantities) - 1))
    if len(nonzero) < 2:
        fitted = float("inf")
        passes = monotone
    else:
        lt = np.log([t for t, _ in nonzero])
        lq = np.log([qy for _, qy in nonzero])
        fitted = float(np.polyfit(lt, lq, 1)[0])
        passes = monotone and fitted >= predicted - 0.25
    return RegularityReport(times=tuple(ts), quantities=tuple(quantities),
                            fitted_exponent=fitted,
                            predicted_exponent=float(predicted),
                            passes=bool(passes))
