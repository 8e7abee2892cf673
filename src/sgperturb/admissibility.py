"""Controllability, observability and input-output maps on a time grid.

For a horizon ``t0`` split into ``steps`` uniform intervals of length ``h``
the three maps of admissibility theory are discretized as

* controllability  ``B_t0 u = int_0^t0 T(t0 - s) B u(s) ds``,
* observability    ``(C_t0 x)(t_k) = C T(t_k) x`` (pointwise samples),
* input-output     ``(F_t0 u)(t_j) = C int_0^{t_j} T(t_j - s) B u(s) ds``,

each by its world's closed form, a method of ``triple.discretize(grid)``,
which the map functions take.  F is causal and shift-invariant: block
lower-triangular Toeplitz, given by its first block column
(``feedback_column``), and that column is its one representation: one
:class:`~sgperturb.toeplitz.BlockToeplitz` per discretization applies F to
all trial signals of a map in one FFT product and gives its norms, the
p = 2 norm by Lanczos on those products
(:func:`~sgperturb.numkit.lanczos_norms`), every other p off the column
(:func:`~sgperturb.toeplitz.column_norm`).  No dense F is formed.

Signals are sampled at left endpoints ``t_k = k h`` and normed with weight
``h``; since the weights are uniform they cancel in induced operator norms,
so the norms of F's sample operator are the discrete ``L^p -> L^p`` norms.

A non-negative spectral shift ``mu`` on the triple enters the maps through
the exact discrete conjugation

    B^mu = e^{-mu t0} B M,   C^mu_k = e^{-mu t_k} C_k,   F^mu = M^{-1} F M,

with ``M = diag(e^{mu t_k})`` — these are *identities* at the discrete level,
which is what :func:`rescaled_map_identities` verifies.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import numkit, toeplitz
from .numkit import ShapeError
from .semigroup import rescale
from .toeplitz import FEEDBACK_MARGIN

__all__ = [
    "TimeGrid",
    "SampledSignal",
    "AdmissibilityReport",
    "FeedbackReport",
    "RescalingResiduals",
    "controllability_map",
    "observability_map",
    "estimate_constants",
    "feedback_admissible",
    "rescaled_map_identities",
    "smooth_trial_signals",
]

@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of ``[0, t0]`` into ``steps`` cells of length h."""

    t0: float
    steps: int

    def __post_init__(self):
        if not 0 < self.t0 < np.inf:
            raise ValueError(
                f"horizon must be positive and finite, got {self.t0}")
        steps = self.steps
        if (isinstance(steps, bool) or not hasattr(steps, "__index__")
                or operator.index(steps) < 1):
            raise ValueError(f"steps must be an integer >= 1, got {steps!r}")
        object.__setattr__(self, "steps", operator.index(steps))

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


# ---------------------------------------------------------------------------
# the three maps
# ---------------------------------------------------------------------------

def controllability_map(disc, u: SampledSignal):
    """State reached from 0 at time ``t0`` under the input ``u``.

    matrix world: ``h sum_k e^{(t0 - t_k) A} B u_k``, i.e. the stacked
    ``disc.controllability_matrix()`` applied to the samples; transport
    world: the translated signal placed on the surviving window
    ``[1 - t0, 1)`` exactly, with the spectral-shift factor folded in at the
    snapped sample times.  A signal on another grid or of another control
    dimension raises :class:`ShapeError`.
    """
    m = disc.triple.control_dim
    if u.grid != disc.grid:
        raise ShapeError("signal lives on a different time grid")
    if u.control_dim != m:
        raise ShapeError(
            f"signal has control dim {u.control_dim}, triple needs {m}")
    return disc.control(u.values)


def observability_map(disc, x, *, require_domain: bool = True
                      ) -> SampledSignal:
    """Samples ``C T(t_k) x`` of the observed free orbit.

    transport world: ``x`` must represent a state with ``x(1) = 0`` (the
    observation of the *unperturbed* orbit is defined on that domain); pass
    ``require_domain=False`` for constructions that supply perturbed-domain
    states on purpose.
    """
    return SampledSignal(disc.grid, disc.observe(x, require_domain),
                         p=disc.triple.p)


def _io_products(F: toeplitz.BlockToeplitz, samples) -> np.ndarray:
    """F applied to every signal ``samples[..., j]`` (``steps x m``) in one
    FFT product: ``out[..., j]`` holds the samples of ``F u_j``."""
    return F.forward(samples.reshape(-1, samples.shape[-1])).reshape(
        samples.shape)


def _frame_column(disc) -> np.ndarray:
    """F's first block column composed from the frames: lag ``l >= 1`` is
    the observed free orbit, at sample ``l - 1``, of the state that the last
    input sample alone drives (``C T(t_{l-1}) B``, the composition the
    ``toeplitz`` suite checks), one control direction at a time; lag 0, the
    feedthrough, is the column's."""
    steps, m = disc.grid.steps, disc.triple.control_dim
    column = disc.feedback_column().copy()
    for i in range(m):
        impulse = np.zeros((steps, m), dtype=np.complex128)
        impulse[-1, i] = 1.0
        column[1:, :, i] = disc.observe(disc.control(impulse))[:-1]
    return column


# ---------------------------------------------------------------------------
# constants, feedback, rescaling
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
    the input-output map, applied to all trials in one FFT product with
    F's first block column.  Feedback admissibility and margin ride along
    (see :func:`feedback_admissible`).
    """
    return _constants_and_feedback(triple.discretize(grid), p, alpha, beta,
                                   trials, rng)[0]


def _constants_and_feedback(disc, p: float, alpha: float, beta: float,
                            trials: int, rng: np.random.Generator):
    """:func:`estimate_constants` and :func:`feedback_admissible` at ``p``
    on one discretization, from one F built off its ``feedback_column``."""
    if trials < 1:
        raise ValueError("need at least one trial")
    if not (alpha <= p <= beta):
        raise ValueError(f"need alpha <= p <= beta, got {alpha}, {p}, {beta}")
    triple, grid = disc.triple, disc.grid
    signals = smooth_trial_signals(grid, triple.control_dim, trials, rng, p=p)
    F = toeplitz.BlockToeplitz(disc.feedback_column())
    fb = _feedback_report(F, p)
    outputs = _io_products(F, np.stack([u.values for u in signals], axis=-1))
    M_control = 0.0
    M_io = 0.0
    used = 0
    for j, u in enumerate(signals):
        nu_p = u.norm(p)
        nu_a = u.norm(alpha)
        if nu_p <= 1e-14 or nu_a <= 1e-14:
            continue
        used += 1
        M_control = max(M_control,
                        triple.state_norm(disc.control(u.values)) / nu_p)
        Fu = SampledSignal(grid, outputs[..., j])
        M_io = max(M_io, Fu.norm(beta) / nu_a)
    if used == 0:
        raise ValueError("all trial signals had zero norm; nothing estimated")
    M_observe = 0.0
    for _ in range(trials):
        y = SampledSignal(grid, disc.observe(triple.random_domain_state(rng)))
        M_observe = max(M_observe, y.norm(p))
    report = AdmissibilityReport(
        M_control=float(M_control), M_observe=float(M_observe),
        M_io=float(M_io), p=float(p), alpha=float(alpha), beta=float(beta),
        feedback_ok=fb.ok, margin=fb.margin, samples=used)
    return report, fb


def feedback_admissible(triple, grid: TimeGrid, p: float) -> FeedbackReport:
    """Distance of 1 from the spectrum of the discretized input-output map.

    ``ok`` iff the margin is >= 1e-8.  F is block lower-triangular
    Toeplitz, so its spectrum is that of its lag-0 block, whose diagonal
    gives the margin with no eigensolve.  The report also carries the
    induced p-norm of F and whether ``||F|| < 1`` certifies admissibility
    alone — the sufficient condition that survives to the continuum.  Both
    come from F's first block column at any grid size; see
    :func:`_feedback_report`.
    """
    return _feedback_report(
        toeplitz.BlockToeplitz(triple.discretize(grid).feedback_column()), p)


def _feedback_margin(column: np.ndarray) -> float:
    """``min |1 - diag F_0|``, F's lag-0 block ``F_0 = column[0]`` (zero in
    the matrix world, ``1 x 1`` in the transport world); its diagonal is its
    spectrum only if it is lower triangular, else :class:`ShapeError`."""
    if np.triu(column[0], 1).any():
        raise ShapeError("the margin needs a lower-triangular lag-0 block")
    return float(np.min(np.abs(np.diag(column[0]) - 1.0)))


def _feedback_report(F: toeplitz.BlockToeplitz, p: float) -> FeedbackReport:
    """Margin off F's lag-0 block, the p-norm of F, and the one decision
    whether ``||F|| < 1``.

    At p = 2 the norm is the Lanczos value ``theta`` on F's FFT products
    (:func:`~sgperturb.numkit.lanczos_norms`): never above ``||F||``, and
    within ``_GKL_TOL * theta`` of a singular value, so ``||F|| < 1`` is
    decided only when ``theta (1 + 2 _GKL_TOL) < 1``; without that margin
    an F of norm exactly 1, read one ulp low, would count as contractive.
    Any other p is :func:`~sgperturb.toeplitz.column_norm` of the column,
    exact at p = 1 and p = inf and an upper bound between them.
    """
    margin = _feedback_margin(F.blocks)
    if p == 2:
        nrm = float(numkit.lanczos_norms(F.forward, F.adjoint,
                                         [F.n * F.block_dim])[0])
        certifies = nrm * (1.0 + 2.0 * numkit._GKL_TOL) < 1.0
    else:
        nrm = toeplitz.column_norm(F.blocks, p)
        certifies = nrm < 1.0
    return FeedbackReport(bool(margin >= FEEDBACK_MARGIN), margin, nrm,
                          bool(certifies))


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

    Both sides of the F identity are FFT products with a first block
    column, all trials in one call.  On the uniform grid ``M^{-1} F M`` is
    again block Toeplitz, with lag-l block ``e^{-mu t_l} F_l``, so the right
    side applies ``e^{-mu t_l} F_l`` to ``u``: an FFT product with the
    grown signal ``M u`` would round every sample at the scale of its
    largest, ``e^{mu t0}`` times that of the first.  The right side reads
    ``F_l`` off the unshifted frames (:func:`_frame_column`), not off the
    column, so it does not repeat the shifted column's own product.
    """
    if mu_shift < 0:
        raise ValueError("mu_shift must be >= 0")
    rng = numkit.make_rng(20240) if rng is None else rng
    shifted = rescale(triple, mu_shift)
    tk = grid.times
    grow = np.exp(mu_shift * tk)
    decay = np.exp(-mu_shift * tk)
    m = triple.control_dim
    # the signals come from smooth_trial_signals(grid, m, ...), so they meet
    # controllability_map's grid and dimension checks and feed the
    # discretizations' maps directly
    signals = smooth_trial_signals(grid, m, trials, rng)
    disc = triple.discretize(grid)
    disc_shifted = shifted.discretize(grid) if mu_shift else disc

    res_control = 0.0
    for u in signals:
        lhs_B = disc_shifted.control(u.values)
        rhs_B = disc.control(_modulated(u, grow).values)
        gap = abs(lhs_B - np.exp(-mu_shift * grid.t0) * rhs_B)
        res_control = max(res_control, float(gap.max()))
    samples = np.stack([u.values for u in signals], axis=-1)
    lhs_F = _io_products(
        toeplitz.BlockToeplitz(disc_shifted.feedback_column()), samples)
    rhs_F = _io_products(
        toeplitz.BlockToeplitz(decay[:, None, None] * _frame_column(disc)),
        samples)
    res_io = float(np.abs(lhs_F - rhs_F).max())

    res_observe = 0.0
    for _ in range(trials):
        x = triple.random_domain_state(rng)
        lhs_C = SampledSignal(grid, disc_shifted.observe(x), p=shifted.p)
        rhs_C = _modulated(SampledSignal(grid, disc.observe(x), p=triple.p),
                           decay)
        res_observe = max(res_observe,
                          float(np.abs(lhs_C.values - rhs_C.values).max()))
    return RescalingResiduals(control=res_control, observe=res_observe,
                              io=res_io, mu_shift=float(mu_shift))

