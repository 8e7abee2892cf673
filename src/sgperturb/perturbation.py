"""Perturbed resolvents, semigroups, and generation certificates.

Given a system triple, the closed-loop state operator is the restriction of
``A + B C`` back to the state space (the triple's ``closed_loop`` matrix).
The perturbed resolvent is the triple's own method,
``triple.perturbed_resolvent(lam)``, the feedback formula

      Q(lam) = R(lam, A) + R(lam, A) B (I - C R(lam, A) B)^{-1} C R(lam, A)

(matrix world: the dense ``Q(lam)``; transport world: a callable on grid
functions from the Volterra resolvent, the boundary lift and the scalar
transfer function; a feedback loop within ``FEEDBACK_MARGIN`` of singular
raises :class:`FeedbackSingularError`).  The module realizes

* the perturbed semigroup through the discrete feedback construction

      S(t) x = T(t) x + B_t (I - F_t)^{-1} C_t x;

* the variation-of-parameters residual against an *independent* reference
  propagator (the discretization's ``vop_outputs``);

* the long-horizon growth check: the contraction surrogate
  ``||T(t0) + B (I - F)^{-1} C|| < e^{mu t0}`` plus the block-Toeplitz bound
  on ``(I - F_{n t0})^{-1}``;

* machine-checkable generation certificates: estimated constants, feedback
  margin (or the shrink-the-horizon bypass when the exponent pair is
  strict), and resolvent residuals on a sampled vertical line.  All checks
  are discrete surrogates at stated tolerances; the certificate never claims
  continuum generation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numkit, toeplitz
from .toeplitz import FeedbackSingularError
from .admissibility import (TimeGrid, SampledSignal, controllability_map,
                            observability_map, FEEDBACK_MARGIN,
                            feedback_admissible, _constants_and_feedback,
                            _feedback_margin)

__all__ = [
    "FeedbackSingularError",
    "GrowthCheckReport",
    "GenerationCertificate",
    "weiss_staffans_semigroup",
    "variation_of_parameters_residual",
    "long_horizon_growth_check",
    "generation_certificate",
]

#: block counts n = 1 .. _GROWTH_BLOCKS of the growth check's norm chain
_GROWTH_BLOCKS = 6
#: vertical lines the certificate tries, the offset doubled after each one
#: a feedback singularity or a range failure breaks
_LINE_ATTEMPTS = 10


@dataclass(frozen=True)
class GrowthCheckReport:
    t0: float
    surrogate_norm: float
    mu_entries: tuple        # (mu, e^{mu t0}, passes)
    block_entries: tuple     # (n, inverse_norm, bound)
    all_dominated: bool


@dataclass(frozen=True)
class GenerationCertificate:
    verdict: str            # "generated" | "not_generated" | "inconclusive"
    conditions: dict
    resolvent_residuals: tuple   # ((lambda, residual, threshold), ...)
    mu_shift: float
    notes: tuple = field(default_factory=tuple)


def weiss_staffans_semigroup(triple, grid: TimeGrid, t: float, x):
    """Perturbed semigroup state ``S(t) x`` from the feedback construction.

    ``t`` must equal the grid horizon (causality: only ``[0, t]`` enters).
    """
    if abs(t - grid.t0) > 1e-12:
        raise ValueError(
            f"t = {t} must equal the grid horizon t0 = {grid.t0}")
    return _feedback_state(triple.discretize(grid), x, triple.step(t, x))


def _feedback_state(disc, x, free):
    """``T(t0) x + B (I - F)^{-1} C x`` on ``disc``, ``free = T(t0) x``."""
    obs = observability_map(disc, x, require_domain=False)
    # F is causal, so (I - F)^{-1} is a recursion in time, run without F
    # (matrix world: the state loop; transport world: the boundary
    # recursion, whose diagonal 1 - c_N holds the Phi weight at s = 1)
    try:
        y = disc.solve_feedback(obs.values)
    except numkit.SingularMatrixError as exc:
        raise numkit.SingularMatrixError(
            f"discrete feedback operator is singular at horizon "
            f"{disc.grid.t0}: {exc}") from exc
    return free + controllability_map(disc, SampledSignal(disc.grid, y))


def variation_of_parameters_residual(triple, grid: TimeGrid, t: float,
                                     x) -> float:
    """Relative residual of ``S(t) x = T(t) x + int_0^t T(t-s) B C S(s) x ds``.

    The left side is the feedback-constructed state; the right side
    quadratures the integrand along an *independent* reference trajectory
    (matrix world: the exponential of the closed-loop matrix; transport
    world: the method-of-steps PDE solution), so the residual measures the
    formula, not self-consistency.  Transport states must satisfy the
    closed-loop boundary constraint ``x(1) = Phi x``.

    In the transport world the residual compares the feedback samples with
    the reference trajectory's outputs at the grid times, both pushed
    through the same :func:`controllability_map` hold.  Both sides read
    ``Phi`` through the same node coefficients, so the residual is exact up
    to roundoff at stride ``q = h N = 1`` (densities included) and whenever
    every weighted node sits a whole number of strides below ``s = 1``; it
    carries first-order quadrature error only at a stride ``q > 1`` for
    densities and for atoms off the stride.  It does not see the hold error
    of the state against the exact solution
    (``test_ws_transport_coarse_sampling_converges`` checks that).
    """
    if abs(t - grid.t0) > 1e-12:
        raise ValueError("t must equal the grid horizon")
    disc = triple.discretize(grid)
    free = triple.step(t, x)
    lhs = _feedback_state(disc, x, free)
    csig = SampledSignal(grid, disc.vop_outputs(x), p=triple.p)
    rhs = free + controllability_map(disc, csig)
    return triple.state_norm(lhs - rhs) / triple.state_norm(x)


# ---------------------------------------------------------------------------
# long-horizon growth (p = 2, euclidean frames)
# ---------------------------------------------------------------------------

def long_horizon_growth_check(triple, grid: TimeGrid,
                              mu_candidates) -> GrowthCheckReport:
    """Contraction surrogate versus ``e^{mu t0}`` plus the block norm chain.

    Computes ``s = ||T(t0) + B (I - F)^{-1} C||_2`` in euclidean frames
    (``euclidean_frames``, whose 2-norms are the discrete
    signal and state norms) and compares it against ``e^{mu t0}`` for every
    candidate shift; then for each block count ``n`` up to
    :data:`_GROWTH_BLOCKS` (6) reports the 2-norm of the inverse feedback
    block matrix next to its closed-form bound (the bound must dominate).
    ``s`` and every block entry come from one
    :func:`~sgperturb.toeplitz.feedback_norm_chain` run on the first block
    column of ``G = (I - F)^{-1}`` (``impulse_column``, the impulse
    responses of ``solve_feedback``); F is never formed.  Each block entry
    is a Lanczos 2-norm: never above the exact norm, and within the Lanczos
    residual (at most 1e-13 relative) of a singular value of its section
    (see :func:`~sgperturb.numkit.lanczos_norms`).  Precondition: the feedback
    margin at ``t0``, read off the diagonal of F's lag-0 block
    (``feedback_column``), is positive.
    """
    disc = triple.discretize(grid)
    column = disc.feedback_column()
    margin = _feedback_margin(column)
    if margin < FEEDBACK_MARGIN:
        raise ValueError(
            f"feedback margin {margin:.3e} at t0 = {grid.t0} is below "
            f"{FEEDBACK_MARGIN}; the growth surrogate needs 1 in rho(F)")
    chain = toeplitz.feedback_norm_chain(disc.impulse_column(),
                                         *disc.euclidean_frames(),
                                         _GROWTH_BLOCKS)
    s = chain.closed_norm
    mu_entries = tuple(
        (float(mu), float(np.exp(mu * grid.t0)),
         bool(s < np.exp(mu * grid.t0)))
        for mu in mu_candidates)
    dominated = all(lhs <= rhs * (1.0 + 1e-12)
                    for _, lhs, rhs in chain.entries)
    return GrowthCheckReport(t0=float(grid.t0), surrogate_norm=s,
                             mu_entries=mu_entries,
                             block_entries=chain.entries,
                             all_dominated=bool(dominated))


# ---------------------------------------------------------------------------
# generation certificates
# ---------------------------------------------------------------------------

def _bypass_search(triple, grid: TimeGrid, p: float, alpha: float,
                   beta: float, fb):
    """Shrink-the-horizon search for ``||F_t|| < 1`` with the fitted rate.

    ``fb`` is the feedback report at ``grid``, so F is read only at the
    shorter horizons, each by its own feedback report, whose
    ``io_norm_certifies`` decides ``||F_t|| < 1``.
    """
    horizons = []
    norms = []
    t = grid.t0
    steps = grid.steps
    found = None
    for _ in range(21):
        try:
            g = TimeGrid(t, steps)
            report = fb if g == grid else feedback_admissible(triple, g, p)
        except ValueError:
            break  # horizon fell below the space grid
        horizons.append(t)
        norms.append(report.io_norm)
        if report.io_norm_certifies:
            found = (t, g, report.io_norm)
            break
        t = t / 2.0
        if steps > 1 and steps % 2 == 0:
            steps //= 2
    fitted = None            # no rate: fewer than two positive norms
    positive = [(tt, nn) for tt, nn in zip(horizons, norms) if nn > 1e-14]
    if len(positive) >= 2:
        lt = np.log([tt for tt, _ in positive])
        ln = np.log([nn for _, nn in positive])
        fitted = float(np.polyfit(lt, ln, 1)[0])
    predicted = 1.0 / alpha - 1.0 / beta
    entry = {
        "found": found is not None,
        "horizons": tuple(horizons),
        "io_norms": tuple(float(nn) for nn in norms),
        "fitted_rate": fitted,
        "predicted_rate": float(predicted),
    }
    if found is not None:
        entry["t1"] = float(found[0])
        entry["io_norm_at_t1"] = float(found[2])
    return entry, (found[1] if found is not None else None)


def _vertical_line(abscissa: float, offset: float) -> list:
    """The 10 sampled ``lam = max(abscissa + offset, 1) + i y``, ``y``
    log-spaced on [0.1, 100]."""
    re0 = max(abscissa + offset, 1.0)
    return [complex(re0, im) for im in np.logspace(-1.0, 2.0, 10)]


def _residual_lambda_line(triple, abscissa: float, offset: float,
                          rng: np.random.Generator):
    """Perturbed-resolvent residuals on a vertical line, bumped upward on
    feedback singularities.  Returns (entries, all_ok)."""
    for _ in range(_LINE_ATTEMPTS):
        entries = []
        try:
            for lam in _vertical_line(abscissa, offset):
                entries.append(triple.resolvent_residual(
                    lam, triple.perturbed_resolvent(lam), rng))
        except (FeedbackSingularError, numkit.SingularMatrixError,
                numkit.NumericalRangeError):
            offset *= 2.0
            continue
        return tuple(entries), all(res <= thr for _, res, thr in entries)
    return tuple(), False


def _transfer_is_one(triple, line) -> bool:
    """Whether the transfer matrix is within 1e-10 of the identity at every
    point of ``line`` where it evaluates, and evaluates at one at least."""
    gaps = []
    for lam in line:
        try:
            H = triple.transfer(lam)
        except (numkit.SingularMatrixError, numkit.NumericalRangeError):
            continue
        gaps.append(np.abs(H - np.eye(H.shape[0])).max())
    return bool(gaps) and max(gaps) < 1e-10


def generation_certificate(triple, grid: TimeGrid, p: float, alpha: float,
                           beta: float,
                           rng: np.random.Generator) -> GenerationCertificate:
    """Assemble the discrete generation certificate.

    Requires ``alpha <= p <= beta`` with either ``alpha < beta`` (the
    shrink-the-horizon route is then available) or ``alpha = beta = p`` (the
    feedback margin at ``t0`` must then be positive).  Numerical and domain
    failures of a surrogate (:class:`~sgperturb.numkit.NumkitError`,
    :class:`ArithmeticError`, :class:`ValueError`) downgrade the verdict to
    ``inconclusive``; any other exception is a bug and propagates.
    """
    if not (alpha <= p <= beta):
        raise ValueError(f"need alpha <= p <= beta, got ({alpha}, {p}, {beta})")
    if not (alpha < beta or (alpha == beta == p)):
        raise ValueError("need alpha < beta, or alpha = beta = p")
    notes = ["all conditions are discrete surrogates at stated tolerances; "
             "no continuum claim is made"]
    conditions: dict = {}
    try:
        compat_ok, provenance = triple.compatibility()
        conditions["compatibility"] = {"ok": compat_ok,
                                       "provenance": provenance}
        report, fb = _constants_and_feedback(triple.discretize(grid), p,
                                             alpha, beta, trials=12, rng=rng)
        conditions["M_control"] = report.M_control
        conditions["M_observe"] = report.M_observe
        conditions["M_io"] = {"value": report.M_io,
                              "exponents": (float(alpha), float(beta))}
        feedback_entry = {"margin": fb.margin, "ok": fb.ok,
                          "io_norm": fb.io_norm,
                          "io_norm_certifies": fb.io_norm_certifies}
        bypass_ok = False
        if alpha < beta:
            bypass, _ = _bypass_search(triple, grid, p, alpha, beta, fb)
            feedback_entry["bypass"] = bypass
            bypass_ok = bypass["found"]
        conditions["feedback"] = feedback_entry
        feedback_route = fb.ok or bypass_ok

        a = triple.spectral_abscissa()
        abscissa = a if np.isfinite(a) else 0.0
        offset = 1.0 + min(max(fb.margin, 0.0), 1.0)
        entries, res_ok = _residual_lambda_line(triple, abscissa, offset, rng)

        if not feedback_route:
            # the transfer track on the first line decides this branch only
            if _transfer_is_one(triple, _vertical_line(abscissa, offset)):
                notes.append("transfer function is identically 1: "
                             "the feedback loop is singular at every lambda")
                return GenerationCertificate(
                    "not_generated", conditions, entries,
                    float(triple.mu_shift), tuple(notes))
            notes.append("no feedback route: margin below threshold and no "
                         "short horizon with ||F|| < 1 found")
            return GenerationCertificate(
                "inconclusive", conditions, entries,
                float(triple.mu_shift), tuple(notes))

        if not entries:
            notes.append("resolvent sampling failed at every attempted line")
            verdict = "inconclusive"
        elif compat_ok and res_ok:
            verdict = "generated"
        else:
            if not compat_ok:
                notes.append("compatibility surrogate failed")
            if not res_ok:
                notes.append("a resolvent residual exceeded its threshold")
            verdict = "inconclusive"
        return GenerationCertificate(
            verdict, conditions, entries,
            float(triple.mu_shift), tuple(notes))
    except (numkit.NumkitError, ArithmeticError, ValueError) as exc:
        notes.append(f"surrogate failure: {type(exc).__name__}: {exc}")
        return GenerationCertificate(
            "inconclusive", conditions, tuple(),
            float(triple.mu_shift), tuple(notes))
