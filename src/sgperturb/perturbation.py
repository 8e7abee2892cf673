"""Perturbed generators, resolvents, semigroups, and generation certificates.

Given a system triple, the closed-loop state operator is the restriction of
``A + B C`` back to the state space (matrix world: literally ``A + B C``;
transport world: the upwind matrix with the nonlocal boundary condition
eliminated).  The module realizes

* the perturbed resolvent through the feedback formula

      Q(lam) = R(lam, A) + R(lam, A) B (I - C R(lam, A) B)^{-1} C R(lam, A),

  which in the transport world becomes the boundary-lift expression with the
  scalar transfer function ``H`` in place of ``C R B``;

* the perturbed semigroup through the discrete feedback construction

      S(t) x = T(t) x + B_t (I - F_t)^{-1} C_t x,

  with an optional spectral shift: compute with the shifted triple, multiply
  by ``e^{mu t}`` at the end (the two routes agree exactly at the discrete
  level — a tested invariant);

* the variation-of-parameters residual against an *independent* reference
  propagator (matrix exponential of the closed-loop matrix, or the
  method-of-steps PDE solution);

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
from typing import Optional

import numpy as np

from . import numkit, toeplitz
from .numkit import as_vector
from .semigroup import (GridFunction, MatrixTriple, TransportTriple,
                        apply_semigroup, as_grid_function, rescale,
                        spectral_abscissa, volterra_resolvent_values)
from .admissibility import (TimeGrid, SampledSignal, controllability_map,
                            estimate_constants, feedback_admissible,
                            io_matrix, observability_map, FEEDBACK_MARGIN)
from .transport import (apply_phi, dirichlet_operator, greiner_compatibility,
                        phi_coefficients, solve_pde, transfer_scalar,
                        upwind_generator)

__all__ = [
    "FeedbackSingularError",
    "PerturbedGenerator",
    "GrowthCheckReport",
    "GenerationCertificate",
    "perturbed_generator",
    "perturbed_resolvent",
    "transfer_function",
    "weiss_staffans_semigroup",
    "variation_of_parameters_residual",
    "long_horizon_growth_check",
    "generation_certificate",
]


class FeedbackSingularError(ArithmeticError):
    """``I - C R(lam) B`` is singular (within margin) at the requested lambda."""


@dataclass(frozen=True)
class PerturbedGenerator:
    """Discrete closed-loop state operator.

    ``matrix`` is the dense realization (``A + B C`` or the boundary-folded
    upwind matrix); it is ``None`` exactly when ``degenerate`` is set — the
    transport boundary functional has unit weight at ``s = 1``, the closed
    loop is not a generator, and the object is only usable in negative tests.
    """

    world: str
    matrix: Optional[np.ndarray]
    degenerate: bool = False


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


def perturbed_generator(triple) -> PerturbedGenerator:
    """Dense realization of the closed-loop state operator."""
    if isinstance(triple, MatrixTriple):
        return PerturbedGenerator("matrix", triple.A + triple.B @ triple.C)
    try:
        mat = upwind_generator(triple.mu, triple.N)
    except ArithmeticError:
        return PerturbedGenerator("transport", None, degenerate=True)
    if triple.mu_shift:
        mat = mat - triple.mu_shift * np.eye(triple.N, dtype=np.complex128)
    return PerturbedGenerator("transport", mat)


def transfer_function(triple, lam: complex) -> np.ndarray:
    """``C R(lam, A) B`` as an m x m matrix (transport world: ``[[H(lam)]]``)."""
    lam = complex(lam)
    if isinstance(triple, MatrixTriple):
        A, B, C = triple.A, triple.B, triple.C
        dist = numkit.spectral_radius_distance(A, lam)
        if dist < 1e-8:
            raise numkit.SingularMatrixError(
                f"lambda = {lam} is within {dist:.2e} of the spectrum of A")
        n = A.shape[0]
        return C @ numkit.solve(lam * np.eye(n, dtype=np.complex128) - A, B)
    H = transfer_scalar(triple.mu, lam + triple.mu_shift)
    return np.array([[H]], dtype=np.complex128)


def perturbed_resolvent(triple, lam: complex):
    """Resolvent of the closed-loop operator via the feedback formula.

    matrix world: returns the dense matrix ``Q(lam)``; transport world:
    returns a callable on grid functions using the explicit Volterra
    resolvent, the boundary lift and the scalar transfer function.  A
    transfer-function value within 1e-8 of 1 raises
    :class:`FeedbackSingularError` ("feedback singular at lambda").
    """
    lam = complex(lam)
    if isinstance(triple, MatrixTriple):
        A, B, C = triple.A, triple.B, triple.C
        n = A.shape[0]
        m = B.shape[1]
        dist = numkit.spectral_radius_distance(A, lam)
        if dist < 1e-8:
            raise numkit.SingularMatrixError(
                f"lambda = {lam} is within {dist:.2e} of the spectrum of A")
        RA = numkit.solve(lam * np.eye(n, dtype=np.complex128) - A,
                          np.eye(n, dtype=np.complex128))
        W = np.eye(m, dtype=np.complex128) - C @ RA @ B
        sv = np.linalg.svd(W, compute_uv=False)
        if sv.min() < FEEDBACK_MARGIN:
            raise FeedbackSingularError(
                f"feedback singular at lambda = {lam} "
                f"(smallest singular value {sv.min():.3e})")
        return RA + RA @ B @ numkit.solve(W, C @ RA)

    lam_eff = lam + triple.mu_shift
    H = transfer_scalar(triple.mu, lam_eff)
    if abs(1.0 - H) < FEEDBACK_MARGIN:
        raise FeedbackSingularError(
            f"feedback singular at lambda = {lam} (transfer {H:.6g})")
    lift = dirichlet_operator(lam_eff, 1.0, triple.N, p=triple.p).values
    gain = 1.0 / (1.0 - H)
    mu_measure = triple.mu

    def _apply(f):
        gf = as_grid_function(triple, f)
        Rf = volterra_resolvent_values(lam_eff, gf.values)
        boundary = gain * apply_phi(mu_measure, Rf)
        return GridFunction(Rf + boundary * lift, p=triple.p)

    return _apply


def weiss_staffans_semigroup(triple, grid: TimeGrid, t: float, x,
                             mu_shift: float = 0.0):
    """Perturbed semigroup state ``S(t) x`` from the feedback construction.

    ``t`` must equal the grid horizon (causality: only ``[0, t]`` enters).
    With ``mu_shift > 0`` the construction runs on the shifted triple and the
    result is multiplied by ``e^{mu t}`` — useful when the raw maps violate
    the growth hypotheses but the shifted ones do not.
    """
    if abs(t - grid.t0) > 1e-12:
        raise ValueError(
            f"t = {t} must equal the grid horizon t0 = {grid.t0}")
    work = rescale(triple, mu_shift) if mu_shift else triple
    obs = observability_map(work, grid, x, require_domain=False)
    F = io_matrix(work, grid)
    eye = np.eye(F.shape[0], dtype=np.complex128)
    try:
        y = numkit.solve(eye - F, obs.values.reshape(-1))
    except numkit.SingularMatrixError as exc:
        raise numkit.SingularMatrixError(
            f"discrete feedback operator is singular at horizon {t}: {exc}"
        ) from exc
    ysig = SampledSignal(grid, y.reshape(grid.steps, -1))
    ctrl = controllability_map(work, grid, ysig)
    free = apply_semigroup(work, t, x)
    comp = float(np.exp(mu_shift * t)) if mu_shift else 1.0
    if isinstance(triple, MatrixTriple):
        return comp * (free + ctrl)
    return GridFunction(comp * (free.values + ctrl.values), p=triple.p)


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
    through the same :func:`controllability_map` hold.  It is exact up to
    roundoff when every atom sits a whole number of strides ``h N`` (in
    nodes) below ``s = 1``; it carries first-order quadrature error for
    densities and for atoms off the stride.  It does not see the hold error
    of the state against the exact solution
    (``test_ws_transport_coarse_sampling_converges`` checks that).
    """
    if abs(t - grid.t0) > 1e-12:
        raise ValueError("t must equal the grid horizon")
    lhs = weiss_staffans_semigroup(triple, grid, t, x)

    if isinstance(triple, MatrixTriple):
        x = as_vector(x)
        Apert = triple.A + triple.B @ triple.C
        E = numkit.expm(Apert, grid.h)
        samples = np.empty((grid.steps, triple.C.shape[0]),
                           dtype=np.complex128)
        v = x
        for k in range(grid.steps):
            samples[k] = triple.C @ v
            v = E @ v
        csig = SampledSignal(grid, samples)
        rhs = apply_semigroup(triple, t, x) \
            + controllability_map(triple, grid, csig)
        nx = float(np.linalg.norm(x))
        return float(np.linalg.norm(lhs - rhs) / nx)

    gf = as_grid_function(triple, x)
    coef = phi_coefficients(triple.mu, triple.N)
    scale = max(1.0, float(np.abs(gf.values).max()))
    if abs(gf.values[-1] - coef @ gf.values) > 1e-9 * scale:
        raise ValueError(
            "state is outside the discrete closed-loop domain: "
            "x(1) != Phi x")
    q = round(grid.h * triple.N)
    traj = solve_pde(triple.mu, gf, grid.t0, triple.N)
    mu = triple.mu_shift
    samples = np.empty((grid.steps, 1), dtype=np.complex128)
    for k in range(grid.steps):
        ck = coef @ traj.states[k * q]
        if mu:
            ck *= np.exp(-mu * k * grid.h)
        samples[k, 0] = ck
    csig = SampledSignal(grid, samples, p=triple.p)
    rhs_vals = (apply_semigroup(triple, t, gf).values
                + controllability_map(triple, grid, csig).values)
    diff = GridFunction(lhs.values - rhs_vals, p=triple.p)
    return float(diff.norm() / gf.norm())


# ---------------------------------------------------------------------------
# euclidean frames of the discrete maps (p = 2 growth machinery)
# ---------------------------------------------------------------------------

def _euclidean_frames(triple, grid: TimeGrid):
    """(F, B, C, T) of the discrete maps as plain euclidean matrices.

    Built by applying the map code paths to basis signals/states, then
    reweighted so that euclidean 2-norms coincide with the discrete
    signal/state norms (signal frame: sqrt(h); transport state frame:
    sqrt(1/N) on nodes 0..N-1, node N dropped — it carries no norm).
    """
    steps = grid.steps
    m = triple.control_dim
    sqrt_h = np.sqrt(grid.h)
    F = io_matrix(triple, grid)

    if isinstance(triple, MatrixTriple):
        d = triple.state_dim
        Bc = np.empty((d, steps * m), dtype=np.complex128)
        for k in range(steps):
            for i in range(m):
                basis = np.zeros((steps, m), dtype=np.complex128)
                basis[k, i] = 1.0
                Bc[:, k * m + i] = controllability_map(
                    triple, grid, SampledSignal(grid, basis))
        Cc = np.empty((steps * m, d), dtype=np.complex128)
        for i in range(d):
            e = np.zeros(d, dtype=np.complex128)
            e[i] = 1.0
            Cc[:, i] = observability_map(triple, grid, e).values.reshape(-1)
        T = numkit.expm(triple.A, grid.t0)
        return F, Bc / sqrt_h, sqrt_h * Cc, T

    N = triple.N
    q = round(grid.h * N)
    sqrt_N = np.sqrt(float(N))
    Bc = np.empty((N, steps), dtype=np.complex128)
    for k in range(steps):
        basis = np.zeros((steps, 1), dtype=np.complex128)
        basis[k, 0] = 1.0
        gf = controllability_map(triple, grid,
                                 SampledSignal(grid, basis, p=triple.p))
        Bc[:, k] = gf.values[:N]
    Cc = np.empty((steps, N), dtype=np.complex128)
    for i in range(N):
        e = np.zeros(N + 1, dtype=np.complex128)
        e[i] = 1.0
        y = observability_map(triple, grid, GridFunction(e, p=triple.p),
                              require_domain=False)
        Cc[:, i] = y.values.reshape(-1)
    # open shift by t0 = q*steps nodes on the normed nodes 0..N-1
    j_t0 = q * steps
    T = np.zeros((N, N), dtype=np.complex128)
    for i in range(N):
        if i + j_t0 < N:
            T[i, i + j_t0] = 1.0
    if triple.mu_shift:
        T = T * np.exp(-triple.mu_shift * grid.t0)
    return F, (Bc / sqrt_N) / sqrt_h, sqrt_h * Cc * sqrt_N, T


def long_horizon_growth_check(triple, grid: TimeGrid, mu_candidates,
                              n_max: int = 6) -> GrowthCheckReport:
    """Contraction surrogate versus ``e^{mu t0}`` plus the block norm chain.

    Computes ``s = ||T(t0) + B (I - F)^{-1} C||_2`` in euclidean frames and
    compares it against ``e^{mu t0}`` for every candidate shift; then for
    each block count ``n`` reports the exact norm of the inverse feedback
    block matrix next to its closed-form bound (the bound must dominate).
    ``s`` and every block entry come from one
    :func:`~sgperturb.toeplitz.feedback_norm_chain` build: each n-block
    inverse is a leading section of the ``n_max``-block one, so the entries
    equal the per-n :func:`~sgperturb.toeplitz.feedback_inverse_norm_bound`
    values.  Precondition: the feedback margin at ``t0`` is positive.
    """
    fb = feedback_admissible(triple, grid, 2.0)
    if not fb.ok:
        raise ValueError(
            f"feedback margin {fb.margin:.3e} at t0 = {grid.t0} is below "
            f"{FEEDBACK_MARGIN}; the growth surrogate needs 1 in rho(F)")
    chain = toeplitz.feedback_norm_chain(*_euclidean_frames(triple, grid),
                                         n_max)
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

def _compatibility(triple):
    if isinstance(triple, MatrixTriple):
        return True, "finite-dimensional state space: compatibility automatic"
    res = greiner_compatibility(1.0, triple.N)
    ok = res <= 10.0 / triple.N
    return bool(ok), (f"boundary-lift range identity residual {res:.3e} "
                      f"at probe lambda = 1 (threshold {10.0 / triple.N:.3e})")


def _feedback_norm(triple, grid: TimeGrid, p: float) -> float:
    F = io_matrix(triple, grid)
    try:
        return numkit.induced_norm(F, p)
    except numkit.UnsupportedExponentError:
        return numkit.norm_bounds(F, p)[1]


def _bypass_search(triple, grid: TimeGrid, p: float, alpha: float,
                   beta: float):
    """Shrink-the-horizon search for ``||F_t|| < 1`` with the fitted rate."""
    horizons = []
    norms = []
    t = grid.t0
    steps = grid.steps
    found = None
    for _ in range(21):
        try:
            g = TimeGrid(t, steps)
            nrm = _feedback_norm(triple, g, p)
        except ValueError:
            break  # horizon fell below the space grid
        horizons.append(t)
        norms.append(nrm)
        if nrm < 1.0:
            found = (t, g, nrm)
            break
        t = t / 2.0
        if steps > 1 and steps % 2 == 0:
            steps //= 2
    fitted = float("nan")
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


def _residual_lambda_line(triple, abscissa: float, margin: float,
                          rng: np.random.Generator, attempts: int = 10):
    """Perturbed-resolvent residuals on a vertical line, bumped upward on
    feedback singularities.  Returns (entries, all_ok, transfer_track);
    the transfer track is sampled on the nominal line regardless of
    whether the resolvent attempts succeed."""
    offset = 1.0 + min(max(margin, 0.0), 1.0)
    imag = np.logspace(-1.0, 2.0, 10)
    transfers = []
    for im in imag:
        try:
            H = transfer_function(triple, complex(max(abscissa + offset, 1.0),
                                                  im))
            transfers.append(complex(H[0, 0]) if H.shape == (1, 1) else None)
        except (numkit.SingularMatrixError, numkit.NumericalRangeError):
            transfers.append(None)
    for attempt in range(attempts):
        re0 = max(abscissa + offset, 1.0)
        entries = []
        try:
            for im in imag:
                entries.append(_one_residual(triple, complex(re0, im), rng))
        except (FeedbackSingularError, numkit.SingularMatrixError,
                numkit.NumericalRangeError):
            offset *= 2.0
            continue
        ok = all(res <= thr for _, res, thr in entries)
        return tuple(entries), ok, transfers
    return tuple(), False, transfers


def _one_residual(triple, lam: complex, rng: np.random.Generator):
    if isinstance(triple, MatrixTriple):
        Q = perturbed_resolvent(triple, lam)
        Apert = triple.A + triple.B @ triple.C
        n = Apert.shape[0]
        shifted = lam * np.eye(n, dtype=np.complex128) - Apert
        worst = 0.0
        for _ in range(3):
            x = numkit.random_vector(rng, n)
            res = np.linalg.norm(shifted @ (Q @ x) - x) / np.linalg.norm(x)
            worst = max(worst, float(res))
        threshold = 1e-8 * max(1.0, float(np.linalg.norm(Q, 2)))
        return lam, worst, threshold

    N = triple.N
    coef = phi_coefficients(triple.mu, N)
    Q = perturbed_resolvent(triple, lam)
    lam_eff = lam + triple.mu_shift
    worst = 0.0
    for _ in range(3):
        f = numkit.random_vector(rng, N + 1)
        f[-1] = 0.0
        g = Q(GridFunction(f, p=triple.p)).values
        interior = lam_eff * g[:N] - N * (g[1:] - g[:N]) - f[:N]
        boundary = abs(g[N] - coef @ g)
        res = max(float(np.abs(interior).max()), float(boundary))
        res /= max(1.0, float(np.abs(f).max()))
        worst = max(worst, res)
    threshold = 50.0 * (1.0 + abs(lam)) ** 2 / N
    return lam, worst, threshold


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
        compat_ok, provenance = _compatibility(triple)
        conditions["compatibility"] = {"ok": compat_ok,
                                       "provenance": provenance}
        report = estimate_constants(triple, grid, p, alpha, beta,
                                    trials=12, rng=rng)
        conditions["M_control"] = report.M_control
        conditions["M_observe"] = report.M_observe
        conditions["M_io"] = {"value": report.M_io,
                              "exponents": (float(alpha), float(beta))}
        fb = feedback_admissible(triple, grid, p)
        feedback_entry = {"margin": fb.margin, "ok": fb.ok,
                          "io_norm": fb.io_norm,
                          "io_norm_certifies": fb.io_norm_certifies}
        bypass_ok = False
        if alpha < beta:
            bypass, _ = _bypass_search(triple, grid, p, alpha, beta)
            feedback_entry["bypass"] = bypass
            bypass_ok = bypass["found"]
        conditions["feedback"] = feedback_entry
        feedback_route = fb.ok or bypass_ok

        a = spectral_abscissa(triple)
        abscissa = a.value if not a.nilpotent else 0.0
        entries, res_ok, transfers = _residual_lambda_line(
            triple, abscissa, fb.margin, rng)

        if not feedback_route:
            flat = [h for h in transfers if h is not None]
            if flat and max(abs(h - 1.0) for h in flat) < 1e-10:
                notes.append("transfer function is identically 1: "
                             "the feedback loop is singular at every lambda")
                return GenerationCertificate(
                    "not_generated", conditions, entries,
                    float(getattr(triple, "mu_shift", 0.0)), tuple(notes))
            notes.append("no feedback route: margin below threshold and no "
                         "short horizon with ||F|| < 1 found")
            return GenerationCertificate(
                "inconclusive", conditions, entries,
                float(getattr(triple, "mu_shift", 0.0)), tuple(notes))

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
            float(getattr(triple, "mu_shift", 0.0)), tuple(notes))
    except (numkit.NumkitError, ArithmeticError, ValueError) as exc:
        notes.append(f"surrogate failure: {type(exc).__name__}: {exc}")
        return GenerationCertificate(
            "inconclusive", conditions, tuple(),
            float(getattr(triple, "mu_shift", 0.0)), tuple(notes))
