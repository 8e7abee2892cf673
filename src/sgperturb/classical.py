"""Bounded-control and bounded-observation verification suites.

Two classical perturbation families reduce to the general feedback
machinery, each with its own quantitative signature:

* control-side (``C = Id``): the perturbation acts as a bounded control
  operator; the running convolution ``v(r) = int_0^r T(r-s) B u(s) ds``
  equals the full-horizon controllability map applied to the right
  translation of ``u``, so its modulus of continuity is governed by
  translation continuity of the input and its sup by ``||B_t0||``;

* observation-side (``B = Id``, ``p > 1``): the input-output response to an
  indicator signal ``1_{[gamma, delta)} (x) x`` obeys

      int_0^t0 || (F u)(r) ||^p dr  <=  M (1 + 1/p) (delta-gamma)^p ||x||^p,

  with ``M`` the observation-admissibility constant, and extends by
  disjointness to step functions with an ``L^1`` right-hand side.

At this scale every operator is bounded, so the suites validate the
inequalities and the reduction to the feedback construction — not
unboundedness itself; the report header says so.

All checks are assembled into a :class:`SuiteReport` whose ``checks`` dict
maps check names to detail dicts, each carrying an ``ok`` flag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit
from .semigroup import MatrixTriple, _powers
from .toeplitz import BlockToeplitz
from .admissibility import (TimeGrid, SampledSignal, _io_products,
                            smooth_trial_signals)
from .perturbation import generation_certificate, weiss_staffans_semigroup

__all__ = [
    "SuiteReport",
    "ds_suite",
    "mv_suite",
    "random_bounded_factor",
]

_HEADER = ("all operators are bounded at this scale; this suite validates "
           "the inequalities and the reduction to the feedback "
           "construction, not unboundedness itself")

#: 2-norm bound of the random factors of the bounded-factor stability checks
_FACTOR_BOUND = 2.0


@dataclass(frozen=True)
class SuiteReport:
    name: str
    header: str
    checks: dict
    ok: bool


def random_bounded_factor(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random n x n factor rescaled to 2-norm <= :data:`_FACTOR_BOUND`."""
    F = numkit.random_matrix(rng, n, n)
    nrm = numkit.induced_norm(F, 2)
    if nrm > _FACTOR_BOUND:
        F = F * (_FACTOR_BOUND / nrm)
    return F


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _require_matrix_world(triple, suite: str) -> None:
    if not isinstance(triple, MatrixTriple):
        raise ValueError(f"{suite} runs in the matrix world only")


def _stacked_p_to_euclid_norm(M: np.ndarray, p: float) -> float:
    """Upper bound of ``||M||_{l^p -> l^2}`` (exact for p in {1, 2})."""
    if p == 2.0:
        return numkit.induced_norm(M, 2)
    col = float(np.sqrt((np.abs(M) ** 2).sum(axis=0)).max())  # exact 1 -> 2
    if p == 1.0:
        return col
    two = numkit.induced_norm(M, 2)
    if p < 2.0:
        theta = 2.0 / p - 1.0  # interpolation between 1->2 and 2->2
        return col ** theta * two ** (1.0 - theta)
    return two * M.shape[1] ** (0.5 - 1.0 / p)  # Hoelder on finite dim


def _control_norm(Bc: np.ndarray, grid: TimeGrid, p: float) -> float:
    """Norm (upper bound; exact for p = 2) of the discrete L^p -> X map
    whose stacked matrix is ``Bc``."""
    return grid.h ** (-1.0 / p) * _stacked_p_to_euclid_norm(Bc, p)


def _translate(values: np.ndarray, shift: int) -> np.ndarray:
    """Right translation by ``shift`` samples, zero-filled at the front."""
    out = np.zeros_like(values)
    if shift < values.shape[0]:
        out[shift:] = values[:values.shape[0] - shift]
    return out


def _closing_checks(checks: dict, triple: MatrixTriple, grid: TimeGrid,
                    exponents: tuple, rng: np.random.Generator) -> dict:
    """``checks`` plus the certificate and the first-order semigroup check."""
    cert = generation_certificate(triple, grid, *exponents, rng)
    checks["certificate"] = {"ok": cert.verdict == "generated",
                             "verdict": cert.verdict}
    x = numkit.random_vector(rng, triple.state_dim)
    x = x / np.linalg.norm(x)
    oracle = numkit.expm(triple.closed_loop(), grid.t0) @ x
    errs = []
    for g in (grid, TimeGrid(grid.t0, 2 * grid.steps)):
        s = weiss_staffans_semigroup(triple, g, grid.t0, x)
        errs.append(float(np.linalg.norm(s - oracle)))
    checks["semigroup_first_order"] = {
        "ok": errs[1] <= max(0.75 * errs[0], 1e-12),
        "error_coarse": errs[0], "error_fine": errs[1]}
    return checks


def _report(name: str, checks: dict, sub: dict) -> SuiteReport:
    """``checks`` plus the bounded-factor level ``sub`` as one check."""
    checks["bounded_factor_stability"] = {
        "ok": all(v["ok"] for v in sub.values()),
        "sub_checks": {k: v["ok"] for k, v in sub.items()}}
    ok = all(entry["ok"] for entry in checks.values())
    return SuiteReport(name, _HEADER, checks, bool(ok))


# ---------------------------------------------------------------------------
# control-side suite (C = Id)
# ---------------------------------------------------------------------------

def ds_suite(triple: MatrixTriple, grid: TimeGrid, p: float,
             rng: np.random.Generator) -> SuiteReport:
    """Bounded-control suite: translation continuity, sup bound, certificate
    with the strict-exponent route, and stability under a bounded factor on
    the control side."""
    checks = _ds_checks(triple, grid, p, rng)
    F = random_bounded_factor(rng, triple.state_dim)
    sub = _ds_checks(MatrixTriple(triple.A, triple.B @ F, triple.C),
                     grid, p, rng)
    return _report("control_side", checks, sub)


def _ds_checks(triple: MatrixTriple, grid: TimeGrid, p: float,
               rng: np.random.Generator) -> dict:
    """One level of :func:`ds_suite`: every check but the bounded factor."""
    _require_matrix_world(triple, "the control-side suite")
    n = triple.state_dim
    if not np.array_equal(triple.C, np.eye(n, dtype=np.complex128)):
        raise ValueError("the control-side suite needs C = Id")
    checks: dict = {}
    steps = grid.steps
    disc = triple.discretize(grid)
    Bc = disc.controllability_matrix()
    M_B = _control_norm(Bc, grid, p)

    # (a) running convolution = controllability o right translation;
    #     modulus of continuity bounded by M_B * translation modulus
    signals = smooth_trial_signals(grid, triple.control_dim, 3, rng, p=p)
    ks = sorted({1, max(1, steps // 4), max(1, steps // 2),
                 max(1, 3 * steps // 4), steps - 1, steps})
    pairs = [(ks[i], ks[i + 1]) for i in range(len(ks) - 1)]
    if len(ks) >= 2:
        pairs.append((ks[0], ks[-1]))
    worst_gap = 0.0
    ident_res = 0.0
    ok_a = True
    for u in signals:
        scale = max(1.0, float(np.abs(u.values).max()))
        stacked = {k: _translate(u.values, steps - k).reshape(-1) for k in ks}
        v = {k: Bc @ stacked[k] for k in ks}
        # tie the translation realization to the running integral at one k
        k0 = ks[len(ks) // 2]
        direct = np.zeros(n, dtype=np.complex128)
        for j in range(k0):
            direct = disc.E @ (direct + triple.B @ u.values[j])
        ident_res = max(ident_res,
                        float(np.abs(v[k0] - grid.h * direct).max()))
        for ki, kj in pairs:
            lhs = numkit._euclidean_norm(v[ki] - v[kj])
            diff = SampledSignal(grid, (stacked[ki] - stacked[kj])
                                 .reshape(steps, -1), p=p)
            rhs = M_B * diff.norm(p)
            if lhs > rhs + 1e-12 * scale:
                ok_a = False
            worst_gap = max(worst_gap, lhs - rhs)
    ok_a = ok_a and ident_res <= 1e-10
    checks["translation_continuity"] = {
        "ok": bool(ok_a), "operator_norm": float(M_B),
        "worst_gap": float(worst_gap),
        "translation_identity_residual": float(ident_res)}

    # (b) sup_r ||v(r)|| <= M_B ||u||_p  (translation only drops samples)
    ok_b = True
    worst = 0.0
    for u in signals + [SampledSignal(
            grid, numkit.random_matrix(rng, steps, triple.control_dim), p=p)]:
        nu = u.norm(p)
        for k in range(1, steps + 1):
            v = Bc @ _translate(u.values, steps - k).reshape(-1)
            lhs = numkit._euclidean_norm(v)
            if lhs > M_B * nu + 1e-12:
                ok_b = False
            worst = max(worst, lhs - M_B * nu)
    checks["sup_bound"] = {"ok": bool(ok_b), "worst_gap": float(worst)}

    # (c) certificate along the strict-exponent route (beta > p)
    return _closing_checks(checks, triple, grid, (p, p, 2.0 * p), rng)


# ---------------------------------------------------------------------------
# observation-side suite (B = Id, p > 1)
# ---------------------------------------------------------------------------

def _observation_constant(O: np.ndarray, grid: TimeGrid, p: float,
                          states) -> float:
    """max over states of int_0^t0 ||C T(s) x||^p ds / ||x||^p (discrete),
    with ``O`` the observability matrix on ``grid``."""
    M = 0.0
    for x in states:
        nx = float(np.linalg.norm(x))
        if nx <= 1e-14:
            continue
        y = SampledSignal(grid, (O @ (x / nx)).reshape(grid.steps, -1))
        M = max(M, y.norm(p) ** p)
    return M


def mv_suite(triple: MatrixTriple, grid: TimeGrid, p: float,
             rng: np.random.Generator) -> SuiteReport:
    """Bounded-observation suite: admissibility constant, the indicator
    inequality with explicit constant ``M (1 + 1/p)``, its step-function
    extension with an L^1 right-hand side, the certificate on the (1, p)
    exponent pair, and stability under a bounded factor on the observation
    side.  The completed inner integrals ``h sum_k e^{khA} x`` are sums of
    the orbit that the one power walk ``semigroup._powers`` takes in
    ``E = e^{hA}``."""
    checks = _mv_checks(triple, grid, p, rng)
    F = random_bounded_factor(rng, triple.state_dim)
    sub = _mv_checks(MatrixTriple(triple.A, triple.B, F @ triple.C),
                     grid, p, rng)
    return _report("observation_side", checks, sub)


def _mv_checks(triple: MatrixTriple, grid: TimeGrid, p: float,
               rng: np.random.Generator) -> dict:
    """One level of :func:`mv_suite`: every check but the bounded factor."""
    _require_matrix_world(triple, "the observation-side suite")
    if not 1.0 < p < np.inf:
        raise ValueError("the observation-side suite needs 1 < p < inf")
    n = triple.state_dim
    if not np.array_equal(triple.B, np.eye(n, dtype=np.complex128)):
        raise ValueError("the observation-side suite needs B = Id")
    if grid.steps < 4:
        raise ValueError("the observation-side suite needs >= 4 time steps")
    checks: dict = {}
    steps = grid.steps
    h = grid.h
    disc = triple.discretize(grid)
    F_io = BlockToeplitz(disc.feedback_column())
    O = disc.observability_matrix()

    # (a) admissibility constant from random unit states
    states = [numkit.random_vector(rng, n) for _ in range(5)]
    M = _observation_constant(O, grid, p, states)

    # (b) indicator signals 1_{[gamma, delta)} (x) x
    ok_b = True
    entries = []
    draws = [(*sorted(rng.choice(steps + 1, size=2, replace=False)),
              numkit.random_vector(rng, n)) for _ in range(3)]
    vals = np.zeros((steps, n, len(draws)), dtype=np.complex128)
    for j, (i0, i1, x) in enumerate(draws):
        vals[i0:i1, :, j] = x
    outputs = _io_products(F_io, vals)
    for j, (i0, i1, x) in enumerate(draws):
        gamma, delta = i0 * h, i1 * h
        L = delta - gamma
        lhs = SampledSignal(grid, outputs[..., j], p=p).norm(p) ** p
        # the proof also observes the completed inner integral; fold both
        # vectors into the constant sweep so M covers them
        inner = h * _powers(disc.E, x, i1 - i0).sum(axis=0)
        M = max(M, _observation_constant(O, grid, p, [x, inner]))
        rhs_exact = M * (1.0 + 1.0 / p) * L ** p * np.linalg.norm(x) ** p
        rhs_env = M * (1.0 + 1.0 / p) * (L + h) ** p * np.linalg.norm(x) ** p
        if lhs > rhs_env * (1.0 + 1e-9):
            ok_b = False
        entries.append({"gamma": gamma, "delta": delta,
                        "lhs": float(lhs), "rhs": float(rhs_exact),
                        "rhs_envelope": float(rhs_env),
                        "slack": float(max(0.0, lhs - rhs_exact))})
    K = (M * (1.0 + 1.0 / p)) ** (1.0 / p)
    checks["indicator_bound"] = {"ok": bool(ok_b), "constant": float(M),
                                 "entries": entries}

    # (c) step functions: ||F u||_p <= K ||u||_1 (+ one-cell envelope)
    ok_c = True
    worst = 0.0
    vals = np.zeros((steps, n, 2), dtype=np.complex128)
    pieces = []
    for s in range(2):
        cuts = sorted(rng.choice(steps + 1, size=4, replace=False))
        l1 = 0.0
        env = 0.0
        sweep = []
        for j in range(0, len(cuts) - 1, 2):
            xj = numkit.random_vector(rng, n)
            vals[cuts[j]:cuts[j + 1], :, s] = xj
            count = cuts[j + 1] - cuts[j]
            l1 += count * h * float(np.linalg.norm(xj))
            env += h * float(np.linalg.norm(xj))
            inner = h * _powers(disc.E, xj, count).sum(axis=0)
            sweep.extend([xj, inner])
        pieces.append((l1, env, sweep))
    outputs = _io_products(F_io, vals)
    for j, (l1, env, sweep) in enumerate(pieces):
        lhs = SampledSignal(grid, outputs[..., j], p=p).norm(p)
        M = max(M, _observation_constant(O, grid, p, sweep))
        K = (M * (1.0 + 1.0 / p)) ** (1.0 / p)
        rhs = K * (l1 + env)
        if lhs > rhs * (1.0 + 1e-9):
            ok_c = False
        worst = max(worst, lhs - K * l1)
    checks["step_function_bound"] = {"ok": bool(ok_c), "K": float(K),
                                     "worst_gap": float(worst)}

    # (d) certificate on the (1, p) exponent pair
    return _closing_checks(checks, triple, grid, (p, 1.0, p), rng)
