"""Configuration-driven experiment runner with machine-readable reports.

``sgperturb run config.json`` executes the requested verification suites on
the configured system and writes a deterministic JSON report (and optional
CSV trajectories).  Exit codes: 0 — all contracts met; 1 — a numerical
contract failed (the failing suite/invariant is named on stderr); 2 —
invalid configuration.  A suite that fails numerically (``NumkitError``,
``ArithmeticError`` or ``ValueError``) is reported as ``{"ok": false,
"error": ...}``; any other exception is a bug and propagates.

Determinism contract: identical config + seed produce byte-identical
reports.  This rests on three rules — the suites run one after another in
sorted order, per-suite RNG streams are spawned from one root seed against
that *sorted* list, and serialization is canonical (sorted keys, fixed
indent, shortest round-trip float repr, complex numbers as ``[re, im]``
pairs, no timestamps).
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import json
import sys
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .. import numkit, toeplitz
from ..semigroup import MatrixTriple
from ..transport import (BorelMeasure, GridFunction, TransportTriple,
                         characteristic_roots, solve_pde, transfer_scalar,
                         upwind_generator, _boundary_coefficients)
from ..admissibility import (TimeGrid, estimate_constants,
                             rescaled_map_identities, smooth_trial_signals)
from ..perturbation import (generation_certificate, long_horizon_growth_check,
                            weiss_staffans_semigroup)
from .. import classical

__all__ = ["console", "main", "run", "report_schema_version",
           "validate_report", "REPORT_SCHEMA"]

_SCHEMA_VERSION = "3.0.0"

#: the toeplitz suite's algebraic and the spectral suite's transfer tolerance
_ALGEBRAIC_TOL = 1e-10
_SPECTRAL_TOL = 1e-8

_REQUIRED_KEYS = ("world", "grid", "exponents", "suites", "seed")
_OPTIONAL_KEYS = ("matrix", "transport", "expect")

_MATRIX_ONLY = {"classical_ds", "classical_mv"}
_TRANSPORT_ONLY = {"transport_pde", "spectral"}

#: report shape, field -> type name ("suite" entries additionally carry "ok")
REPORT_SCHEMA = {
    "schema_version": "string (semantic version)",
    "world": "string: matrix | transport",
    "seed": "integer",
    "config_digest": "string (sha256 of the canonicalized config)",
    "grid": {"t0": "number", "steps": "integer"},
    "exponents": {"p": "number", "alpha": "number", "beta": "number"},
    "suites": "object: suite name -> result object with boolean 'ok'",
    "expect": "string or null: expected certificate verdict",
    "expect_ok": "boolean or null",
    "ok": "boolean",
}


def report_schema_version() -> str:
    return _SCHEMA_VERSION


class ConfigError(ValueError):
    """Invalid configuration (exit code 2)."""


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def _complex_from(value, where: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(value)
    if (isinstance(value, list) and len(value) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in value)):
        return complex(value[0], value[1])
    raise ConfigError(f"{where}: expected a number or [re, im], got {value!r}")


def _cmatrix_from(rows, where: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows \
            or not all(isinstance(r, list) for r in rows):
        raise ConfigError(f"{where}: expected a nested list of rows")
    data = [[_complex_from(v, f"{where}[{i}][{j}]")
             for j, v in enumerate(row)] for i, row in enumerate(rows)]
    widths = {len(row) for row in data}
    if len(widths) != 1:
        raise ConfigError(f"{where}: rows have unequal lengths")
    return np.array(data, dtype=np.complex128)


def _require_keys(obj: dict, required, optional, where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ConfigError(
            f"{where}: unknown field(s) {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise ConfigError(f"{where}: missing field(s) {sorted(missing)}")


def _number(obj, where: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {obj!r}")
    return float(obj)


def _integer(obj, where: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ConfigError(f"{where}: expected an integer, got {obj!r}")
    return obj


@dataclass
class RunSpec:
    world: str
    triple: object
    grid: TimeGrid
    p: float
    alpha: float
    beta: float
    suites: tuple
    seed: int
    expect: Optional[str]


def _parse_config(cfg: dict) -> RunSpec:
    _require_keys(cfg, _REQUIRED_KEYS, _OPTIONAL_KEYS, "config")
    world = cfg["world"]
    if world not in ("matrix", "transport"):
        raise ConfigError(f"config.world: must be 'matrix' or 'transport', "
                          f"got {world!r}")
    if world == "matrix":
        if "matrix" not in cfg or "transport" in cfg:
            raise ConfigError("config: matrix world needs exactly the "
                              "'matrix' system object")
        sys_obj = cfg["matrix"]
        _require_keys(sys_obj, ["A", "B", "C"], [], "config.matrix")
        A = _cmatrix_from(sys_obj["A"], "config.matrix.A")
        B = _cmatrix_from(sys_obj["B"], "config.matrix.B")
        C = _cmatrix_from(sys_obj["C"], "config.matrix.C")
        try:
            triple = MatrixTriple(A, B, C)
        except (numkit.NumkitError, ValueError) as exc:
            raise ConfigError(f"config.matrix: {exc}") from exc
    else:
        if "transport" not in cfg or "matrix" in cfg:
            raise ConfigError("config: transport world needs exactly the "
                              "'transport' system object")
        sys_obj = cfg["transport"]
        _require_keys(sys_obj, ["N", "p", "measure"], [], "config.transport")
        N = _integer(sys_obj["N"], "config.transport.N")
        p_state = _number(sys_obj["p"], "config.transport.p")
        meas = sys_obj["measure"]
        _require_keys(meas, [], ["atoms", "density"],
                      "config.transport.measure")
        atoms = []
        for i, pair in enumerate(meas.get("atoms", [])):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ConfigError(
                    f"config.transport.measure.atoms[{i}]: expected "
                    f"[location, weight]")
            loc = _number(pair[0], f"config.transport.measure.atoms[{i}][0]")
            w = _complex_from(pair[1],
                              f"config.transport.measure.atoms[{i}][1]")
            atoms.append((loc, w))
        density = tuple(
            _complex_from(v, f"config.transport.measure.density[{i}]")
            for i, v in enumerate(meas.get("density", [])))
        try:
            mu = BorelMeasure(atoms=tuple(atoms), density=density)
            triple = TransportTriple(N, p_state, mu)
        except (numkit.NumkitError, ValueError) as exc:
            raise ConfigError(f"config.transport: {exc}") from exc

    _require_keys(cfg["grid"], ["t0", "steps"], [], "config.grid")
    t0 = _number(cfg["grid"]["t0"], "config.grid.t0")
    steps = _integer(cfg["grid"]["steps"], "config.grid.steps")
    try:
        grid = TimeGrid(t0, steps)
    except (numkit.NumkitError, ValueError) as exc:
        raise ConfigError(f"config.grid: {exc}") from exc
    if world == "transport":
        try:
            triple.discretize(grid)
        except ValueError as exc:
            raise ConfigError(f"config.grid: time step {exc}") from exc

    _require_keys(cfg["exponents"], ["p", "alpha", "beta"], [],
                  "config.exponents")
    p = _number(cfg["exponents"]["p"], "config.exponents.p")
    alpha = _number(cfg["exponents"]["alpha"], "config.exponents.alpha")
    beta = _number(cfg["exponents"]["beta"], "config.exponents.beta")
    if not alpha >= 1.0:
        raise ConfigError(f"config.exponents: need alpha >= 1, got {alpha}")
    if not (alpha <= p <= beta):
        raise ConfigError(
            f"config.exponents: need alpha <= p <= beta, got "
            f"({alpha}, {p}, {beta})")
    if not (alpha < beta or alpha == beta == p):
        raise ConfigError("config.exponents: need alpha < beta, or "
                          "alpha = beta = p")

    suites = cfg["suites"]
    if not isinstance(suites, list) or not suites:
        raise ConfigError("config.suites: expected a non-empty list")
    if len(set(suites)) != len(suites):
        raise ConfigError("config.suites: duplicate suite names")
    for name in suites:
        if name not in _SUITES:
            raise ConfigError(f"config.suites: unknown suite {name!r}; "
                              f"known: {sorted(_SUITES)}")
        if name in _MATRIX_ONLY and world != "matrix":
            raise ConfigError(f"config.suites: {name} needs the matrix world")
        if name in _TRANSPORT_ONLY and world != "transport":
            raise ConfigError(
                f"config.suites: {name} needs the transport world")
    if "classical_mv" in suites and not 1.0 < p < float("inf"):
        raise ConfigError("config.suites: classical_mv needs 1 < p < inf")

    seed = _integer(cfg["seed"], "config.seed")
    if not (0 <= seed < 2 ** 64):
        raise ConfigError("config.seed: must be in [0, 2^64)")

    expect = cfg.get("expect")
    if expect not in (None, "generated", "not_generated"):
        raise ConfigError("config.expect: must be 'generated', "
                          "'not_generated' or null")
    if expect is not None and "certificate" not in suites:
        raise ConfigError("config.expect: needs the 'certificate' suite")

    return RunSpec(world=world, triple=triple, grid=grid, p=p, alpha=alpha,
                   beta=beta, suites=tuple(sorted(suites)), seed=seed,
                   expect=expect)


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------

def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name))
                for f in fields(obj)}
    if hasattr(obj, "_asdict"):  # NamedTuple
        return _jsonable(obj._asdict())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        return [z.real, z.imag]
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _canonical_json(obj) -> str:
    """Strict JSON (RFC 8259).  ``validate_report`` already names any
    non-finite float in a report, and configs holding one are refused when
    parsed; ``allow_nan=False`` is only the backstop (``ValueError``)."""
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def _nonfinite_paths(obj, path="report"):
    """Where ``obj`` holds a float that is NaN or infinite."""
    if isinstance(obj, dict):
        return [bad for key, value in obj.items()
                for bad in _nonfinite_paths(value, f"{path}.{key}")]
    if isinstance(obj, list):
        return [bad for i, value in enumerate(obj)
                for bad in _nonfinite_paths(value, f"{path}[{i}]")]
    if isinstance(obj, float) and not np.isfinite(obj):
        return [path]
    return []


def validate_report(report: dict):
    """Hand-rolled structural validation; returns a list of problems."""
    problems = []
    for key in REPORT_SCHEMA:
        if key not in report:
            problems.append(f"missing key: {key}")
    for key in report:
        if key not in REPORT_SCHEMA:
            problems.append(f"unknown key: {key}")
    if problems:
        return problems
    if report["schema_version"] != _SCHEMA_VERSION:
        problems.append(
            f"schema_version {report['schema_version']!r} != "
            f"{_SCHEMA_VERSION!r}")
    if report["world"] not in ("matrix", "transport"):
        problems.append("world must be 'matrix' or 'transport'")
    if not isinstance(report["seed"], int):
        problems.append("seed must be an integer")
    if not isinstance(report["config_digest"], str):
        problems.append("config_digest must be a string")
    for part, keys in (("grid", ("t0", "steps")),
                       ("exponents", ("p", "alpha", "beta"))):
        if not isinstance(report[part], dict) \
                or set(report[part]) != set(keys):
            problems.append(f"{part} must have exactly the keys {keys}")
    if not isinstance(report["suites"], dict):
        problems.append("suites must be an object")
    else:
        for name, entry in report["suites"].items():
            if not isinstance(entry, dict) or "ok" not in entry \
                    or not isinstance(entry["ok"], bool):
                problems.append(f"suite {name}: needs a boolean 'ok'")
    if report["expect"] not in (None, "generated", "not_generated"):
        problems.append("expect must be a verdict or null")
    if not (report["expect_ok"] is None
            or isinstance(report["expect_ok"], bool)):
        problems.append("expect_ok must be boolean or null")
    if not isinstance(report["ok"], bool):
        problems.append("ok must be boolean")
    problems.extend(f"{path} is not a finite number"
                    for path in _nonfinite_paths(report))
    return problems


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def _suite_certificate(spec: RunSpec, rng, csv_dir):
    cert = generation_certificate(spec.triple, spec.grid, spec.p,
                                  spec.alpha, spec.beta, rng)
    entry = _jsonable(cert)
    entry["ok"] = cert.verdict != "inconclusive"
    return entry


def _suite_admissibility(spec: RunSpec, rng, csv_dir):
    report = estimate_constants(spec.triple, spec.grid, spec.p, spec.alpha,
                                spec.beta, trials=8, rng=rng)
    entry = _jsonable(report)
    finite = all(np.isfinite(v) for v in
                 (report.M_control, report.M_observe, report.M_io))
    entry["ok"] = bool(finite and report.feedback_ok)
    entry["note"] = ("constants are maxima over seeded trials, hence lower "
                     "bounds of the true constants")
    return entry


def _suite_rescaling(spec: RunSpec, rng, csv_dir):
    worst = 0.0
    shifts = []
    for mu in (0.0, 1.0, 2.0):
        res = rescaled_map_identities(spec.triple, spec.grid, mu, trials=3,
                                      rng=rng)
        shifts.append(_jsonable(res))
        worst = max(worst, res.max_residual())
    return {"ok": bool(worst <= 1e-9), "worst_residual": worst,
            "shifts": shifts}


def _suite_growth(spec: RunSpec, rng, csv_dir):
    report = long_horizon_growth_check(spec.triple, spec.grid,
                                       (0.5, 1.0, 2.0, 4.0))
    entry = _jsonable(report)
    entry["ok"] = bool(report.all_dominated
                       and any(p for _, _, p in report.mu_entries))
    return entry


def _suite_toeplitz(spec: RunSpec, rng, csv_dir):
    """Frame composition: F over three horizons has ``C T((k-1) t0) B u``
    as its k-th block (k = 1, 2) for ``u`` on the first; the residual is
    relative to ``max |F u|`` (absolute where ``F u`` vanishes)."""
    triple, grid = spec.triple, spec.grid
    m = triple.control_dim
    F = toeplitz.BlockToeplitz(triple.discretize(
        TimeGrid(3.0 * grid.t0, 3 * grid.steps)).feedback_column())
    disc = triple.discretize(grid)
    worst = 0.0
    for u in smooth_trial_signals(grid, m, 3, rng):
        padded = np.zeros((3 * grid.steps, m), dtype=np.complex128)
        padded[:grid.steps] = u.values
        Fu = F.forward(padded.reshape(-1)).reshape(3, grid.steps, m)
        scale = float(np.abs(Fu).max()) or 1.0
        x = disc.control(u.values)
        for k, state in ((1, x), (2, triple.step(grid.t0, x))):
            residual = float(np.abs(disc.observe(state) - Fu[k]).max())
            worst = max(worst, residual / scale)
    return {"ok": bool(worst <= _ALGEBRAIC_TOL),
            "composition_residual": worst}


def _suite_classical_ds(spec: RunSpec, rng, csv_dir):
    t = spec.triple
    eff = MatrixTriple(t.A, t.B @ t.C,
                       np.eye(t.state_dim, dtype=np.complex128))
    report = classical.ds_suite(eff, spec.grid, spec.p, rng)
    return _jsonable(report)


def _suite_classical_mv(spec: RunSpec, rng, csv_dir):
    t = spec.triple
    eff = MatrixTriple(t.A, np.eye(t.state_dim, dtype=np.complex128),
                       t.B @ t.C)
    report = classical.mv_suite(eff, spec.grid, spec.p, rng)
    return _jsonable(report)


def _smooth_state_values(coeffs, N: int) -> np.ndarray:
    s = np.arange(N + 1) / N
    amp, freq = coeffs
    return (amp[0] * np.sin(np.pi * freq[0] * s)
            + amp[1] * np.cos(np.pi * freq[1] * s)
            + amp[2] + amp[3] * s).astype(np.complex128)


def _compatible_state(mu: BorelMeasure, coeffs, N: int,
                      p: float) -> GridFunction:
    """Smooth profile adjusted at s = 1 to satisfy x(1) = Phi x discretely."""
    v = _smooth_state_values(coeffs, N)
    coef, denom = _boundary_coefficients(mu, N)
    v[N] = (coef[:N] @ v[:N]) / denom
    return GridFunction(v, p=p)


def _suite_transport_pde(spec: RunSpec, rng, csv_dir):
    """Feedback semigroup against ``solve_pde``; at stride ``h N = 1`` both
    read the same nodes, so the gap must be roundoff, not merely halve."""
    diffs = []
    scales = []
    coeffs = (rng.uniform(-1.0, 1.0, size=4), rng.uniform(1.0, 3.0, size=2))
    for refine in (1, 2):
        N = spec.triple.N * refine
        mu = spec.triple.mu
        if refine > 1:
            density = tuple(np.repeat(np.asarray(mu.density), refine)) \
                if mu.density else ()
            mu = BorelMeasure(atoms=mu.atoms, density=density)
        triple = TransportTriple(N, spec.triple.p, mu)
        x = _compatible_state(mu, coeffs, N, spec.triple.p)
        grid = TimeGrid(spec.grid.t0, spec.grid.steps * refine)
        traj = solve_pde(mu, x, grid.t0, N)
        ws = weiss_staffans_semigroup(triple, grid, grid.t0, x)
        diffs.append(float(np.abs(ws.values[:N]
                                  - traj.states[-1][:N]).max()))
        scales.append(max(1.0, float(np.abs(x.values).max())))
        if refine == 1 and csv_dir is not None:
            _write_trajectory_csv(csv_dir / "trajectory_transport_pde.csv",
                                  traj, N)
    if spec.triple.discretize(spec.grid).q == 1:
        ok = all(d <= 1e-12 * scale for d, scale in zip(diffs, scales))
    else:
        ok = diffs[1] <= 0.75 * diffs[0] + 1e-12
    return {"ok": bool(ok), "sup_difference": diffs[0],
            "sup_difference_refined": diffs[1]}


def _suite_spectral(spec: RunSpec, rng, csv_dir):
    mu = spec.triple.mu
    try:
        _boundary_coefficients(mu, spec.triple.N)
    except ArithmeticError:
        return {"ok": True, "roots": None, "transfer_residuals": None,
                "upwind_distances": None,
                "note": ("boundary functional has unit weight at s = 1; "
                         "the characteristic equation holds identically and "
                         "there is no generator to eigensolve")}
    roots = characteristic_roots(mu, (-5.0, 3.0, -20.0, 20.0))
    residuals = [abs(transfer_scalar(mu, lam) - 1.0) for lam in roots]
    entry = {"roots": _jsonable(list(roots)),
             "transfer_residuals": residuals}
    ok = all(r <= _SPECTRAL_TOL for r in residuals)
    N = spec.triple.N
    if N <= 800:
        A = upwind_generator(mu, N)
        eigs = numkit.eigenvalues(A)
        dists = []
        for lam in roots:
            dist = float(np.abs(eigs - lam).min())
            dists.append(dist)
            if dist > 5.0 * (1.0 + abs(lam)) ** 2 / N + 1e-3:
                ok = False
        entry["upwind_distances"] = dists
    else:
        entry["upwind_distances"] = None
        entry["note"] = "dense eigensolve skipped for N > 800"
    entry["ok"] = bool(ok)
    return entry


_SUITES = {
    "admissibility": _suite_admissibility,
    "certificate": _suite_certificate,
    "classical_ds": _suite_classical_ds,
    "classical_mv": _suite_classical_mv,
    "growth": _suite_growth,
    "rescaling": _suite_rescaling,
    "spectral": _suite_spectral,
    "toeplitz": _suite_toeplitz,
    "transport_pde": _suite_transport_pde,
}

_VERIFY_EXTRAS = {
    "matrix": ("rescaling", "toeplitz", "growth"),
    "transport": ("rescaling", "toeplitz", "transport_pde", "spectral"),
}


def _write_trajectory_csv(path: Path, traj, N: int) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "s", "re_x", "im_x"])
        for t, state in zip(traj.times, traj.states):
            for k in range(N + 1):
                writer.writerow([repr(float(t)), repr(k / N),
                                 repr(float(state[k].real)),
                                 repr(float(state[k].imag))])


def _write_matrix_orbit_csv(path: Path, spec: RunSpec, rng) -> None:
    """Closed-loop orbit samples; the space column holds the component index."""
    t = spec.triple
    x = numkit.random_vector(rng, t.state_dim)
    x = x / np.linalg.norm(x)
    E = numkit.expm(t.closed_loop(), spec.grid.h)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "s", "re_x", "im_x"])
        v = x
        for k in range(spec.grid.steps + 1):
            for i in range(t.state_dim):
                writer.writerow([repr(k * spec.grid.h), repr(float(i)),
                                 repr(float(v[i].real)),
                                 repr(float(v[i].imag))])
            v = E @ v


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

def _report(spec: RunSpec, digest: str, suites: dict) -> dict:
    """The report of ``suites``; ``expect_ok`` and ``ok`` follow from them."""
    expect_ok = None
    if spec.expect is not None:
        verdict = suites.get("certificate", {}).get("verdict")
        expect_ok = bool(verdict == spec.expect)
    return {
        "schema_version": _SCHEMA_VERSION,
        "world": spec.world,
        "seed": spec.seed,
        "config_digest": digest,
        "grid": {"t0": spec.grid.t0, "steps": spec.grid.steps},
        "exponents": {"p": spec.p, "alpha": spec.alpha, "beta": spec.beta},
        "suites": suites,
        "expect": spec.expect,
        "expect_ok": expect_ok,
        "ok": (all(entry["ok"] for entry in suites.values())
               and expect_ok is not False),
    }


def _fail_nonfinite_suites(suites: dict) -> None:
    """A NaN or an infinity in a suite's result costs that suite, not the
    report: its entry becomes a ``NumericalRangeError`` failure."""
    for name, entry in suites.items():
        bad = _nonfinite_paths(_jsonable(entry), f"report.suites.{name}")
        if bad:
            suites[name] = {"ok": False, "error": "NumericalRangeError: "
                            f"{bad[0]} is not a finite number"}


def run(config_path, out_dir=None, seed=None, verify: bool = False,
        write_csv: bool = False) -> int:
    """Programmatic entry point; returns the process exit code."""
    config_path = Path(config_path)
    try:
        raw = config_path.read_text()
    except OSError as exc:
        print(f"config: cannot read {config_path}: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        print(f"config: malformed JSON: {exc}", file=sys.stderr)
        return 2
    if seed is not None:
        if not isinstance(cfg, dict):
            print("config: top level must be an object", file=sys.stderr)
            return 2
        cfg = dict(cfg)
        cfg["seed"] = seed
    try:
        spec = _parse_config(cfg)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    suite_names = list(spec.suites)
    if verify:
        for extra in _VERIFY_EXTRAS[spec.world]:
            if extra not in suite_names:
                suite_names.append(extra)
    suite_names = sorted(suite_names)

    out = Path(out_dir) if out_dir is not None else Path.cwd()
    out.mkdir(parents=True, exist_ok=True)
    csv_dir = out if write_csv else None

    streams = np.random.SeedSequence(spec.seed).spawn(len(suite_names) + 1)
    rngs = {name: np.random.Generator(np.random.PCG64(ss))
            for name, ss in zip(suite_names, streams)}

    def _run_one(name: str) -> dict:
        try:
            return _SUITES[name](spec, rngs[name], csv_dir)
        except (numkit.NumkitError, ArithmeticError, ValueError) as exc:
            return {"ok": False,
                    "error": f"{type(exc).__name__}: {exc}"}

    suites = {name: _run_one(name) for name in suite_names}

    if write_csv and spec.world == "matrix":
        orbit_rng = np.random.Generator(np.random.PCG64(streams[-1]))
        _write_matrix_orbit_csv(out / "trajectory_matrix_orbit.csv", spec,
                                orbit_rng)

    digest = hashlib.sha256(
        _canonical_json(cfg).encode("utf-8")).hexdigest()
    report = _report(spec, digest, suites)
    problems = validate_report(_jsonable(report))
    if problems:
        _fail_nonfinite_suites(suites)
        report = _report(spec, digest, suites)
        problems = validate_report(_jsonable(report))
    if problems:
        print(f"report: schema violation: {problems[0]}", file=sys.stderr)
        return 1
    report_path = out / "report.json"
    report_path.write_text(_canonical_json(report))
    print(f"report written to {report_path}")

    if not report["ok"]:
        if report["expect_ok"] is False:
            verdict = suites.get("certificate", {}).get("verdict")
            print(f"FAIL certificate: verdict {verdict!r} != expected "
                  f"{spec.expect!r}", file=sys.stderr)
        for name in suite_names:
            if not suites[name]["ok"]:
                detail = suites[name].get("error", "invariant violated")
                print(f"FAIL {name}: {detail}", file=sys.stderr)
        return 1
    print(f"PASS all suites: {', '.join(suite_names)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sgperturb",
        description="semigroup perturbation verification suites")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute the suites in a config file")
    runp.add_argument("config", help="path to the JSON configuration")
    runp.add_argument("--out", default=None, help="output directory")
    runp.add_argument("--seed", type=int, default=None,
                      help="override the config seed")
    runp.add_argument("--verify", action="store_true",
                      help="append the full invariant battery")
    runp.add_argument("--csv", action="store_true",
                      help="write trajectory CSV side files")
    sub.add_parser("schema-version", help="print the report schema version")
    args = parser.parse_args(argv)
    if args.command == "schema-version":
        print(report_schema_version())
        return 0
    if args.command == "run":
        if args.seed is not None and not (0 <= args.seed < 2 ** 64):
            print("--seed: must be in [0, 2^64)", file=sys.stderr)
            return 2
        return run(args.config, out_dir=args.out, seed=args.seed,
                   verify=args.verify, write_csv=args.csv)
    return 2


def console() -> int:
    """The ``sgperturb`` script and ``python -m sgperturb.cli``: :func:`main`,
    then :func:`gc.freeze`, and its exit code.

    Freezing moves every object alive at that point into the collector's
    permanent generation, so the cyclic collections of interpreter teardown
    skip numpy's and this package's objects instead of traversing them for
    a process that is about to end.  atexit handlers and stdio flushes
    still run and refcounting still frees objects.  :func:`main` does not
    freeze, so in-process callers keep a normal collector.
    """
    code = main()
    gc.freeze()
    return code
