"""The four workloads: inputs generated from the seed, one operation each,
and the checks on its output.

Every check uses an oracle outside the measured code path: closed forms
(the feedback margin, the transfer function), invariants computed here from
the measure itself (the PDE boundary relation), or the same operation's
earlier output (report bytes, root sets).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import sgperturb as sg

HERE = Path(__file__).resolve().parent

# The README examples.
README_MATRIX = {"A": [[-1.0, 0.2], [0.0, -2.0]], "B": [[1.0], [0.5]],
                 "C": [[0.3, -0.4]]}
ATOMS = ((0.5, 0.3), (0.875, 0.2))
P, ALPHA, BETA = 2.0, 1.0, 3.0

# transport N = 2048 on TimeGrid(0.5, 1024): the case whose verdict flips
# to "inconclusive" under refinement (a known defect, left visible).
TRANSPORT_N, TRANSPORT_STEPS = 2048, 1024


def rng_from(seed: int, stream: int) -> np.random.Generator:
    """Independent PCG64 stream ``stream`` of the workload seed."""
    seq = np.random.SeedSequence(seed).spawn(stream + 1)[stream]
    return np.random.Generator(np.random.PCG64(seq))


def readme_triple():
    return sg.MatrixTriple(**{k: np.array(v) for k, v in
                              README_MATRIX.items()})


def _finite(*values) -> bool:
    return all(np.isfinite(v) for v in values)


def _atom_at_one(atoms) -> complex:
    return sum((w for r, w in atoms if r == 1.0), 0.0)


class InProcess:
    """A warm operation in the worker's own interpreter."""

    group = 1

    def key(self, i: int) -> int:
        return 0

    def call(self, i: int, tracer):
        if tracer is None:
            return self.operation(), None
        tracer.op = i
        tracer.install()
        try:
            out = self.operation()
        finally:
            tracer.uninstall()
        return out, tracer.take()


class Certificate(InProcess):
    """One ``generation_certificate`` with a fresh rng spawned from the seed.

    The diagonal block of F is the weight of an atom at s = 1 (zero in the
    matrix world), so the feedback margin is ``|1 - F0|`` in closed form.
    """

    def __init__(self, triple, grid, seed: int, f0: complex):
        self.triple, self.grid, self.seed = triple, grid, seed
        self.margin = abs(1.0 - f0)

    def operation(self):
        return sg.generation_certificate(self.triple, self.grid, P, ALPHA,
                                         BETA, rng_from(self.seed, 0))

    def check(self, i: int, cert) -> list:
        problems = []
        if cert.verdict != "generated":
            problems.append(f"verdict {cert.verdict!r} != 'generated'")
        c = cert.conditions
        feedback = c.get("feedback", {})
        margin = feedback.get("margin", float("nan"))
        if not abs(margin - self.margin) <= 1e-8:
            problems.append(f"feedback margin {margin!r} != closed form "
                            f"{self.margin!r}")
        if "M_io" not in c or not _finite(
                c["M_control"], c["M_observe"], c["M_io"]["value"],
                feedback.get("io_norm", float("nan"))):
            problems.append("admissibility constants missing or not finite")
        return problems


def cert_matrix(seed: int, workdir: Path):
    return Certificate(readme_triple(), sg.TimeGrid(0.5, 512), seed, 0.0)


def cert_transport(seed: int, workdir: Path):
    triple = sg.TransportTriple(TRANSPORT_N, P, sg.BorelMeasure(atoms=ATOMS))
    return Certificate(triple, sg.TimeGrid(0.5, TRANSPORT_STEPS), seed,
                       _atom_at_one(ATOMS))


def transfer_oracle(atoms, density, lam: complex) -> complex:
    """``H(lam)`` in closed form: atoms plus exact cell integrals."""
    H = sum(w * np.exp(lam * (r - 1.0)) for r, w in atoms)
    d = np.asarray(density, dtype=np.complex128)
    if d.size:
        edges = np.arange(d.size + 1) / d.size - 1.0
        H += np.sum(d * np.diff(np.exp(lam * edges))) / lam
    return complex(H)


class ClosedLoop(InProcess):
    """Growth check, feedback semigroup, PDE and root search, in order."""

    def __init__(self, seed: int, workdir: Path):
        rng = rng_from(seed, 1)
        self.triple = readme_triple()
        self.mu = sg.BorelMeasure(atoms=ATOMS)
        N = TRANSPORT_N
        self.transport = sg.TransportTriple(N, P, self.mu)
        self.grid = sg.TimeGrid(0.5, TRANSPORT_STEPS)
        amp, freq = rng.uniform(-1.0, 1.0, 4), rng.uniform(1.0, 3.0, 2)
        s = np.arange(N + 1) / N
        v = (amp[0] * np.sin(np.pi * freq[0] * s)
             + amp[1] * np.cos(np.pi * freq[1] * s)
             + amp[2] + amp[3] * s).astype(np.complex128)
        v[N] = self.boundary_read(v[None, :])[0] / (1.0 - _atom_at_one(ATOMS))
        self.state = sg.GridFunction(v, p=P)
        self.root_atoms = ((0.5, 0.3),)
        self.density = tuple(rng.uniform(-0.2, 0.2, 64))
        self.root_measure = sg.BorelMeasure(atoms=self.root_atoms,
                                            density=self.density)
        self.roots_ref = None

    def boundary_read(self, states):
        """``sum_{atoms r < 1} w x(r)`` per row, read off the grid nodes."""
        N = TRANSPORT_N
        return sum(w * states[:, round(r * N)] for r, w in ATOMS if r < 1.0)

    def operation(self):
        growth = sg.long_horizon_growth_check(
            self.triple, sg.TimeGrid(0.5, 128), (0.5, 1.0, 2.0, 4.0))
        ws = sg.weiss_staffans_semigroup(self.transport, self.grid,
                                         self.grid.t0, self.state)
        vop = sg.variation_of_parameters_residual(
            self.transport, self.grid, self.grid.t0, self.state)
        traj = sg.solve_pde(self.mu, self.state, 4.0, TRANSPORT_N)
        roots = sg.characteristic_roots(self.root_measure,
                                        (-5.0, 3.0, -20.0, 20.0))
        return growth, ws, vop, traj, roots

    def check(self, i: int, out) -> list:
        growth, ws, vop, traj, roots = out
        problems = []
        if not growth.all_dominated:
            problems.append("growth: block norm chain not dominated")
        if not any(passes for _, _, passes in growth.mu_entries):
            problems.append("growth: no mu candidate passes")
        if not (vop <= 1e-10 and np.all(np.isfinite(ws.values))):
            problems.append(f"VoP residual {vop!r} above roundoff")
        states = traj.states
        if states.shape != (4 * TRANSPORT_N + 1, TRANSPORT_N + 1):
            problems.append(f"PDE: {states.shape[0]} levels")
        else:
            at_one = _atom_at_one(ATOMS)
            for lo in range(0, states.shape[0], 1024):
                rows = states[lo:lo + 1024]
                gap = np.abs((1.0 - at_one) * rows[:, -1]
                             - self.boundary_read(rows))
                scale = np.maximum(1.0, np.abs(rows).max(axis=1))
                if np.any(gap > 1e-12 * scale):
                    problems.append("PDE: boundary relation broken")
                    break
        residuals = [abs(transfer_oracle(self.root_atoms, self.density, z)
                         - 1.0) for z in roots]
        if not roots.size or max(residuals) > 1e-8:
            problems.append(f"roots: {roots.size} found, |H-1| "
                            f"{max(residuals, default=float('nan')):.2e}")
        if self.roots_ref is None:
            self.roots_ref = roots
        elif not np.array_equal(roots, self.roots_ref):
            problems.append("roots: root set changed between operations")
        return problems


class CliVerify:
    """A fresh ``sgperturb run CONFIG --verify`` process per operation,
    alternating the README matrix and transport configs."""

    group = 2
    SUITES = (
        ("admissibility", "certificate", "classical_ds", "classical_mv",
         "growth", "rescaling", "toeplitz"),
        ("admissibility", "certificate", "growth", "rescaling", "spectral",
         "toeplitz", "transport_pde"),
    )

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed % 2 ** 64   # the CLI takes seeds in [0, 2^64)
        self.workdir = workdir
        common = {"grid": {"t0": 0.5, "steps": 32},
                  "exponents": {"p": P, "alpha": ALPHA, "beta": BETA},
                  "seed": self.seed, "expect": "generated"}
        configs = (
            dict(common, world="matrix", matrix=README_MATRIX,
                 suites=["certificate", "admissibility", "growth",
                         "classical_ds", "classical_mv"]),
            dict(common, world="transport",
                 transport={"N": 64, "p": P,
                            "measure": {"atoms": [list(a) for a in ATOMS]}},
                 suites=["certificate", "admissibility", "growth"]),
        )
        self.configs = []
        for k, cfg in enumerate(configs):
            path = workdir / f"config-{k}.json"
            path.write_text(json.dumps(cfg, indent=2))
            self.configs.append(path)
        self.reference = {}

    def key(self, i: int) -> int:
        return i % 2

    def call(self, i: int, tracer):
        k = self.key(i)
        out_dir = self.workdir / f"out-{k}"
        report = out_dir / "report.json"
        report.unlink(missing_ok=True)
        args = ["run", str(self.configs[k]), "--verify",
                "--seed", str(self.seed), "--out", str(out_dir)]
        if tracer is None:
            cmd = [sys.executable, "-m", "sgperturb.cli", *args]
        else:
            spans = self.workdir / f"spans-op{i}.json"
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans),
                   *args]
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        record = None
        if tracer is not None and spans.exists():
            record = json.loads(spans.read_text())
            spans.unlink()   # the worker writes every span to spans.json
            for span in record["spans"]:
                span[4] = i
        body = report.read_bytes() if report.exists() else None
        return (proc.returncode, proc.stderr, body), record

    def check(self, i: int, out) -> list:
        code, stderr, body = out
        if code != 0 or body is None:
            tail = stderr.decode(errors="replace").strip().splitlines()[-3:]
            return [f"exit code {code}: {' | '.join(tail)}"]
        problems = []
        report = json.loads(body)
        problems += [f"validate_report: {p}"
                     for p in sg.validate_report(report)]
        suites = report.get("suites", {})
        if tuple(sorted(suites)) != self.SUITES[self.key(i)]:
            problems.append(f"suites ran: {sorted(suites)}")
        if not (report.get("ok") is True and report.get("seed") == self.seed
                and all(s.get("ok") is True for s in suites.values())
                and suites.get("certificate", {}).get("verdict")
                == "generated"):
            problems.append("report is not ok for this seed")
        ref = self.reference.setdefault(self.key(i), body)
        if body != ref:
            problems.append("report.json bytes differ from the first run")
        return problems


WORKLOADS = {
    "cli-verify": CliVerify,
    "cert-matrix": cert_matrix,
    "cert-transport": cert_transport,
    "closed-loop": ClosedLoop,
}
