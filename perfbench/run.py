"""sgperturb benchmark: one workload per invocation, from a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; the package is imported from ``src/``
(``PYTHONPATH=src``), not from an install.  Workloads (see ``workloads.py``):

* ``cli-verify``     a cold ``sgperturb run CONFIG --verify`` process per
  operation, alternating the README matrix config (every matrix-world suite)
  and the README transport config;
* ``cert-matrix``    a warm ``generation_certificate`` of the README triple on
  ``TimeGrid(0.5, 512)`` (assembly-bound: ``io_matrix`` block loops).  Its
  time is mostly interpreter time, which on a shared 2-vCPU host swings with
  the host's load by up to 1.7x between runs, so it is not listed in
  ``BENCHMARK.json``; run it by name;
* ``cert-transport`` the same for the N = 2048 transport triple on
  ``TimeGrid(0.5, 1024)`` (kernel-bound: dense SVD).  Its verdict is
  ``inconclusive`` (a known defect), so every operation fails its check and
  it is not listed in ``BENCHMARK.json`` either; run it by name;
* ``closed-loop``    growth check, feedback semigroup with its
  variation-of-parameters residual, ``solve_pde`` to horizon 4 and
  ``characteristic_roots``, as one battery.

Load is a closed loop: one client in one child process, each operation
starting after the previous one ends, for ``--seconds`` seconds after an
untimed warm-up.  BLAS threads are pinned to the CPUs this process may use.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
``ops_per_s`` (operations over the time spent inside them), ``op_p50_s``,
``op_tail_s`` (see :func:`tail`), ``setup_s`` (median over
:data:`SETUP_SAMPLES` child spawns of the time from spawn to inputs ready)
and ``peak_rss_mb`` (the measured process's ``ru_maxrss``).  With
``--trace 1`` operations alternate between traced and untraced, and the last
line carries the per-layer metrics of the traced ones, per operation, plus
``trace.overhead_s`` (traced minus untraced median).  ``failed`` counts
operations that raised or failed a check; the checks are in
``workloads.py``.  Spans, the environment record and the per-operation
records go to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("cli-verify", "cert-matrix", "cert-transport", "closed-loop")
SETUP_SAMPLES = 7
TIME_LIMIT_S = 170.0

END_TO_END = (("ops_per_s", "1/s"), ("op_p50_s", "s"), ("op_tail_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


def _layer(module, calls=(), self_s=(), extra=()):
    out = []
    for fn in calls:
        out += [(f"{module}.{fn}.calls", "count"),
                (f"{module}.{fn}.self_s", "s")]
    out += [(f"{module}.{fn}.self_s", "s") for fn in self_s]
    out += list(extra)
    return out + [(f"{module}.errors", "count")]


PER_LAYER = (
    _layer("numkit", ("induced_norm", "eigenvalues", "solve", "expm"),
           extra=(("numkit.dense_cubic_work", "count"),
                  ("numkit.max_dense_dim", "count")))
    + _layer("toeplitz", ("feedback_inverse_norm_bound",
                          "feedback_toeplitz_inverse", "materialize"))
    + _layer("semigroup", ("apply_semigroup", "volterra_resolvent_values",
                           "spectral_abscissa"))
    + _layer("transport", ("solve_pde", "characteristic_roots"),
             extra=(("transport.transfer_scalar.calls", "count"),
                    ("transport.characteristic_roots.roots", "count")))
    + _layer("admissibility", ("io_matrix", "controllability_map",
                               "observability_map"),
             ("smooth_trial_signals", "estimate_constants",
              "feedback_admissible"),
             (("admissibility.io_matrix.max_cols", "count"),))
    + _layer("perturbation", ("weiss_staffans_semigroup",
                              "variation_of_parameters_residual",
                              "long_horizon_growth_check",
                              "perturbed_resolvent"),
             ("generation_certificate",))
    + _layer("classical", (), ("ds_suite", "mv_suite"))
    + _layer("cli", (), ("run", "validate_report"),
             (("cli.import_s", "s"),))
    + [("trace.overhead_s", "s")]
)
MAXIMA = {"numkit.max_dense_dim", "admissibility.io_matrix.max_cols"}


def tail(times):
    """(percentile, value): the highest percentile with at least ten samples
    beyond it.  Below 100 samples that percentile would sit under p90 (under
    the median below 20), so the slowest sample (p100) is reported instead."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 100:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, env, deadline):
    """Start the worker; return (process, its kill timer, seconds until it
    printed READY)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT,
                            env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    # On overrun, kill the worker with the CLI processes it may have started.
    killer = threading.Timer(max(deadline - time.monotonic(), 0.0),
                             os.killpg, (proc.pid, signal.SIGKILL))
    killer.start()
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        rest = proc.stdout.read()
        proc.wait()
        killer.cancel()
        raise RuntimeError(f"worker did not get ready (exit {proc.returncode})"
                           f"{': ' + rest.strip()[-500:] if rest else ''}")
    return proc, killer, setup


def finish(proc, killer):
    out = proc.stdout.read()
    proc.wait()
    killer.cancel()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return out


def measure(args) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    threads = len(os.sched_getaffinity(0))
    env = child_env(threads)
    workdir = ROOT / ".perfbench-out" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    workdir.mkdir(parents=True, exist_ok=True)
    worker_args = [args.workload, str(args.seed), repr(args.seconds),
                   str(args.trace), str(workdir)]
    setups = []
    # The first spawn is untimed: it fills bytecode and OS file caches.
    for k in range(SETUP_SAMPLES):
        proc, killer, setup = spawn(worker_args + ["--setup-only"], env,
                                    deadline)
        finish(proc, killer)
        if k:
            setups.append(setup)
    proc, killer, setup = spawn(worker_args, env, deadline)
    setups.append(setup)
    result = json.loads(finish(proc, killer).strip().splitlines()[-1])
    result["setups"] = setups
    (workdir / "result.json").write_text(json.dumps(result, indent=1))
    return result


def end_to_end(result):
    times = [op["s"] for op in result["ops"]]
    pct, tail_s = tail(times)
    metrics = {"ops_per_s": len(times) / sum(times),
               "op_p50_s": statistics.median(times),
               "op_tail_s": tail_s,
               "setup_s": statistics.median(result["setups"]),
               "peak_rss_mb": result["peak_rss_kb"] / 1024.0}
    notes = {"op_tail_s": f"p{pct:.1f} of n={len(times)}, "
                          f"{sum(t > tail_s for t in times)} beyond",
             "setup_s": f"median of {len(result['setups'])} spawns"}
    return metrics, notes


def per_layer(result):
    traced = [op for op in result["ops"] if op["traced"]]
    plain = [op["s"] for op in result["ops"] if not op["traced"]]
    summaries = [op.get("summary", {}) for op in traced]
    metrics = {}
    for name, _ in PER_LAYER:
        values = [s.get(name, 0) for s in summaries]
        if name in MAXIMA:
            metrics[name] = max(values)
        else:
            metrics[name] = sum(values) / len(values)
    metrics["trace.overhead_s"] = (statistics.median(op["s"] for op in traced)
                                   - statistics.median(plain))
    notes = {"trace.overhead_s": f"{len(traced)} traced, {len(plain)} "
                                 f"untraced operations"}
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "sgperturb" / "__init__.py").is_file():
        print(f"no sgperturb sources under {ROOT / 'src'}; run from a "
              f"source checkout", file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    ops = result["ops"]
    failed = [op for op in ops if op["problems"]]
    if args.trace:
        metrics, notes = per_layer(result)
        units = dict(PER_LAYER)
    else:
        metrics, notes = end_to_end(result)
        units = dict(END_TO_END)
    env = result["env"]
    print(f"workload {args.workload}  seed {args.seed}  seconds "
          f"{args.seconds:g}  trace {args.trace}  closed loop, 1 client")
    print(f"env: python {env['python']}, numpy {env['numpy']}, scipy "
          f"{env['scipy']}, {env['blas']}, threads {env['blas_threads']}, "
          f"nproc {env['nproc']}, {env['cpu']}, caches {env['caches']}, "
          f"commit {env['commit']}, src {env['src_sha256'][:16]}")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:48s} {value:14.6g} {units[name]}{note}")
    print(f"  {'failed_share':48s} {len(failed) / len(ops):14.6g} "
          f"({len(failed)} of {len(ops)} operations)")
    reasons = sorted({p for op in failed for p in op["problems"]})
    for reason in reasons + [f"warm-up: {p}" for p in
                             result["warmup_problems"]]:
        print(f"  check failed: {reason}")
    print(json.dumps({
        "correct": not failed and not result["warmup_problems"],
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
