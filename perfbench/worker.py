"""Benchmark child: set up one workload, then run its operations in a
closed loop (one client, each operation starts after the previous ends).

Usage: ``python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE WORKDIR
[--setup-only]``, with ``PYTHONPATH=src``.  It prints ``READY`` once the
package is imported and the inputs exist, then one JSON line with every
operation's time and check results.  ``run.py`` starts it; see there.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

start = time.perf_counter()
import sgperturb  # noqa: E402  (timed: the package import is set-up work)
import_s = time.perf_counter() - start

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracer import Tracer, summarize  # noqa: E402
from workloads import WORKLOADS, CliVerify  # noqa: E402

# Counts that must repeat exactly between operations on the same input.
EXACT = ("admissibility.io_matrix.calls", "numkit.dense_cubic_work",
         "numkit.expm.calls", "transport.transfer_scalar.calls",
         "transport.characteristic_roots.roots")

ROOT = Path(__file__).resolve().parent.parent


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def environment() -> dict:
    """Versions, BLAS, threads, CPU and source revision of this run."""
    cpu = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        caches.append(f"L{_read(index / 'level')} {_read(index / 'type')} "
                      f"{_read(index / 'size')}")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "not a git checkout"
    except OSError:
        commit = "git not available"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def run_op(workload, i: int, tracer):
    """Time one operation and check it; returns (record, raw trace)."""
    t0 = time.perf_counter()
    try:
        out, raw = workload.call(i, tracer)
        seconds = time.perf_counter() - t0
        problems = workload.check(i, out)
    except Exception as exc:
        seconds = time.perf_counter() - t0
        raw = tracer.take() if tracer is not None else None
        problems = [f"{type(exc).__name__}: {exc}"]
        traceback.print_exc()
    return {"i": i, "s": seconds, "traced": tracer is not None,
            "problems": problems}, raw


def main(argv) -> int:
    name, seed, seconds, trace, workdir = argv[:5]
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    workdir = Path(workdir)
    workload = WORKLOADS[name](seed, workdir)
    print("READY", flush=True)
    if "--setup-only" in argv:
        return 0

    warmup = []
    for i in range(workload.group):   # untimed: fills caches, sets references
        record, _ = run_op(workload, i, None)
        warmup += record["problems"]

    tracer = Tracer() if trace else None
    cycle = workload.group * (2 if trace else 1)
    ops, traces, counts_ref = [], [], {}
    begin = time.perf_counter()
    i = 0
    while i % cycle or time.perf_counter() - begin < seconds:
        traced = trace and (i // workload.group) % 2 == 0
        record, raw = run_op(workload, i, tracer if traced else None)
        if raw is not None:
            summary = summarize(raw)
            # CLI traces carry their own import time; in-process operations
            # share the worker's.
            summary["cli.import_s"] = raw.get("import_s", import_s)
            counts = {k: summary.get(k, 0) for k in EXACT}
            ref = counts_ref.setdefault(workload.key(i), counts)
            if counts != ref:
                record["problems"].append(f"counts differ: {counts} vs {ref}")
            record["summary"] = summary
            traces.append({"op": i, "spans": raw["spans"]})
        ops.append(record)
        i += 1

    if traces:
        with open(workdir / "spans.json", "w") as fh:
            json.dump(traces, fh)
    usage = resource.getrusage(
        resource.RUSAGE_CHILDREN if isinstance(workload, CliVerify)
        else resource.RUSAGE_SELF)
    print(json.dumps({"ops": ops, "warmup_problems": warmup,
                      "peak_rss_kb": usage.ru_maxrss,
                      "env": environment()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
