"""Traced stand-in for ``python -m sgperturb.cli``.

Usage: ``python3 perfbench/traced_cli.py SPANS_JSON CLI_ARGS...``

Times ``import sgperturb.cli``, installs the tracer wrappers, runs
``cli.main(CLI_ARGS)``, writes the spans and counters to SPANS_JSON and exits
with the CLI's exit code.
"""

import importlib
import sys
import time

from tracer import Tracer


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    cli = importlib.import_module("sgperturb.cli")
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path, {"import_s": import_s})
    return code


if __name__ == "__main__":
    sys.exit(main())
