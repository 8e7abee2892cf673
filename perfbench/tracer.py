"""Spans and counters around the public functions of the sgperturb modules.

The wrappers are installed from outside the package: every ``sgperturb.*``
namespace that binds a wrapped function gets the wrapper, so a call made
through ``from .numkit import induced_norm`` is seen as well as one made
through ``numkit.induced_norm``.  Nothing under ``src/`` changes.

A span is ``(name, start, end, parent index, operation id)``.  Spans stay in
memory until :meth:`Tracer.dump` writes them out.  A span's self time is its
duration minus the durations of its direct child spans.  The tracer assumes
one thread, which is how the benchmark drives the library.
"""

from __future__ import annotations

import collections
import functools
import inspect
import json
import sys
import time

import numpy as np

MODULES = ("numkit", "toeplitz", "semigroup", "transport", "admissibility",
           "perturbation", "classical", "cli")

# Validators, RNG helpers and array plumbing: cheaper than a span, so they
# stay unwrapped and their time counts in the self time of their caller.
UNWRAPPED = frozenset({
    "numkit.as_matrix", "numkit.as_vector", "numkit.vector_norm",
    "numkit.make_rng", "numkit.random_matrix", "numkit.random_vector",
    "semigroup.shift_open", "semigroup.as_grid_function",
    "cli.report_schema_version",
})

# Called thousands of times per operation by the root search: counted
# without a span.
COUNT_ONLY = frozenset({"transport.transfer_scalar"})

# numkit kernels that take a dense matrix first; the value says whether the
# call does cubic work on it (induced_norm only for p = 2).
_DENSE_KERNELS = {
    "numkit.expm": lambda args, kwargs: False,
    "numkit.solve": lambda args, kwargs: True,
    "numkit.eigenvalues": lambda args, kwargs: True,
    "numkit.induced_norm":
        lambda args, kwargs: (args[1] if len(args) > 1
                              else kwargs.get("p")) == 2,
    "numkit.norm_bounds": lambda args, kwargs: False,
    "numkit.spectral_radius_distance": lambda args, kwargs: False,
}


class Tracer:
    """Installs span and count wrappers; one instance per process."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.maxima = collections.Counter()
        self.op = None
        self._stack = []            # (span index, module) of open spans
        self._patched = []          # (namespace dict, key, original)

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every public function of :data:`MODULES` in every namespace."""
        packages = [m for n, m in sys.modules.items()
                    if n == "sgperturb" or n.startswith("sgperturb.")]
        wrappers = {}
        for module in MODULES:
            mod = sys.modules[f"sgperturb.{module}"]
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name, None)
                qual = f"{module}.{name}"
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and qual not in UNWRAPPED):
                    wrappers[id(fn)] = self._wrap(module, qual, fn)
        for pkg in packages:
            space = vars(pkg)
            for key, value in list(space.items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((space, key, value))
                    space[key] = wrapper
        # CLI suites are private, but without their spans cli.run's self
        # time would include every suite it runs.
        suites = getattr(sys.modules["sgperturb.cli"], "_SUITES", {})
        for key, fn in list(suites.items()):
            self._patched.append((suites, key, fn))
            suites[key] = self._wrap("cli", f"cli.suite.{key}", fn)

    def uninstall(self):
        for space, key, original in reversed(self._patched):
            space[key] = original
        self._patched.clear()

    # -- wrappers -----------------------------------------------------------

    def _observe(self, qual, args, kwargs):
        cubic = _DENSE_KERNELS.get(qual)
        if cubic is None or not args:
            return
        shape = np.shape(args[0])
        if len(shape) != 2:
            return
        r, c = shape
        self.maxima["numkit.max_dense_dim"] = max(
            self.maxima["numkit.max_dense_dim"], r, c)
        if cubic(args, kwargs):
            self.counts["numkit.dense_cubic_work"] += r * c * min(r, c)

    def _result(self, qual, result):
        if qual == "admissibility.io_matrix":
            self.maxima["admissibility.io_matrix.max_cols"] = max(
                self.maxima["admissibility.io_matrix.max_cols"],
                result.shape[1])
        elif qual == "transport.characteristic_roots":
            self.counts["transport.characteristic_roots.roots"] += len(result)

    def _wrap(self, module, qual, fn):
        """Wrap ``fn``; an exception leaving it for another module's code
        counts in ``<module>.errors``."""
        tracer = self
        if qual in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer.counts[f"{qual}.calls"] += 1
                try:
                    return fn(*args, **kwargs)
                except Exception:
                    if not tracer._stack or tracer._stack[-1][1] != module:
                        tracer.counts[f"{module}.errors"] += 1
                    raise
            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            tracer._observe(qual, args, kwargs)
            parent, caller = tracer._stack[-1] if tracer._stack else (-1, None)
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append((index, module))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if caller != module:
                    tracer.counts[f"{module}.errors"] += 1
                raise
            finally:
                tracer._stack.pop()
                tracer.spans[index] = (qual, start, time.perf_counter(),
                                       parent, tracer.op)
            tracer._result(qual, result)
            return result
        return spanned

    # -- output -------------------------------------------------------------

    def take(self):
        """Return and reset the spans, counts and maxima recorded so far."""
        out = {"spans": self.spans, "counts": dict(self.counts),
               "maxima": dict(self.maxima)}
        self.spans = []
        self.counts = collections.Counter()
        self.maxima = collections.Counter()
        return out

    def dump(self, path, extra=None):
        record = self.take()
        record.update(extra or {})
        with open(path, "w") as fh:
            json.dump(record, fh)


def summarize(record):
    """Per-name ``calls`` and ``self_s`` plus the counters of one operation."""
    spans = record["spans"]
    selfs = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            selfs[parent] -= end - start
    out = collections.Counter()
    for (name, _, _, _, _), self_s in zip(spans, selfs):
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += self_s
    out.update(record["counts"])
    out.update(record["maxima"])
    return dict(out)
