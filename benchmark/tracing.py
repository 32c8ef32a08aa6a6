"""Span tracing of swelab's layers, installed from outside the package.

Every public function of the traced modules (the names in each module's
``__all__``) is replaced by a wrapper that records one span per call:
name, start, end and the index of the enclosing span.  Names a module bound
with ``from .x import name`` are replaced too, so that a call such as
``dynamics.build_right_triangle_torus`` is seen as ``mesh.build_right_triangle_torus``.
Spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its direct child
spans, so the self times of all spans inside an interval add up to that
interval's length.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager

# result-derived work counts, keyed by the span that produces them
_RESULT_COUNTS = {"bloch.sweep_brillouin": ("bloch.sweep_brillouin.points", len)}


def public_bindings(modules):
    """(module, attribute, span name, function) for every traced binding.

    ``modules`` maps a short layer name to its module object.
    """
    names = {}
    for short, mod in modules.items():
        for attr in getattr(mod, "__all__", ()):
            obj = getattr(mod, attr)
            if callable(obj) and not inspect.isclass(obj):
                names[id(obj)] = (f"{short}.{attr}", obj)
    out = []
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            hit = names.get(id(obj))
            if hit is not None:
                out.append((mod, attr, hit[0], hit[1]))
    return out


class Tracer:
    """Collects spans and work counts while its wrappers are installed."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self._stack = [-1]
        self._saved = []

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1]])
        self._stack.append(idx)
        return idx

    def _close(self, idx, t0, t1):
        self._stack.pop()
        span = self.spans[idx]
        span[1] = t0
        span[2] = t1

    @contextmanager
    def span(self, name):
        """A span around a phase of the benchmark itself."""
        idx = self._open(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, t0, time.perf_counter())

    def _wrap(self, name, fn):
        counted = _RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, t0, time.perf_counter())
            if counted is not None:
                self.counts[counted[0]] += counted[1](result)
            return result

        return traced

    def install(self, modules):
        wrappers = {}
        for mod, attr, name, fn in public_bindings(modules):
            if name not in wrappers:
                wrappers[name] = self._wrap(name, fn)
            self._saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, wrappers[name])

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def self_times(self):
        """Per span: (name, self seconds, enclosing benchmark phase names)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        phases = []
        out = []
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            outer = phases[parent] if parent >= 0 else ()
            phases.append(outer + (name,) if name.startswith("bench.") else outer)
            out.append((name, t1 - t0 - child[i], phases[i]))
        return out

    def write(self, path):
        """Spans as [name, start, end, parent], times in µs from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        spans = [[name, round(1e6 * (a - t0), 1), round(1e6 * (b - t0), 1), parent]
                 for name, a, b, parent in self.spans]
        with open(path, "w") as fh:
            json.dump({"spans": spans, "counts": dict(self.counts)}, fh, separators=(",", ":"))
