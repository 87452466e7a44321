"""Layer spans recorded from outside the program.

``install`` rebinds each layer function in the module that calls it, so a
call made by the CLI, the oracle or the potential module opens a span whose
parent is the span open at that moment.  Spans live in memory until the run
ends.  Self time is a span's duration minus the durations of its children;
the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import sys
from time import perf_counter

# Layer name -> the (module, attribute) bindings that callers look up.
LAYER_BINDINGS = {
    "potential.build": [("periodlab.cli", "duffing_potential"),
                        ("periodlab.cli", "cubic_potential"),
                        ("periodlab.cli", "from_physical")],
    "potential.barrier_info": [("periodlab.potential", "barrier_info"),
                               ("periodlab.cli", "barrier_info")],
    "potential.turning_points": [("periodlab.cli", "turning_points"),
                                 ("periodlab.oracle", "turning_points")],
    "poly.real_roots": [("periodlab.potential", "real_roots"),
                        ("periodlab.frame", "real_roots")],
    "frame.balanced_frame": [("periodlab.cli", "balanced_frame"),
                             ("periodlab.oracle", "balanced_frame")],
    "period.quadrature": [("periodlab.cli", "period_quadrature")],
    "period.series": [("periodlab.cli", "best_series")],
    "period.elliptic": [("periodlab.cli", "duffing_elliptic"),
                        ("periodlab.cli", "cubic_elliptic")],
    "oracle.measure_period": [("periodlab.cli", "measure_period")],
}
ROOT = "cli"

# Span fields, kept as lists for low overhead.
NAME, START, END, PARENT, OP, ERROR, EXTRA = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.op = -1

    def _wrap(self, name, fn, on_result=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None, None]
            spans.append(span)
            stack.append(idx)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if on_result is not None:
                span[EXTRA] = on_result(result)
            return result

        return traced

    def _count_nodes(self, fn):
        """Count delta_at calls (doubling levels) and theta nodes on the open span."""
        spans, stack = self.spans, self._stack

        def counted(frame, theta):
            if stack:
                span = spans[stack[-1]]
                extra = span[EXTRA]
                if extra is None:
                    extra = span[EXTRA] = {"levels": 0, "nodes": 0, "last": 0}
                extra["levels"] += 1
                extra["nodes"] += len(theta)
                extra["last"] = len(theta)
            return fn(frame, theta)

        return counted

    def _rebind(self, module_name, attr, new):
        module = sys.modules[module_name]
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def install(self):
        """Rebind every layer function; returns the traced ``cli.main``."""
        extras = {
            "period.series": lambda r: {"terms": len(r.partial_sums)},
            "oracle.measure_period": lambda r: {"steps": r.steps},
        }
        for layer, bindings in LAYER_BINDINGS.items():
            for module_name, attr in bindings:
                fn = getattr(sys.modules[module_name], attr)
                self._rebind(module_name, attr, self._wrap(layer, fn, extras.get(layer)))
        period = sys.modules["periodlab.period"]
        self._rebind("periodlab.period", "delta_at", self._count_nodes(period.delta_at))
        return self._wrap(ROOT, sys.modules["periodlab.cli"].main)

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_summary(spans: list[list], ops: int) -> dict:
    """Per layer: calls, self time, errors by kind and counters, per operation."""
    own = self_times(spans)
    layers: dict[str, dict] = {}
    for span, self_s in zip(spans, own):
        entry = layers.setdefault(span[NAME], {"calls": 0, "self_s": 0.0, "incl_s": 0.0,
                                               "errors": {},
                                               "levels": 0, "nodes": 0, "useful": 0,
                                               "terms": 0, "steps": 0})
        entry["calls"] += 1
        entry["self_s"] += self_s
        entry["incl_s"] += span[END] - span[START]
        if span[ERROR] is not None:
            entry["errors"][span[ERROR]] = entry["errors"].get(span[ERROR], 0) + 1
        extra = span[EXTRA]
        if extra:
            if "levels" in extra:
                entry["levels"] += extra["levels"]
                entry["nodes"] += extra["nodes"]
                if span[ERROR] is None:
                    entry["useful"] += extra["last"]
            entry["terms"] += extra.get("terms", 0)
            entry["steps"] += extra.get("steps", 0)
    for entry in layers.values():
        entry["calls_per_op"] = entry["calls"] / ops
        entry["self_ms_per_op"] = 1e3 * entry["self_s"] / ops
    return layers


def coverage(spans: list[list], walls: list[float]) -> list[float]:
    """Per call: summed self times of its spans divided by the call's measured wall time."""
    own = self_times(spans)
    total = [0.0] * len(walls)
    for span, self_s in zip(spans, own):
        if 0 <= span[OP] < len(walls):
            total[span[OP]] += self_s
    return [t / w for t, w in zip(total, walls)]
