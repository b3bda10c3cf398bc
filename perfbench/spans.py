"""Spans around calls into rpcurve, recorded from the benchmark's side.

A :class:`Tracer` replaces chosen functions of the package with timing
wrappers while it is installed.  A function is replaced wherever a loaded
``rpcurve`` module holds it as an attribute, so a call the package makes
through its own imports (``rpcurve.fitting.project_points``,
``rpcurve.cli.load_table``, ...) is timed as well as a call the benchmark
makes.  Spans stay in memory and are written out when the run ends.

The per-layer metrics are computed from the spans by :func:`layer_metrics`.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
import tracemalloc
from collections import defaultdict


def _projection(result):
    ts, _, clamped = result
    return {"points": int(ts.size), "clamped": int(clamped.sum())}


# (module, attribute, span name, counters taken from the call's result).
# Only layers that every workload runs are traced: a per-layer figure of a
# layer some workload never enters would read 0 there.
TARGETS = (
    ("rpcurve.data", "load_table", "data.load_table", None),
    ("rpcurve.data", "normalize", "data.normalize", None),
    ("rpcurve.data", "apply_transform", "data.apply_transform", None),
    ("rpcurve.projection", "project_points", "projection.project_points",
     _projection),
    ("rpcurve.fitting", "fit_table", "fitting.fit_table", None),
    ("rpcurve.fitting", "fit", "fitting.fit", None),
    ("rpcurve.fitting", "init_curve", "fitting.init_curve", None),
    ("rpcurve.fitting", "rank", "fitting.rank", None),
    ("rpcurve.fitting", "save_fit", "fitting.save_fit", None),
    ("rpcurve.fitting", "load_curve", "fitting.load_curve", None),
)

# Spans whose first call in each operation is also measured for its peak
# traced allocation.  Only the first: tracemalloc roughly doubles the time
# of a call that makes many small allocations, as the fit's projections do.
_ALLOC_SPANS = {"projection.project_points"}


class Tracer:
    """Records spans (name, start, end, parent) of wrapped calls."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._probed: set = set()  # ops whose allocation peak was taken

    def wrap(self, name, fn, counters=None):
        """``fn`` with each call recorded as a span called ``name``."""

        def traced(*args, **kwargs):
            rec = {
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "op": self.op,
                "pid": os.getpid(),
            }
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            alloc = (name in _ALLOC_SPANS and self.op not in self._probed
                     and not tracemalloc.is_tracing())
            if alloc:
                tracemalloc.start()
            rec["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec["error"] = True
                raise
            finally:
                rec["end"] = time.perf_counter()
                self._stack.pop()
                if alloc:
                    rec["peak_alloc"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self._probed.add(self.op)
            if counters is not None:
                rec.update(counters(result))
            return result

        return traced

    def _replace(self, fn, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("rpcurve"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patched.append((mod, attr, fn))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        """Wrap every target the loaded package still has; skip the rest."""
        for mod_name, attr, name, counters in TARGETS:
            fn = getattr(importlib.import_module(mod_name), attr, None)
            if callable(fn):
                self._replace(fn, self.wrap(name, fn, counters))

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, fn = self._patched.pop()
            setattr(mod, attr, fn)

    def run(self, op: int, fn, *args, **kwargs):
        """Call ``fn`` with the wrappers installed, as operation ``op``."""
        self.op = op
        self.install()
        try:
            return fn(*args, **kwargs)
        finally:
            self.uninstall()
            self.op = None


def _duration(span) -> float:
    return span["end"] - span["start"]


def self_times(spans) -> list[float]:
    """Each span's duration less the time its direct children cover."""
    out = [_duration(s) for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= _duration(s)
    return out


def layer_metrics(spans, ops: int,
                  import_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run that made ``ops`` operations.

    Times and counts are per operation (summed over the run, divided by
    ``ops``).  ``import_s`` is the time a fresh interpreter takes to import
    ``rpcurve.cli``, measured by the run's set-up.  A span's parent is an
    index into the same list (see :func:`extend`).
    """
    by = defaultdict(list)
    for i, s in enumerate(spans):
        by[s["name"].split(".")[0]].append(i)
        by[s["name"]].append(i)
    selfs = self_times(spans)

    def total(name, key=None):
        return sum(_duration(spans[i]) if key is None
                   else spans[i].get(key, 0) for i in by[name])

    name = "projection.project_points"
    points = total(name, "points")
    seconds = total(name)
    return {
        "data.s": (total("data") / ops, "s"),
        "projection.calls": (len(by[name]) / ops, "count"),
        "projection.points": (points / ops, "count"),
        "projection.s": (seconds / ops, "s"),
        "projection.us_per_point": (1e6 * seconds / max(points, 1),
                                    "us/point"),
        "projection.clamped": (total(name, "clamped") / ops, "count"),
        "projection.peak_alloc_mb": (
            max((spans[i].get("peak_alloc", 0) for i in by[name]), default=0)
            / 2**20,
            "MB",
        ),
        "fitting.self_s": (sum(selfs[i] for i in by["fitting"]) / ops, "s"),
        "fitting.rank_s": (total("fitting.rank") / ops, "s"),
        "cli.import_s": (import_s, "s"),
    }


def extend(spans: list[dict], more: list[dict]) -> None:
    """Append another process's spans, keeping parent indices valid."""
    offset = len(spans)
    for s in more:
        parent = s["parent"]
        spans.append(dict(s, parent=None if parent is None else parent + offset))
