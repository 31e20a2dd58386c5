"""In-memory spans around the benchmark's calls into solispec.

A span records (id, name, start, end, parent, unit), where unit names the
job unit sample it ran in ("<unit>#<sample>", None outside the job). Names
are "<layer>.<function>", where the layer is the solispec module the call
goes into ("bench" marks the benchmark's own phases). Spans stay in memory and
are written out with the run record; self time is derived from them.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager


class Tracer:
    """Collects spans while enabled; when disabled a span costs one branch."""

    def __init__(self):
        self.enabled = False
        self.spans: list[dict] = []
        self.unit: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "unit": self.unit, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    # -- analysis -----------------------------------------------------------

    def durations(self, name: str, under: str | None = None) -> list[float]:
        """Durations of spans called name, optionally only those below a span called under."""
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and (under is None or self._below(s, under))]

    def _below(self, span: dict, name: str) -> bool:
        pid = span["parent"]
        while pid is not None:
            parent = self.spans[pid]
            if parent["name"] == name:
                return True
            pid = parent["parent"]
        return False

    def self_times(self, under: str | None = None) -> dict[str, float]:
        """Total self time per span name: duration minus time covered by child spans.

        With under, only spans called under and the spans below them count.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            if under is None or s["name"] == under or self._below(s, under):
                out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - child[s["id"]]
        return out

    def layer_self_times(self, under: str | None = None) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, t in self.self_times(under).items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + t
        return out


def median(values):
    return statistics.median(values) if values else None


def percentile(values, q: float):
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sample."""
    if not values:
        return None
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, -(-len(ordered) * q // 100) - 1))
    return ordered[int(k)]
