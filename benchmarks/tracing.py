"""In-memory spans for the traced benchmark run.

A span records a name, the item it belongs to (all spans of one item share
the item's id), its parent span, and start and end times in nanoseconds.
Spans stay in memory until the run ends and are then written out in one
file, each with its self time: its duration minus its children's.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, item: int, **attrs):
        rec = {"id": len(self.spans), "name": name, "item": item,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter_ns(), "end": None, **attrs}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter_ns()
            self._open.pop()

    def self_times(self) -> list[int]:
        """Duration minus the children's durations (children never overlap:
        the benchmark is single-threaded and spans nest strictly)."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def durations(self, name: str) -> dict[int, list[int]]:
        """Durations (ns) of the spans called ``name``, grouped by item."""
        out: dict[int, list[int]] = {}
        for s in self.spans:
            if s["name"] == name:
                out.setdefault(s["item"], []).append(s["end"] - s["start"])
        return out

    def write(self, path: Path) -> None:
        doc = [dict(s, self_ns=t) for s, t in zip(self.spans, self.self_times())]
        path.write_text(json.dumps(doc))
