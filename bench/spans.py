"""In-memory spans recorded by the benchmark around its calls into the
program's layers (nothing inside ``src/`` is instrumented).

A span is ``(id, name, start, end, parent, workload)``; all spans of one
run share the workload id. The traced pass is single-threaded, so the
open-span stack is the parent chain. Spans are kept in a list and
written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


class NullTracer:
    """Same calls, nothing recorded — the untraced twin of a traced pass,
    so the two differ by the tracing alone."""

    @contextmanager
    def span(self, name: str):
        yield None


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds of self time per span name: a span's duration minus the
    part of it its child spans cover. *spans* may be any subset that
    contains the parents of its members' children."""
    child_time: dict[int, float] = {}
    for record in spans:
        parent = record["parent"]
        if parent is not None:
            child_time[parent] = (
                child_time.get(parent, 0.0) + record["end"] - record["start"]
            )
    totals: dict[str, float] = {}
    for record in spans:
        own = record["end"] - record["start"] - child_time.get(record["id"], 0.0)
        totals[record["name"]] = totals.get(record["name"], 0.0) + own
    return totals
