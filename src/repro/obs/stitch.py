"""Cross-process trace stitching and metric-delta propagation.

PDGF's JMX console sees one JVM; our process backend runs workers in
separate interpreters, so without help their telemetry is invisible —
each forked worker inherits a *copy* of the parent's tracer and records
into the void. This module closes that gap:

* a :class:`SpanContext` travels with each dispatched work package and
  names the logical parent span (the scheduler's ``scheduler.run``
  span) plus the dispatch attempt, so spans of a requeued package after
  a worker crash carry ``attempt=2``;
* workers serialize their finished spans with :func:`span_payload`
  (plain dicts — picklable over the existing result queues) and their
  metric deltas with :meth:`MetricsRegistry.export_deltas`;
* the parent grafts both into its own collectors with
  :func:`stitch_spans` / :meth:`MetricsRegistry.merge_deltas`,
  remapping span ids into its id space, re-anchoring worker clocks onto
  its epoch, and linking worker root spans under the given parent.

The result is one coherent trace for any backend: ``dbsynth stats
--tree`` renders parent scheduler spans and all worker-side
generate/format spans as a single tree.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.obs.profile import active_profiler
from repro.obs.registry import active_metrics
from repro.obs.trace import SpanRecord, Tracer, active_tracer

#: payload schema version; bumped when the wire shape changes.
SPAN_PAYLOAD_VERSION = 1

#: default sampling rate of the worker-side profiler, Hz.
DEFAULT_PROFILE_HZ = 100.0


@dataclass(frozen=True)
class SpanContext:
    """Cross-process parentage carried with each dispatched package.

    ``parent_id`` is a span id in the *parent* process's tracer;
    ``attempt`` counts dispatches of this package (2+ after a worker
    crash requeued it).
    """

    parent_id: int | None = None
    attempt: int = 1

    def retry(self) -> "SpanContext":
        """The context of the next dispatch attempt of this package."""
        return SpanContext(self.parent_id, self.attempt + 1)


@dataclass(frozen=True)
class WorkerTelemetry:
    """Which collectors an executor process should run (picklable).

    Built by the parent from its own active collectors when it spawns
    executors (:meth:`from_active`); all-off (the default) keeps the
    child's disabled-path cost at the usual one-global-load-and-branch.
    """

    trace: bool = False
    metrics: bool = False
    profile: bool = False
    profile_hz: float = DEFAULT_PROFILE_HZ

    @property
    def enabled(self) -> bool:
        return self.trace or self.metrics or self.profile

    @classmethod
    def from_active(cls) -> "WorkerTelemetry":
        """Mirror of what this process is collecting right now (all-off
        when nothing is — children then ship no payloads)."""
        profiler = active_profiler()
        return cls(
            trace=active_tracer() is not None,
            metrics=active_metrics() is not None,
            profile=profiler is not None,
            profile_hz=profiler.hz if profiler is not None else DEFAULT_PROFILE_HZ,
        )


def export_spans(tracer: Tracer, drain: bool = True) -> list[dict]:
    """A tracer's finished spans as plain dicts (queue-safe)."""
    records = tracer.drain() if drain else tracer.spans()
    return [
        {
            "span_id": record.span_id,
            "parent_id": record.parent_id,
            "name": record.name,
            "thread_id": record.thread_id,
            "start": record.start,
            "duration": record.duration,
            "attrs": dict(record.attrs),
        }
        for record in records
    ]


def span_payload(tracer: Tracer, drain: bool = True) -> dict:
    """One worker's span buffer, ready for a result-queue message.

    ``epoch_wall`` anchors the worker's monotonic span offsets so the
    parent can re-align them onto its own timeline (same machine, same
    wall clock).
    """
    return {
        "version": SPAN_PAYLOAD_VERSION,
        "pid": os.getpid(),
        "epoch_wall": tracer.epoch_wall,
        "spans": export_spans(tracer, drain=drain),
    }


def stitch_spans(
    tracer: Tracer,
    payload: dict | None,
    parent_id: int | None = None,
    extra_attrs: dict[str, object] | None = None,
) -> int:
    """Graft a worker payload into *tracer*; returns spans adopted.

    Worker-local span ids are remapped onto fresh ids from *tracer* (so
    stitched traces never collide), internal parent links are preserved,
    and payload *root* spans (no parent in the payload) are linked under
    ``parent_id`` — the :class:`SpanContext` parentage. Span start
    offsets are shifted by the wall-clock epoch difference so the
    stitched trace shares one timeline.
    """
    if payload is None:
        return 0
    spans = payload.get("spans") or []
    if not spans:
        return 0
    offset = float(payload.get("epoch_wall", tracer.epoch_wall)) - tracer.epoch_wall
    pid = payload.get("pid")
    id_map = {span["span_id"]: tracer.allocate_id() for span in spans}
    for span in spans:
        local_parent = span.get("parent_id")
        mapped_parent = id_map.get(local_parent) if local_parent is not None else None
        attrs = dict(span.get("attrs") or {})
        if pid is not None:
            attrs.setdefault("pid", pid)
        if extra_attrs:
            attrs.update(extra_attrs)
        tracer.adopt(
            SpanRecord(
                span_id=id_map[span["span_id"]],
                parent_id=mapped_parent if mapped_parent is not None else parent_id,
                name=str(span["name"]),
                thread_id=int(span.get("thread_id", 0)),
                start=float(span["start"]) + offset,
                duration=float(span["duration"]),
                attrs=attrs,
            )
        )
    return len(spans)
