"""Observability: tracing spans, a metrics registry, and exporters.

The paper's PDGF reports per-table and total progress plus throughput
over JMX (§5); this package is the reproduction's substitute and goes
further, instrumenting every pipeline stage — extraction, profiling,
model building, the engine's recompute path, the scheduler's work
packages, and the output system — across *processes*: worker spans and
metric deltas stream back over the scheduler's result queues and are
stitched into one trace (:mod:`repro.obs.stitch`), a background HTTP
endpoint serves live metrics/progress/trace views during a run
(:mod:`repro.obs.serve`), and a sampling profiler attributes wall/CPU
time per stage (:mod:`repro.obs.profile`).

Usage::

    from repro import obs

    tracer = obs.enable_tracing()
    registry = obs.enable_metrics()
    ...  # run the pipeline; instrumented code records automatically
    obs.write_trace_jsonl(tracer, "trace.jsonl")
    obs.write_metrics_text(registry, "metrics.prom")
    print("\\n".join(obs.summary_lines(registry, tracer)))
    obs.reset()

All facilities are **off by default**; disabled instrumentation costs
one global load and a branch per site. :func:`reset` swaps the process
state atomically (guarded by a lock and a generation counter), so a
background exporter or serve thread mid-read sees either the old
generation or the new one, never a mix.
"""

from __future__ import annotations

import sys
import threading
from typing import TYPE_CHECKING

from repro._lazy import lazy_names
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    active_metrics,
    disable_metrics,
    enable_metrics,
)
from repro.obs.timing import throughput_mb_per_s
from repro.obs.trace import (
    SpanRecord,
    Stopwatch,
    Tracer,
    active_tracer,
    disable_tracing,
    enable_tracing,
    span,
    timed,
)

if TYPE_CHECKING:
    from repro.obs.profile import SamplingProfiler

# One lock serializes every swap of the process-global collectors, and a
# generation counter lets long-lived readers (the serve thread, an
# exporter) detect that the world changed under them instead of mixing
# two generations in one response.
_state_lock = threading.RLock()
_generation = 0


def active_profiler() -> SamplingProfiler | None:
    """The process's :class:`SamplingProfiler`, or ``None``. Only
    :func:`enable_profiling` starts one, so a process that never loaded
    :mod:`repro.obs.profile` has none, and asking loads nothing."""
    profile = sys.modules.get("repro.obs.profile")
    return None if profile is None else profile.active_profiler()


def disable_profiling() -> None:
    """Stop and uninstall the process profiler, if one runs
    (idempotent)."""
    profile = sys.modules.get("repro.obs.profile")
    if profile is not None:
        profile.disable_profiling()


def reset() -> None:
    """Disable tracing, metrics, and profiling (end-of-run / test
    hygiene). Atomic with respect to :func:`state`."""
    global _generation
    with _state_lock:
        disable_tracing()
        disable_metrics()
        disable_profiling()
        _generation += 1


def generation() -> int:
    """Monotonic count of obs state swaps (see :func:`state`)."""
    with _state_lock:
        return _generation


def state() -> tuple[int, Tracer | None, MetricsRegistry | None, SamplingProfiler | None]:
    """One consistent snapshot: ``(generation, tracer, registry,
    profiler)``. Readers that must not tear across a concurrent
    :func:`reset` take this once per operation and work off the
    returned references."""
    with _state_lock:
        return _generation, active_tracer(), active_metrics(), active_profiler()


#: Resolved on first use: the exporters (``--trace``, ``--metrics``,
#: ``--summary``, ``dbsynth stats``), the stitching of executor
#: telemetry (``-w N``), the sampling profiler (``--profile``) and the
#: web server (``--obs-port``; ``http.server`` → ``email``, ``html``,
#: ``socketserver``) are the cost of the runs that use them, not of
#: every run.
_LAZY = {
    "HISTOGRAM_QUANTILES": "repro.obs.export",
    "SpanAggregate": "repro.obs.export",
    "aggregate_spans": "repro.obs.export",
    "build_span_tree": "repro.obs.export",
    "read_trace_jsonl": "repro.obs.export",
    "render_prometheus": "repro.obs.export",
    "render_span_tree": "repro.obs.export",
    "span_jsonl_lines": "repro.obs.export",
    "summary_lines": "repro.obs.export",
    "table_totals": "repro.obs.export",
    "trace_lines": "repro.obs.export",
    "write_metrics_text": "repro.obs.export",
    "write_trace_jsonl": "repro.obs.export",
    "SamplingProfiler": "repro.obs.profile",
    "StageProfile": "repro.obs.profile",
    "enable_profiling": "repro.obs.profile",
    "WorkerTelemetry": "repro.obs.stitch",
    "span_payload": "repro.obs.stitch",
    "stitch_spans": "repro.obs.stitch",
    "ObsServer": "repro.obs.serve",
}

__getattr__, __dir__ = lazy_names(__name__, _LAZY)


__all__ = [
    "HISTOGRAM_QUANTILES",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsServer",
    "SamplingProfiler",
    "SpanAggregate",
    "SpanRecord",
    "StageProfile",
    "Stopwatch",
    "Tracer",
    "WorkerTelemetry",
    "active_metrics",
    "active_profiler",
    "active_tracer",
    "aggregate_spans",
    "build_span_tree",
    "disable_metrics",
    "disable_profiling",
    "disable_tracing",
    "enable_metrics",
    "enable_profiling",
    "enable_tracing",
    "generation",
    "read_trace_jsonl",
    "render_prometheus",
    "render_span_tree",
    "reset",
    "span",
    "span_jsonl_lines",
    "span_payload",
    "state",
    "stitch_spans",
    "summary_lines",
    "table_totals",
    "throughput_mb_per_s",
    "timed",
    "trace_lines",
    "write_metrics_text",
    "write_trace_jsonl",
]
