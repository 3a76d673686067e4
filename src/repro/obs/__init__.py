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

import threading

from repro.obs.export import (
    HISTOGRAM_QUANTILES,
    SpanAggregate,
    aggregate_spans,
    build_span_tree,
    read_trace_jsonl,
    render_prometheus,
    render_span_tree,
    span_jsonl_lines,
    summary_lines,
    table_totals,
    trace_lines,
    write_metrics_text,
    write_trace_jsonl,
)
from repro.obs.profile import (
    SamplingProfiler,
    StageProfile,
    active_profiler,
    disable_profiling,
    enable_profiling,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    active_metrics,
    disable_metrics,
    enable_metrics,
)
from repro.obs.stitch import (
    SpanContext,
    WorkerTelemetry,
    span_payload,
    stitch_spans,
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

# One lock serializes every swap of the process-global collectors, and a
# generation counter lets long-lived readers (the serve thread, an
# exporter) detect that the world changed under them instead of mixing
# two generations in one response.
_state_lock = threading.RLock()
_generation = 0


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


def __getattr__(name: str):
    """``obs.ObsServer`` resolves on first use: importing the web server
    (``http.server`` → ``email``, ``html``, ``socketserver``) is the cost
    of ``--obs-port``, not of every batch run."""
    if name == "ObsServer":
        from repro.obs.serve import ObsServer

        return ObsServer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "HISTOGRAM_QUANTILES",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsServer",
    "SamplingProfiler",
    "SpanAggregate",
    "SpanContext",
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
