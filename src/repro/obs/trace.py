"""Lightweight tracing: nested spans over monotonic clocks.

PDGF's JMX console shows *where* a run spends its time (paper §5); this
module is the library-level equivalent. A :class:`Tracer` collects
:class:`SpanRecord` entries — name, monotonic start offset, duration,
thread id, parent linkage, and free-form attributes — from ``with
span(...)`` blocks placed throughout the pipeline.

Tracing is process-global and **off by default**. When no tracer is
installed, :func:`span` returns a shared no-op object whose enter/exit
do nothing, so instrumented hot paths cost one global load and a branch.
Code that needs wall-clock timing regardless of tracing (the extraction
phase report) uses :func:`timed`, which always measures and records a
span only when a tracer is active.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field


@dataclass(frozen=True)
class SpanRecord:
    """One finished span.

    ``start`` is seconds since the tracer's epoch (monotonic);
    ``epoch_wall`` on the tracer maps it back to wall-clock time.
    """

    span_id: int
    parent_id: int | None
    name: str
    thread_id: int
    start: float
    duration: float
    attrs: dict[str, object] = field(default_factory=dict)


class ActiveSpan:
    """A span in flight — the context manager ``span()`` returns.

    Exposes ``seconds`` after exit (same contract as the no-op and
    stopwatch variants) so callers can read the measured duration.
    """

    __slots__ = (
        "_tracer", "name", "attrs", "span_id", "parent_id", "_parent_override",
        "_start", "seconds",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        attrs: dict[str, object],
        parent_id: int | None = None,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = next(tracer._ids)
        self.parent_id: int | None = None
        self._parent_override = parent_id
        self._start = 0.0
        self.seconds = 0.0

    def set(self, **attrs: object) -> None:
        """Attach attributes to the span (e.g. row counts known at exit)."""
        self.attrs.update(attrs)

    def __enter__(self) -> "ActiveSpan":
        stack = self._tracer._stack()
        if self._parent_override is not None:
            # Cross-thread parentage: work handed to a pool thread names
            # its logical parent explicitly (the thread stack is empty).
            self.parent_id = self._parent_override
        else:
            self.parent_id = stack[-1] if stack else None
        stack.append(self.span_id)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        end = time.perf_counter()
        self.seconds = end - self._start
        stack = self._tracer._stack()
        if stack and stack[-1] == self.span_id:
            stack.pop()
        if exc_type is not None:
            self.attrs["error"] = getattr(exc_type, "__name__", str(exc_type))
        self._tracer._record(self)


class _NoopSpan:
    """Shared do-nothing span used while tracing is disabled."""

    __slots__ = ()
    seconds = 0.0

    def set(self, **attrs: object) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False


class Stopwatch:
    """Timing-only fallback for :func:`timed` when tracing is off."""

    __slots__ = ("_start", "seconds")

    def __init__(self) -> None:
        self._start = 0.0
        self.seconds = 0.0

    def set(self, **attrs: object) -> None:
        pass

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.seconds = time.perf_counter() - self._start


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Collects spans from every thread of the process.

    Finished spans are appended under a lock; per-thread nesting state
    lives in a ``threading.local`` stack of span ids, so spans opened on
    one thread parent correctly even while workers run concurrently.
    """

    def __init__(self) -> None:
        self.epoch_monotonic = time.perf_counter()
        self.epoch_wall = time.time()
        self._records: list[SpanRecord] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)

    def span(
        self, name: str, parent_id: int | None = None, **attrs: object
    ) -> ActiveSpan:
        return ActiveSpan(self, name, attrs, parent_id)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _record(self, span: ActiveSpan) -> None:
        record = SpanRecord(
            span_id=span.span_id,
            parent_id=span.parent_id,
            name=span.name,
            thread_id=threading.get_ident(),
            start=span._start - self.epoch_monotonic,
            duration=span.seconds,
            attrs=dict(span.attrs),
        )
        with self._lock:
            self._records.append(record)

    def spans(self) -> list[SpanRecord]:
        """All finished spans, in completion order."""
        with self._lock:
            return list(self._records)

    def recent_spans(self, limit: int) -> list[SpanRecord]:
        """The last *limit* finished spans (live-endpoint view)."""
        with self._lock:
            if limit <= 0:
                return []
            return list(self._records[-limit:])

    def drain(self) -> list[SpanRecord]:
        """Remove and return every finished span.

        Workers drain after each package so a payload carries only the
        spans of that package, never a growing history.
        """
        with self._lock:
            records = list(self._records)
            self._records.clear()
        return records

    def adopt(self, record: SpanRecord) -> None:
        """Append a pre-built record (stitching spans from another
        process); the record's ids must come from :meth:`allocate_id`."""
        with self._lock:
            self._records.append(record)

    def allocate_id(self) -> int:
        """A fresh span id from this tracer's sequence (for adoption)."""
        return next(self._ids)

    def clear(self) -> None:
        with self._lock:
            self._records.clear()


# -- process-global state ----------------------------------------------------

_tracer: Tracer | None = None


def enable_tracing(tracer: Tracer | None = None) -> Tracer:
    """Install *tracer* (or a fresh one) as the process tracer."""
    global _tracer
    _tracer = tracer or Tracer()
    return _tracer


def disable_tracing() -> None:
    global _tracer
    _tracer = None


def active_tracer() -> Tracer | None:
    return _tracer


def span(name: str, parent_id: int | None = None, **attrs: object):
    """A tracing span if enabled, else the shared no-op (zero overhead).

    ``parent_id`` overrides the thread-local parent, for work that
    crosses a thread boundary.
    """
    tracer = _tracer
    if tracer is None:
        return NOOP_SPAN
    return tracer.span(name, parent_id, **attrs)


def timed(name: str, **attrs: object):
    """A span that *always* measures ``seconds``.

    Used where the duration feeds a report even with tracing off (the
    extraction phase timings); the measurement is recorded as a span
    only when a tracer is active.
    """
    tracer = _tracer
    if tracer is None:
        return Stopwatch()
    return tracer.span(name, **attrs)
