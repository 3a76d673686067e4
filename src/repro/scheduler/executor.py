"""The package body every runtime runs, and the executor-process core
the process pool and the cluster share.

:func:`run_package` is the worker loop's one body — generate a work
package, format it, measure it — called by the inline worker, the
pool worker and the cluster node alike; they differ only in where the
chunk goes next.

A pool worker and a cluster node are the same kind of thing — a child
process that receives work packages on a private queue, generates them
from the seed hierarchy, and reports on a result queue shared with its
siblings. :class:`ExecutorPool` owns everything about that which does
not depend on *which* package goes *where*:

* the child bootstrap (:class:`ChildTelemetry`: inherited collectors are
  dropped, own collectors run when the parent has any, payloads ship
  back with results and are stitched into the parent's trace, registry
  and profile);
* the slot (:class:`ExecutorSlot`: process, private queue, in-flight
  set — the private queue is what makes recovery possible, because
  ``inflight`` is exactly the work that must move when the process dies);
* the liveness poll and the one recovery routine (:meth:`_reap`): a dead
  executor's not-yet-durable work is handed back to the subclass's
  :meth:`~ExecutorPool.recover`;
* the scripted-kill discipline (:func:`die`) and the
  sentinel → drain → join → terminate → queue-close shutdown.

Dispatch *policy* is the subclass's: the process pool feeds an ordered
bounded window, the cluster feeds per-node shards and steals tails.

Wire protocol. Parent → child: a package item, or ``None`` to stop.
Child → parent: ``("package", id, key, result, telemetry)``,
``("done", id, report, telemetry)``, ``("error", id, type, text,
traceback)``.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from queue import Empty
from typing import NamedTuple

from repro import exceptions, obs
from repro.exceptions import ReproError, SchedulingError
from repro.obs import (
    WorkerTelemetry,
    active_metrics,
    active_profiler,
    active_tracer,
    span,
    span_payload,
    stitch_spans,
)
from repro.output.formats import encoded_size, format_package

#: how long the parent waits for a result before polling liveness.
POLL_SECONDS = 0.25
#: how long shutdown waits for the executors' final reports.
SHUTDOWN_SECONDS = 60.0
#: fault-injected runs abort after this long without any message: a
#: scripted kill that wedges the result stream would otherwise hang the
#: poll loop silently. Real runs use arbitrarily long packages, so the
#: watchdog only arms when a fault plan is attached.
STALL_SECONDS = 60.0


class PackageResult(NamedTuple):
    """One generated work package: the formatted ``chunk``, its encoded
    size ``nbytes``, the generate+format ``seconds`` and the formatter
    memo-cache lookups this package made. Picklable — it is also the
    executors' result message (a cluster node sends it with
    ``chunk=None``)."""

    chunk: str | bytes | None
    nbytes: int
    seconds: float
    fmt_hits: int
    fmt_misses: int


def run_package(
    engine, output, package, *, attempt: int, first: bool | None = None,
    deliver=None, **span_attrs,
) -> PackageResult:
    """Generate and format *package* under its ``scheduler.package``
    span — the one worker body of every runtime.

    ``attempt`` is 1 unless a crashed executor's package is being
    redone; ``first`` is :func:`format_package`'s. ``deliver(chunk)``,
    when given, runs inside the span but outside the timer: the inline
    worker submits to its mux there, so the
    ``sink.write`` spans stay children of the package that flushed them.
    """
    started = time.perf_counter()
    with span(
        "scheduler.package", table=package.table,
        sequence=package.sequence, rows=package.rows, attempt=attempt,
        **span_attrs,
    ) as package_span:
        chunk, fmt_hits, fmt_misses = format_package(
            engine, output, package, first=first
        )
        nbytes = encoded_size(chunk)
        seconds = time.perf_counter() - started
        package_span.set(bytes=nbytes)
        if deliver is not None:
            deliver(chunk)
    return PackageResult(chunk, nbytes, seconds, fmt_hits, fmt_misses)


def mp_context():
    """Fork where available (cheap engine inheritance), else default.

    Under spawn the engine crosses via :meth:`GenerationEngine.__reduce__`
    — pickled as its model and rebuilt in the child — so both start
    methods yield identical executors.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def die(results, exit_code: int) -> None:
    """Scripted hard kill of the calling executor process.

    Drains the result queue's feeder thread first: ``os._exit`` mid-send
    would tear a frame in the shared result pipe while holding its
    write-lock, wedging the surviving executors' sends forever. The
    fault still models "died before producing a result" — the kill just
    lands between frames.
    """
    results.close()
    results.join_thread()
    os._exit(exit_code)


class ChildTelemetry:
    """The collectors of one executor process.

    A forked child inherits copies of the parent's collectors; recording
    into them would be invisible, so they are always reset. When the
    parent had collectors active the child runs its *own* — a fresh
    tracer, registry and sampling profiler — and :meth:`export` packs
    what they gathered for the parent to merge.
    """

    def __init__(self, telemetry: WorkerTelemetry) -> None:
        obs.reset()
        self.tracer = obs.enable_tracing() if telemetry.trace else None
        self.registry = obs.enable_metrics() if telemetry.metrics else None
        self.profiler = (
            obs.enable_profiling(telemetry.profile_hz)
            if telemetry.profile else None
        )

    def export(self, final: bool = False) -> dict | None:
        """Spans finished and metric deltas since the last export; the
        *final* export also stops the profiler and adds its counts."""
        payload = {}
        if self.tracer is not None:
            payload["spans"] = span_payload(self.tracer)
        if self.registry is not None:
            payload["metrics"] = self.registry.export_deltas()
        if final and self.profiler is not None:
            self.profiler.stop()
            payload["profile"] = self.profiler.export_counts()
        return payload or None


def _executor_main(body, ident, telemetry, tasks, results, args) -> None:
    """Process entry point: bootstrap, run *body*, report or forward the
    failure — a crashing executor never kills the run silently."""
    collectors = ChildTelemetry(telemetry)
    try:
        report = body(ident, tasks, results, collectors, *args)
        results.put(("done", ident, report, collectors.export(final=True)))
    except BaseException as exc:  # fault-ok: forwarded to the parent as an error message
        results.put((
            "error", ident, type(exc).__name__, str(exc), traceback.format_exc(),
        ))


class ExecutorSlot:
    """Parent-side handle of one executor process.

    ``inflight`` maps package key → dispatched item for everything sent
    that has not come back; ``report``/``telemetry`` hold the final
    ``done`` message; ``failed`` marks a process that died without one.
    """

    __slots__ = ("ident", "process", "queue", "inflight", "done", "report",
                 "telemetry", "failed")

    def __init__(self, ident: int, queue=None) -> None:
        self.ident = ident
        self.process = None
        self.queue = queue
        self.inflight: dict = {}
        self.done = False
        self.report = None
        self.telemetry: dict | None = None
        self.failed = False


class ExecutorPool:
    """Runs executor processes until the subclass's work is finished.

    Subclasses supply the policy: :meth:`finished`, :meth:`dispatch`
    (hand out packages with :meth:`send`), :meth:`complete` (one owed
    result arrived) and :meth:`recover` (an executor died; *lost* is
    what it still held). ``tag`` names the span attribute that marks
    every stitched span with its executor id (``"node"``).
    """

    role = "executor"

    def __init__(
        self, body, args: tuple, *, parent_span_id: int | None,
        faults=None, tag: str | None = None,
    ) -> None:
        self._body = body
        self._args = args
        self._parent_span_id = parent_span_id
        self._tag = tag
        self._stall_limit = STALL_SECONDS if faults is not None else None
        self._context = mp_context()
        self._results = self._context.Queue()
        self._telemetry = WorkerTelemetry.from_active()
        self.slots: dict[int, ExecutorSlot] = {}

    # -- policy hooks --------------------------------------------------------

    def finished(self) -> bool:
        raise NotImplementedError

    def dispatch(self) -> None:
        raise NotImplementedError

    def complete(self, slot: ExecutorSlot, item, result) -> None:
        raise NotImplementedError

    def recover(self, slot: ExecutorSlot, lost: list) -> None:
        raise NotImplementedError

    # -- mechanism -----------------------------------------------------------

    def spawn(self) -> ExecutorSlot:
        """Start one more executor; ids count up from 0 and are never
        reused, so a replacement is distinguishable from the dead."""
        slot = ExecutorSlot(len(self.slots), self._context.Queue())
        slot.process = self._context.Process(
            target=_executor_main,
            args=(self._body, slot.ident, self._telemetry, slot.queue,
                  self._results, self._args),
            daemon=True,
        )
        slot.process.start()
        self.slots[slot.ident] = slot
        return slot

    def live(self) -> list[ExecutorSlot]:
        return [slot for slot in self.slots.values() if not slot.failed]

    def send(self, slot: ExecutorSlot, key, item) -> None:
        slot.inflight[key] = item
        slot.queue.put(item)

    def drive(self) -> None:
        """Dispatch and collect until :meth:`finished`, then stop every
        executor; on any failure terminate them instead."""
        try:
            quiet_since = time.monotonic()
            while not self.finished():
                self.dispatch()
                if self._step(POLL_SECONDS) or self._reap():
                    quiet_since = time.monotonic()
                elif (
                    self._stall_limit is not None
                    and time.monotonic() - quiet_since > self._stall_limit
                ):
                    owed = sorted(
                        key for slot in self.slots.values() for key in slot.inflight
                    )
                    raise SchedulingError(
                        f"{self.role}s stalled: no message for "
                        f"{self._stall_limit:.0f}s with {len(owed)} results "
                        f"owed ({owed[:8]})"
                    )
            self._collect_reports()
        except BaseException:
            for slot in self.slots.values():
                if slot.process.is_alive():
                    slot.process.terminate()
            raise
        finally:
            for slot in self.slots.values():
                slot.process.join(timeout=5.0)
                if slot.process.is_alive():  # pragma: no cover - defensive cleanup
                    slot.process.terminate()
                    slot.process.join(timeout=5.0)
                slot.queue.close()
            self._results.close()

    def _step(self, timeout: float) -> bool:
        """Handle one child message; False when none arrived in time."""
        try:
            message = self._results.get(timeout=timeout)
        except Empty:
            return False
        kind, ident = message[0], message[1]
        if kind == "error":
            _, _, name, text, trace = message
            # a ReproError keeps its class across the process boundary, so
            # ``except GenerationError`` means the same for any worker count
            error = getattr(exceptions, name, None)
            if not (isinstance(error, type) and issubclass(error, ReproError)):
                error = SchedulingError
            raise error(f"{self.role} {ident} failed: {name}: {text}\n{trace}")
        slot = self.slots[ident]
        # Merged even when the result below turns out to be a duplicate:
        # the redo work really happened and the trace should show it.
        self._merge(message[-1], ident)
        if kind == "done":
            slot.done, slot.report, slot.telemetry = True, message[2], message[3]
            return True
        _, _, key, result, _ = message
        item = slot.inflight.pop(key, None)
        if item is not None:
            self.complete(slot, item, result)
        # else: a straggler from an executor already recovered — its
        # work was handed on, and the redo produces identical bytes.
        return True

    def _merge(self, payload: dict | None, ident: int) -> None:
        if not payload:
            return
        tracer, registry, profiler = (
            active_tracer(), active_metrics(), active_profiler()
        )
        if tracer is not None:
            stitch_spans(
                tracer, payload.get("spans"), parent_id=self._parent_span_id,
                extra_attrs={self._tag: ident} if self._tag else None,
            )
        if registry is not None:
            registry.merge_deltas(payload.get("metrics"))
        if profiler is not None:
            profiler.merge_counts(payload.get("profile"))

    def _reap(self) -> bool:
        """Liveness poll. Executors only exit when told to stop, so one
        that is gone mid-run crashed: whatever it still held is not
        durable anywhere and goes back through :meth:`recover`."""
        reaped = False
        for slot in self.live():
            if slot.process.is_alive():
                continue
            while self._step(0):
                pass  # results it flushed before dying still count
            slot.failed = True
            lost = list(slot.inflight.values())
            slot.inflight.clear()
            self.recover(slot, lost)
            reaped = True
        return reaped

    def _collect_reports(self) -> None:
        """Send every executor the stop sentinel and wait for its final
        report. Reports are drained *before* the processes are joined: a
        child blocks at exit until its queue feeder has flushed."""
        waiting = self.live()
        for slot in waiting:
            slot.queue.put(None)
        deadline = time.monotonic() + SHUTDOWN_SECONDS
        while waiting and time.monotonic() < deadline:
            if not self._step(POLL_SECONDS):
                # died after its last package, before "done": its work
                # is accounted for, only its own telemetry/timers are lost.
                waiting = [slot for slot in waiting if slot.process.is_alive()]
            waiting = [slot for slot in waiting if not slot.done]
