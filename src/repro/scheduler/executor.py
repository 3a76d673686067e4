"""The package body every runtime runs, and the one multi-process
runtime behind ``-w N`` and ``--nodes N``.

:func:`run_package` is the worker loop's one body — generate a work
package, format it, measure it — called inline and by every executor
process alike; they differ only in where the chunk goes next.

An executor is a child process that receives work packages on a private
queue, generates them from the seed hierarchy (:func:`_execute`, the one
executor body), and reports on a result queue shared with its siblings.
:class:`ExecutorPool` owns everything about that which does not depend
on *which* package goes *where*:

* the child bootstrap (:class:`ChildTelemetry`: inherited collectors are
  dropped, own collectors run when the parent has any, payloads ship
  back with results and are stitched into the parent's trace, registry
  and profile);
* the slot (:class:`ExecutorSlot`: process, private queue, in-flight
  set — the private queue is what makes recovery possible, because
  ``inflight`` is exactly the work that must move when the process dies);
* the liveness poll and the one recovery rule (:meth:`_reap`): a dead
  executor is always recovered — its not-yet-durable work is handed
  back to the subclass's :meth:`~ExecutorPool.recover` — until more
  than ``max(2, N)`` have died, N being the executors the run started
  with; then the run stops with one message on every runtime;
* the scripted-kill discipline (:func:`die`) and the
  sentinel → drain → join → terminate → queue-close shutdown.

Dispatch *policy* is :class:`PackagePool`'s, its one subclass: the
executors drain one :class:`~repro.scheduler.work.ShardLedger` in
sequence order through one bounded window, and ``-w N`` and ``--nodes N``
differ only in where the bytes land — the parent's ordered mux, or each
executor's own part files that the parent merges.

Wire protocol. Parent → child: a :class:`~repro.scheduler.work.WorkPackage`,
or ``None`` to stop.
Child → parent: ``("package", id, key, result, telemetry)``,
``("done", id, report, telemetry)``, ``("error", id, type, text,
traceback)``.
"""

from __future__ import annotations

import contextlib
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
from repro.output.sinks import FileSink, NullSink
from repro.scheduler.work import WorkPackage, _Part, part_file

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
    size ``nbytes`` and the generate+format ``seconds``. Picklable — it
    is also the executors' result message (an executor writing part
    files sends it with ``chunk=None``)."""

    chunk: str | bytes | None
    nbytes: int
    seconds: float


def run_package(
    engine, output, package, *, first: bool, deliver=None, **span_attrs,
) -> PackageResult:
    """Generate and format *package* under its ``scheduler.package``
    span — the one worker body of every runtime.

    The span carries the package's ``attempt`` (1 unless a crashed
    executor's package is being redone); ``first`` — this package opens
    its output — is :func:`format_package`'s. ``deliver(chunk)``,
    when given, runs inside the span but outside the timer: the inline
    worker submits to its mux there, so the
    ``sink.write`` spans stay children of the package that flushed them.
    """
    started = time.perf_counter()
    with span(
        "scheduler.package", table=package.table,
        sequence=package.sequence, rows=package.rows, attempt=package.attempt,
        **span_attrs,
    ) as package_span:
        chunk = format_package(engine, output, package, first=first)
        nbytes = encoded_size(chunk)
        seconds = time.perf_counter() - started
        package_span.set(bytes=nbytes)
        if deliver is not None:
            deliver(chunk)
    return PackageResult(chunk, nbytes, seconds)


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


class _OpenPart(_Part):
    """Executor side of a part: its sink and its ``node.assignment`` span."""

    __slots__ = ("sink", "_span")

    def __init__(self, output, first: WorkPackage) -> None:
        super().__init__(first)
        self.sink = NullSink()
        if output.kind == "file":
            self.sink = FileSink(os.path.join(output.directory, self.file))
        self._span = span(
            "node.assignment", table=first.table, start=first.start,
            attempt=first.attempt,
        ).__enter__()

    def close(self) -> None:
        self.sink.close()
        self._span.set(stop=self.stop, rows=self.rows, bytes=self.bytes)
        self._span.__exit__(None, None, None)


def _execute(ident, tasks, results, telemetry, engine, output, faults, starts, parts):
    """The one executor body: run packages until the ``None`` sentinel.

    *engine* is the parent's bound engine: inherited under fork, rebuilt
    from its model under spawn. ``starts`` are the run's per-table first
    rows (the package starting there opens its output). With *parts*
    (``--nodes``) the chunk is appended to the open part file — a new
    part whenever the package does not continue the previous one —
    flushed, and only its size reported, so what the parent counts never
    overstates a part file; otherwise the chunk itself goes back.
    ``faults`` is the test harness's scripted kill and slow node.
    """
    delay = faults.node_delay(ident) if faults is not None else 0.0
    part: _OpenPart | None = None
    started = time.perf_counter()
    with span("meta.node", node=ident) if parts else contextlib.nullcontext():
        while (package := tasks.get()) is not None:
            if faults is not None and faults.should_kill(package.table, package.start):
                die(results, faults.kill_exit_code)
            if parts and (part is None or not part.continues(package)):
                if part is not None:
                    part.close()
                part = _OpenPart(output, package)
            result = run_package(
                engine, output, package, first=package.start == starts[package.table]
            )
            if delay:
                time.sleep(delay)
            if parts:
                part.sink.write(result.chunk)
                part.sink.flush()
                part.grow(package.stop, result.nbytes)
                # the chunk stays here; dropping it now also keeps it from
                # staying alive while the next package is formatted
                result = result._replace(chunk=None)
            results.put(("package", ident, package.key, result, telemetry.export()))
        if part is not None:
            part.close()
    return {"seconds": time.perf_counter() - started}


def _executor_main(ident, telemetry, tasks, results, args) -> None:
    """Process entry point: bootstrap, run the body, report or forward
    the failure — a crashing executor never kills the run silently."""
    collectors = ChildTelemetry(telemetry)
    try:
        report = _execute(ident, tasks, results, collectors, *args)
        results.put(("done", ident, report, collectors.export(final=True)))
    except BaseException as exc:  # fault-ok: forwarded to the parent as an error message
        results.put((
            "error", ident, type(exc).__name__, str(exc), traceback.format_exc(),
        ))


class ExecutorSlot:
    """Parent-side handle of one executor process.

    ``inflight`` maps package key → package for everything sent
    that has not come back; ``report``/``telemetry`` hold the final
    ``done`` message; ``failed`` marks a process that died without one;
    ``open_spans`` links the spans it ships to parents it has not shipped
    yet (:func:`~repro.obs.stitch.stitch_spans`).
    """

    __slots__ = ("ident", "process", "queue", "inflight", "done", "report",
                 "telemetry", "failed", "open_spans")

    def __init__(self, ident: int, queue=None) -> None:
        self.ident = ident
        self.process = None
        self.queue = queue
        self.inflight: dict = {}
        self.done = False
        self.report = None
        self.telemetry: dict | None = None
        self.failed = False
        self.open_spans: dict[int, int] = {}


class ExecutorPool:
    """Runs executor processes until the subclass's work is finished.

    The subclass supplies the policy over its
    :class:`~repro.scheduler.work.ShardLedger`: ``finished()`` (the
    ledger is done), ``dispatch()`` (send what ``ledger.fill`` cuts with
    :meth:`send`), ``complete(slot, package, result)`` (one owed result
    arrived) and ``recover(slot, lost)`` (an executor died; *lost* are
    the packages it still held, which go back to the ledger one attempt
    higher — recovery checks no limit, :meth:`_reap` holds the only
    one). ``failures`` counts the dead executors; *executors*, the
    number started, sets the crash-loop cap. ``tag`` names the span
    attribute that marks every stitched span with its executor id
    (``"node"``). *args* follow the executor body's own four.
    """

    def __init__(
        self, args: tuple, executors: int, *, parent_span_id: int | None,
        faults=None, tag: str | None = None,
    ) -> None:
        self._args = args
        self._parent_span_id = parent_span_id
        self._tag = tag
        self._stall_limit = STALL_SECONDS if faults is not None else None
        self._context = mp_context()
        self._results = self._context.Queue()
        self._telemetry = WorkerTelemetry.from_active()
        self.slots: dict[int, ExecutorSlot] = {}
        self.failures = 0
        self._crash_cap = max(2, executors)
        for _ in range(executors):
            self.spawn()

    def spawn(self) -> None:
        """Start one more executor; ids count up from 0 and are never
        reused, so a replacement is distinguishable from the dead."""
        slot = ExecutorSlot(len(self.slots), self._context.Queue())
        slot.process = self._context.Process(
            target=_executor_main,
            args=(slot.ident, self._telemetry, slot.queue, self._results, self._args),
            daemon=True,
        )
        slot.process.start()
        self.slots[slot.ident] = slot

    def live(self) -> list[ExecutorSlot]:
        return [slot for slot in self.slots.values() if not slot.failed]

    def send(self, slot: ExecutorSlot, package) -> None:
        slot.inflight[package.key] = package
        slot.queue.put(package)

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
                        f"executors stalled: no message for "
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
                # The executor is gone, so nothing left in its queue
                # matters — and joining the queue's feeder thread at exit
                # can hang forever: a Ctrl-C landing inside put()'s
                # Condition.notify() leaves a stale waiter that close()'s
                # wake-up is then spent on.
                slot.queue.cancel_join_thread()
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
            raise error(f"executor {ident} failed: {name}: {text}\n{trace}")
        slot = self.slots[ident]
        # Merged even when the result below turns out to be a duplicate:
        # the redo work really happened and the trace should show it.
        self._merge(message[-1], slot)
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

    def _merge(self, payload: dict | None, slot: ExecutorSlot) -> None:
        if not payload:
            return
        tracer, registry, profiler = (
            active_tracer(), active_metrics(), active_profiler()
        )
        if tracer is not None:
            stitch_spans(
                tracer, payload.get("spans"), parent_id=self._parent_span_id,
                extra_attrs={self._tag: slot.ident} if self._tag else None,
                open_ids=slot.open_spans,
            )
        if registry is not None:
            registry.merge_deltas(payload.get("metrics"))
        if profiler is not None:
            profiler.merge_counts(payload.get("profile"))

    def _reap(self) -> bool:
        """Liveness poll. Executors only exit when told to stop, so one
        that is gone mid-run crashed: whatever it still held is not
        durable anywhere and goes back through :meth:`recover` — unless
        deaths have passed the cap, which stops a crash loop (the
        checkpoint, if any, then resumes the run)."""
        reaped = False
        for slot in self.live():
            if slot.process.is_alive():
                continue
            while self._step(0):
                pass  # results it flushed before dying still count
            slot.failed = True
            self.failures += 1
            if self.failures > self._crash_cap:
                raise SchedulingError(
                    f"{self.failures} executor deaths exceed the limit of "
                    f"{self._crash_cap} (last exit code "
                    f"{slot.process.exitcode}); refusing to respawn a crash loop"
                )
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


class PackagePool(ExecutorPool):
    """The one multi-process runtime: *workers* executors drain one
    :class:`~repro.scheduler.work.ShardLedger` in sequence order through
    one bounded delivery *window*; the least-loaded live executor takes
    the next package, and a package is cut only once a window slot is
    free. That caps the chunks held anywhere, however large the run.

    Where the bytes land is the only difference between ``-w N`` and
    ``--nodes N``. With *muxes* (``-w N``) every chunk comes back to the
    parent's per-table ordered mux, which releases the package's slot
    when the chunk reaches its sink. Without them (``--nodes N``) each
    executor appends its chunks to its own part files and reports only
    their size; the slot is released on that report, the grown part
    journaled, and the caller merges the parts when the ledger is done.

    When an executor dies a replacement is spawned, and the packages the
    dead one held go back to the *front* of the ledger one attempt higher
    (generation is seed-addressed, so a redo is byte-identical and its
    spans are identifiable in the stitched trace): were they queued
    behind later packages, the window would fill with successors that
    cannot flush. A redo takes no second window slot: the lost package
    was never delivered, so its slot is handed back, and the redo —
    first in line — takes it again. The dead executor's part files are
    cut back to what it reported first. The crash-loop cap is
    :class:`ExecutorPool`'s.
    """

    def __init__(
        self, engine, output, workers: int, ledger, window, accounting, *,
        starts, faults, parent_span_id: int | None, muxes=None, journal=None,
    ) -> None:
        parts = muxes is None
        super().__init__(
            (engine, output, faults, starts, parts), workers,
            parent_span_id=parent_span_id, faults=faults,
            tag="node" if parts else None,
        )
        self.ledger, self.window, self.accounting = ledger, window, accounting
        self.muxes, self.journal = muxes, journal
        #: where the part files live (``None``: none are kept)
        self.directory = output.directory if parts and output.kind == "file" else None
        self.requeued = 0

    def finished(self) -> bool:
        return self.ledger.done

    def dispatch(self) -> None:
        live = self.live()
        for package in self.ledger.fill(self.window.limit - self.window.in_flight):
            self.window.try_acquire()
            self.send(min(live, key=lambda slot: len(slot.inflight)), package)

    def complete(self, slot, package, result) -> None:
        if self.muxes is not None:
            self.ledger.complete()
            self.muxes[package.table].submit(package.sequence, result.chunk)
        else:
            part = self.ledger.complete_part(slot.ident, package, result.nbytes)
            if self.journal is not None:
                self.journal.record_part(part)
            self.window.release()
        self.accounting.package(package.table, package.rows, result)

    def recover(self, slot, lost) -> None:
        # The dead executor's queue may still hold undelivered items;
        # abandon it wholesale — ``lost`` is authoritative.
        if self.directory is not None:
            parts = self.ledger.parts.get(slot.ident, [])
            cut_back(self.directory, parts)
            known = {part.file for part in parts}
            for package in lost:
                # a part opened for a package never reported goes: the
                # redo regenerates its rows
                file = part_file(*package.key)
                path = os.path.join(self.directory, file)
                if file not in known and os.path.exists(path):
                    os.remove(path)
        self.spawn()
        self.window.release(len(lost))
        self.ledger.requeue(lost)
        self.requeued += len(lost)


def cut_back(directory: str, parts) -> None:
    """Cut the part files under *directory* back to what *parts* count:
    reopening at an offset truncates to it, and refuses a file shorter
    than what was reported durable."""
    for part in parts:
        FileSink(os.path.join(directory, part.file), resume_at=part.bytes).close()
