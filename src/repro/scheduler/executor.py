"""The package body every runtime runs, and the one multi-process
runtime behind ``-w N``.

:func:`run_package` is the worker loop's one body — generate a work
package, format it, measure it — called inline and by every executor
process alike.

An executor is a child process that receives work packages on a private
queue, generates them from the seed hierarchy (:func:`_execute`, the one
executor body), and reports on a result queue shared with its siblings.
:class:`PackagePool` owns all of it:

* the child bootstrap (:class:`ChildTelemetry`: inherited collectors are
  dropped, own collectors run when the parent has any, payloads ship
  back with results and are stitched into the parent's trace, registry
  and profile);
* the slot (:class:`ExecutorSlot`: process, private queue, in-flight
  set — the private queue is what makes recovery possible, because
  ``inflight`` is exactly the work that must move when the process dies);
* the dispatch policy: the executors drain one
  :class:`~repro.scheduler.work.ShardLedger` in sequence order through
  one bounded window into the parent's ordered muxes;
* the liveness poll and the one recovery rule: a dead executor is
  always recovered — its not-yet-delivered packages go back to the
  ledger — until more than ``max(2, N)`` have died, N being the
  executors the run started with; then the run stops;
* the scripted-kill discipline (:func:`die`) and the
  sentinel → drain → join → terminate → queue-close shutdown.

Wire protocol. Parent → child: a :class:`~repro.scheduler.work.WorkPackage`,
or ``None`` to stop.
Child → parent: ``("package", id, key, result, telemetry)``,
``("done", id, telemetry)``, ``("error", id, type, text, traceback)``.
"""

from __future__ import annotations

import os
import time
import traceback
from queue import Empty
from typing import TYPE_CHECKING, NamedTuple

from repro import exceptions, obs
from repro.exceptions import ReproError, SchedulingError
from repro.obs import active_metrics, active_profiler, active_tracer, span
from repro.output.formats import encoded_size, format_package

if TYPE_CHECKING:
    from repro.obs.stitch import WorkerTelemetry

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
    is also the executors' result message."""

    chunk: str | bytes
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
    methods yield identical executors. ``multiprocessing`` loads here,
    when a pool starts: an inline run never pays for it.
    """
    import multiprocessing

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
            payload["spans"] = obs.span_payload(self.tracer)
        if self.registry is not None:
            payload["metrics"] = self.registry.export_deltas()
        if final and self.profiler is not None:
            self.profiler.stop()
            payload["profile"] = self.profiler.export_counts()
        return payload or None


def _execute(ident, tasks, results, telemetry, engine, output, faults, starts):
    """The one executor body: run packages until the ``None`` sentinel,
    sending each chunk back to the parent.

    *engine* is the parent's bound engine: inherited under fork, rebuilt
    from its model under spawn. ``starts`` are the run's per-table first
    rows (the package starting there opens its output). ``faults`` is
    the test harness's scripted kill and slow executor.
    """
    delay = faults.node_delay(ident) if faults is not None else 0.0
    while (package := tasks.get()) is not None:
        if faults is not None and faults.should_kill(package.table, package.start):
            die(results, faults.kill_exit_code)
        result = run_package(
            engine, output, package, first=package.start == starts[package.table]
        )
        if delay:
            time.sleep(delay)
        results.put(("package", ident, package.key, result, telemetry.export()))
        # the chunk is queued: do not hold it while the next one is formatted
        del result


def _executor_main(ident, telemetry, tasks, results, args) -> None:
    """Process entry point: bootstrap, run the body, report or forward
    the failure — a crashing executor never kills the run silently."""
    collectors = ChildTelemetry(telemetry)
    try:
        _execute(ident, tasks, results, collectors, *args)
        results.put(("done", ident, collectors.export(final=True)))
    except BaseException as exc:  # fault-ok: forwarded to the parent as an error message
        results.put((
            "error", ident, type(exc).__name__, str(exc), traceback.format_exc(),
        ))


class ExecutorSlot:
    """Parent-side handle of one executor process.

    ``inflight`` maps package key → package for everything sent
    that has not come back, ``completed`` counts what has; ``done``
    marks the final ``done`` message; ``failed`` marks a process that
    died without one; ``open_spans`` links the spans it ships to parents
    it has not shipped yet (:func:`~repro.obs.stitch.stitch_spans`).
    """

    __slots__ = ("ident", "process", "queue", "inflight", "completed", "done",
                 "failed", "open_spans")

    def __init__(self, ident: int, queue=None) -> None:
        self.ident = ident
        self.process = None
        self.queue = queue
        self.inflight: dict = {}
        self.completed = 0
        self.done = False
        self.failed = False
        self.open_spans: dict[int, int] = {}


class PackagePool:
    """The one multi-process runtime: *workers* executors drain one
    :class:`~repro.scheduler.work.ShardLedger` in sequence order through
    one bounded delivery *window*; the least-loaded live executor —
    fewest packages in flight, then most delivered — takes the next
    package, and a package is cut only once a window slot is free. That caps the chunks held anywhere, however large the run.
    Every chunk comes back to the parent's per-table ordered mux
    (*muxes*), which releases the package's slot when the chunk reaches
    its sink.

    When an executor dies a replacement is spawned, and the packages the
    dead one held go back to the *front* of the ledger one attempt higher
    (generation is seed-addressed, so a redo is byte-identical and its
    spans are identifiable in the stitched trace): were they queued
    behind later packages, the window would fill with successors that
    cannot flush. A redo takes no second window slot: the lost package
    was never delivered, so its slot is handed back, and the redo —
    first in line — takes it again. A dead executor is always recovered
    until more than ``max(2, workers)`` have died (:meth:`_reap`, the
    one crash-loop cap); ``failures`` counts them.

    Every span an executor ships is stitched under *parent_span_id* and
    tagged with the executor's id as its ``node`` attribute.
    """

    def __init__(
        self, engine, output, workers: int, ledger, window, accounting, muxes, *,
        starts, faults, parent_span_id: int | None,
    ) -> None:
        self.ledger, self.window, self.accounting = ledger, window, accounting
        self.muxes = muxes
        self._args = (engine, output, faults, starts)
        self._parent_span_id = parent_span_id
        self._stall_limit = STALL_SECONDS if faults is not None else None
        self._context = mp_context()
        self._results = self._context.Queue()
        self._telemetry = obs.WorkerTelemetry.from_active()
        self.slots: dict[int, ExecutorSlot] = {}
        self.failures = 0
        self.requeued = 0
        self._crash_cap = max(2, workers)
        # the array modules every package body runs — the generators
        # import them at their block entry points — load here, before
        # the fork, so each forked executor imports nothing
        from repro import columnar  # noqa: F401
        from repro.prng import blocks  # noqa: F401

        for _ in range(workers):
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

    def drive(self) -> None:
        """Dispatch and collect until the ledger is done, then stop every
        executor; on any failure terminate them instead."""
        try:
            quiet_since = time.monotonic()
            while not self.ledger.done:
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

    def dispatch(self) -> None:
        """Send what the free window slots let the ledger cut, each
        package to the least-loaded live executor. Delivery is in order,
        so a package held by a straggler holds the window for every later
        one: among equally loaded executors the one that has delivered
        most takes it."""
        live = self.live()
        for package in self.ledger.fill(self.window.limit - self.window.in_flight):
            self.window.try_acquire()
            slot = min(live, key=lambda slot: (len(slot.inflight), -slot.completed))
            slot.inflight[package.key] = package
            slot.queue.put(package)

    def complete(self, package, result: PackageResult) -> None:
        """One owed result arrived: hand its chunk to the table's mux."""
        self.ledger.complete()
        self.muxes[package.table].submit(package.sequence, result.chunk)
        self.accounting.package(package.table, package.rows, result)

    def recover(self, lost) -> None:
        """An executor died holding *lost*: spawn a replacement and put
        them back at the front of the ledger, their slots handed back.
        The dead executor's queue may still hold undelivered items; it is
        abandoned wholesale — *lost* is authoritative. Recovery checks no
        limit: :meth:`_reap` holds the only one."""
        self.spawn()
        self.window.release(len(lost))
        self.ledger.requeue(lost)
        self.requeued += len(lost)

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
            slot.done = True
            return True
        _, _, key, result, _ = message
        item = slot.inflight.pop(key, None)
        if item is not None:
            slot.completed += 1
            self.complete(item, result)
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
            obs.stitch_spans(
                tracer, payload.get("spans"), parent_id=self._parent_span_id,
                extra_attrs={"node": slot.ident}, open_ids=slot.open_spans,
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
            self.recover(lost)
            reaped = True
        return reaped

    def _collect_reports(self) -> None:
        """Send every executor the stop sentinel and wait for its final
        telemetry. Reports are drained *before* the processes are joined:
        a child blocks at exit until its queue feeder has flushed."""
        waiting = self.live()
        for slot in waiting:
            slot.queue.put(None)
        deadline = time.monotonic() + SHUTDOWN_SECONDS
        while waiting and time.monotonic() < deadline:
            if not self._step(POLL_SECONDS):
                # died after its last package, before "done": its work
                # is accounted for, only its own telemetry is lost.
                waiting = [slot for slot in waiting if slot.process.is_alive()]
            waiting = [slot for slot in waiting if not slot.done]
