"""Single-node scheduler: work packages inline or over a process pool.

"The scheduler assigns work packages to the workers. ... Whenever a work
package is generated, it is sent to the output system, where it can be
formatted and sorted" (paper §2). Workers format their package into a
private buffer (own writer) and hand the finished chunk to the ordered
mux, which restores row order per table.

Packages come from one :class:`~repro.scheduler.work.ShardLedger`
holding the run's row ranges minus what a resumed checkpoint already
vouches for, cut on the package grid (package ``k`` is rows
``[k·P, (k+1)·P)``, its sequence ``k``). The worker count is the only
thing a caller says:

* ``workers == 1`` — the ledger is drained inline, one package after
  the other, in the calling thread (``RunReport.backend == "inline"``).
* ``workers > 1`` — that many executor processes
  (:class:`~repro.scheduler.executor.PackagePool`, the runtime cluster
  nodes run on too) drain it; finished chunks stream back to the
  parent, which writes them to the sinks in order (``"process"``).
  Seed-addressed generation makes this safe: any row is recomputable in
  any process with identical bytes.

The pool cuts packages through a bounded :class:`InFlightWindow`
(``workers + DEFAULT_INFLIGHT_EXTRA`` slots): a package is only handed
to a worker once a slot is free, and a slot is only freed when the
package's chunk reaches its sink. That caps the memory held in
finished-but-undelivered chunks regardless of table size.

Whatever dispatched it, a package runs through one body
(:func:`~repro.scheduler.executor.run_package`: the ``scheduler.package``
span with its ``package.generate``/``package.format`` children) and is
counted in one place (:class:`RunAccounting`, which feeds the
:class:`RunReport`, the per-table metrics and the progress monitor
together — also for the cluster runtime). The process pool is no
telemetry black hole: each dispatched package carries its attempt
number, workers run their own collectors and ship span buffers plus
metric deltas back on the existing result queues, and the parent
stitches them under the run span — one coherent trace whichever runtime
ran, covering respawned workers (their spans carry ``attempt=2+``).

:func:`run_node` / :func:`node_ranges` are the coordinator-free way to
scale out: every machine runs its static share of every table as an
ordinary ``Scheduler.run(row_ranges=...)``. The elastic multi-node
runtime is :class:`~repro.scheduler.cluster.ClusterScheduler`.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field

from repro.engine import GenerationEngine
from repro.exceptions import SchedulingError
from repro.generators.base import ArtifactStore
from repro.model.schema import Schema
from repro.obs import (
    active_metrics,
    active_profiler,
    active_tracer,
    span,
    throughput_mb_per_s,
)
from repro.output.config import OutputConfig
from repro.output.formats import encoded_size, table_frame
from repro.output.sinks import InFlightWindow, OrderedSinkMux, Sink, check_durable
from repro.resilience.checkpoint import (
    Part,
    RunManifest,
    chunk_digest,
    open_checkpoint,
)
from repro.resilience.faults import FaultPlan
from repro.scheduler.executor import PackagePool, PackageResult, run_package
from repro.scheduler.progress import ProgressMonitor
from repro.scheduler.work import (
    DEFAULT_PACKAGE_SIZE, ShardLedger, node_share, package_count, package_end,
)

#: per-value latency histogram bounds, ns (Figures 7-9 run 100-10000 ns)
_VALUE_LATENCY_BUCKETS_NS = (
    100.0, 250.0, 500.0, 1_000.0, 2_500.0, 5_000.0,
    10_000.0, 25_000.0, 50_000.0, 100_000.0,
)

#: extra in-flight slots beyond the worker count (the ``k`` of the
#: ``workers + k`` delivery window) — enough to keep workers busy while
#: the parent flushes, small enough to bound buffered chunks.
DEFAULT_INFLIGHT_EXTRA = 2


@dataclass(frozen=True)
class TableReport:
    """Per-table slice of a run: rows, bytes, and worker seconds.

    ``seconds`` sums the package generation time spent on this table
    across all workers (CPU-seconds, not wall clock — with N workers it
    may exceed the run's elapsed time). ``bytes_written`` includes the
    table's header/footer bytes, so table reports sum to the run total.
    """

    name: str
    rows: int
    bytes_written: int
    seconds: float

    @property
    def rows_per_second(self) -> float:
        return self.rows / self.seconds if self.seconds > 0 else 0.0

    @property
    def mb_per_second(self) -> float:
        return throughput_mb_per_s(self.bytes_written, self.seconds)


@dataclass(frozen=True)
class NodeReport:
    """Result of one node's part of a multi-node run.

    ``telemetry`` is the node's final export (the spans and metric
    deltas it had not shipped with a package result, folded profile
    counts) when the parent had collectors active, else ``None``.
    """

    node: int
    rows: int
    bytes_written: int
    seconds: float
    telemetry: dict | None = None


@dataclass(frozen=True)
class RunReport:
    """Outcome of a generation run, whichever runtime produced it.

    ``seconds`` is wall-clock from first dispatch through finish —
    footers, journal and, on the cluster, the part merge; ``workers`` is
    the pool size or the node count. ``bytes_written`` counts encoded
    bytes, header/footer included, so for file output it is the size of
    the files and the sum of ``tables``.

    The resilience fields report recovery work: ``worker_restarts``
    (dead pool workers replaced), ``requeued_packages`` (what they
    held, redone before any later package) and ``resumed_packages``
    (checkpointed packages a resumed run skipped instead of
    regenerating; their rows/bytes are included in the totals — the
    report describes the complete data set).

    ``backend`` is derived, never chosen: ``"inline"`` for one worker,
    ``"process"`` for a pool, ``"cluster"`` for a multi-node run. A
    cluster run adds the per-node rollup ``nodes`` and ``node_failures``
    (dead nodes replaced). ``steals`` is always 0: nodes share one
    package front, so there is nothing to steal; the field stays only
    for readers of the old report.

    ``profile`` is populated when a sampling profiler was active during
    the run: per-stage :class:`~repro.obs.profile.StageProfile` entries
    (largest share first) covering the parent and every executor
    process's merged samples.
    """

    rows: int
    bytes_written: int
    seconds: float
    workers: int
    tables: tuple[TableReport, ...] = field(default=())
    backend: str = "inline"
    requeued_packages: int = 0
    worker_restarts: int = 0
    resumed_packages: int = 0
    profile: tuple = ()
    nodes: tuple[NodeReport, ...] = ()
    steals: int = 0
    node_failures: int = 0

    @property
    def rows_per_second(self) -> float:
        return self.rows / self.seconds if self.seconds > 0 else 0.0

    @property
    def mb_per_second(self) -> float:
        return throughput_mb_per_s(self.bytes_written, self.seconds)

    def table(self, name: str) -> TableReport:
        for report in self.tables:
            if report.name == name:
                return report
        raise SchedulingError(f"no table {name!r} in run report")


class TableInstruments:
    """Metrics pre-bound to one table's label set (hot-path increments)."""

    __slots__ = ("columns", "rows", "bytes", "packages", "latency")

    def __init__(self, registry, table: str, columns: int) -> None:
        self.columns = columns
        self.rows = registry.counter(
            "rows_generated_total", "rows generated, per table"
        ).labels(table=table)
        self.bytes = registry.counter(
            "bytes_written_total", "formatted output bytes, per table"
        ).labels(table=table)
        self.packages = registry.counter(
            "packages_completed_total", "work packages finished, per table"
        ).labels(table=table)
        self.latency = registry.histogram(
            "value_latency_ns",
            _VALUE_LATENCY_BUCKETS_NS,
            "per-value generate+format latency sampled per package, ns",
        ).labels(table=table)

    def record_package(self, rows: int, result: PackageResult) -> None:
        """One finished package's own counters (its rows and bytes are
        credited with every other kind of output, by the accounting)."""
        self.packages.inc()
        values = rows * self.columns
        if values:
            self.latency.observe(result.seconds / values * 1e9)


class RunAccounting:
    """What one run produced, counted in one place.

    Every runtime reports the same three events — a finished
    :meth:`package`, a header/footer :meth:`frame`, a :meth:`resumed`
    durable prefix — and each is credited to the per-table rollup behind
    the :class:`RunReport`, the table's metric instruments and the
    progress monitor together, so the three cannot disagree. Sizes are
    encoded bytes throughout.
    """

    def __init__(self, engine, names, progress: ProgressMonitor | None = None):
        registry = active_metrics()
        self._lock = threading.Lock()
        self._progress = progress
        self._rollup = {name: [0, 0, 0.0] for name in names}
        self._instruments = {} if registry is None else {
            name: TableInstruments(
                registry, name, len(engine.bound_table(name).column_names)
            )
            for name in names
        }
        self.resumed_packages = 0

    def _credit(self, table: str, rows: int, nbytes: int, seconds: float = 0.0):
        with self._lock:
            rollup = self._rollup[table]
            rollup[0] += rows
            rollup[1] += nbytes
            rollup[2] += seconds
        instrument = self._instruments.get(table)
        if instrument is not None:
            if rows:
                instrument.rows.inc(rows)
            if nbytes:
                instrument.bytes.inc(nbytes)
        if self._progress is not None:
            self._progress.add(table, rows, nbytes)
        return instrument

    def package(self, table: str, rows: int, result: PackageResult) -> None:
        """A work package finished, on any executor."""
        instrument = self._credit(table, rows, result.nbytes, result.seconds)
        if instrument is not None:
            instrument.record_package(rows, result)

    def frame(self, table: str, nbytes: int) -> None:
        """Header or footer bytes: they belong to their table, so that
        table reports sum to the run total."""
        self._credit(table, 0, nbytes)

    def resumed(self, table: str, rows: int, nbytes: int, packages: int) -> None:
        """The durable part of *table* a resumed run skips (header
        included): not regenerated, but the report, the metrics and the
        progress line still describe the complete data set."""
        self.resumed_packages += packages
        instrument = self._credit(table, rows, nbytes)
        if instrument is not None and packages:
            active_metrics().counter(
                "resume_packages_skipped_total",
                "checkpointed packages skipped by a resumed run",
            ).inc(packages, table=table)

    def table(self, name: str) -> tuple[int, int]:
        """``(rows, bytes)`` credited to one table so far."""
        with self._lock:
            rows, nbytes, _ = self._rollup[name]
        return rows, nbytes

    def report(
        self, seconds: float, workers: int, backend: str, **counters
    ) -> RunReport:
        """The run's report; *counters* are the recovery and cluster
        fields only the caller's dispatch policy knows."""
        tables = tuple(
            TableReport(name, *rollup) for name, rollup in self._rollup.items()
        )
        profiler = active_profiler()
        return RunReport(
            sum(table.rows for table in tables),
            sum(table.bytes_written for table in tables),
            seconds, workers, tables, backend,
            resumed_packages=self.resumed_packages,
            profile=() if profiler is None else tuple(profiler.stage_attribution()),
            **counters,
        )


def emergency_teardown(
    exc: BaseException, journal, checkpoint: str | None, sinks=()
) -> None:
    """Best-effort teardown after SIGINT or a crash, on every runtime:
    fsync-and-close the parent's *sinks* so the last journaled watermark
    is trustworthy, mark the manifest interrupted, and keep the trace
    gathered so far next to it (``trace.partial.jsonl``)."""
    for sink in sinks:
        try:
            sink.sync()
            sink.close()
        except Exception:  # fault-ok: teardown must not mask the original failure
            pass
    if journal is not None:
        journal.interrupted(type(exc).__name__)
    # The trace writer may itself be interrupted, which is why the trace
    # readers tolerate torn final lines — the durable prefix is still
    # analyzable.
    tracer = active_tracer()
    if tracer is not None and checkpoint is not None:
        from repro.obs import write_trace_jsonl

        try:
            write_trace_jsonl(tracer, os.path.join(checkpoint, "trace.partial.jsonl"))
        except Exception:  # fault-ok: teardown must not mask the original failure
            pass


def _journal_flushes(journal, part: Part, sink: Sink, package_size: int, stop: int):
    """One table's mux ``on_flush`` hook: each chunk that reached *sink*
    — the package after the watermark, since the mux flushes in order —
    moves the table's watermark *part* and is journaled."""

    def on_flush(_sequence: int, chunk) -> None:
        sink.flush()  # first: a journaled watermark is durable
        part.grow(package_end(part.stop, stop, package_size), *chunk_digest(chunk))
        journal.record_part(part)

    return on_flush


class Scheduler:
    """Generates every table of an engine's model onto sinks.

    ``workers`` is all a caller chooses (the paper's Figure 5 sweeps
    it): one runs the packages inline, more run them on that many
    executor processes behind a delivery window of ``workers +
    DEFAULT_INFLIGHT_EXTRA`` packages; the bytes are identical either
    way. The ``backend`` attribute is the derived ``"inline"`` /
    ``"process"`` label. One sink (and one mux) exists per table;
    header/footer are written outside the package stream so parallel
    workers never touch them.

    After :meth:`run`, ``last_window`` exposes the run's
    :class:`InFlightWindow` (its ``max_in_flight`` high-water mark is
    the backpressure evidence tests and benchmarks assert on).
    """

    def __init__(
        self,
        engine: GenerationEngine,
        output: OutputConfig,
        *,
        workers: int = 1,
        package_size: int = DEFAULT_PACKAGE_SIZE,
        progress: ProgressMonitor | None = None,
        backend: str | None = None,
        checkpoint: str | None = None,
        resume_from: str | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        if workers < 1:
            raise SchedulingError(f"workers must be >= 1, got {workers}")
        # Residue: frozen bench/layers.py:395 still passes backend="process";
        # the keyword (here and in ``generate``) goes with ROADMAP 1d.
        if backend not in (None, "process"):
            raise SchedulingError(f"backend={backend!r} is gone: -w N means processes")
        self.engine = engine
        self.output = output
        self.workers = workers
        self.package_size = package_size
        self.progress = progress
        self.backend = "inline" if workers == 1 else "process"
        self.checkpoint = checkpoint
        self.resume_from = resume_from
        self.faults = faults
        self.last_window: InFlightWindow | None = None

    def run(
        self,
        tables: list[str] | None = None,
        row_ranges: dict[str, tuple[int, int]] | None = None,
    ) -> RunReport:
        """Generate *tables* (default: all), optionally restricted to
        per-table ``[start, stop)`` ranges (a node's static share, see
        :func:`run_node`).

        With ``checkpoint`` set, each table file's watermark is
        journaled to the run manifest as its packages reach the sink;
        with ``resume_from`` set, what the manifest's watermarks cover is
        skipped and only the missing tail is regenerated, byte-identical
        to an uninterrupted run.
        """
        engine = self.engine
        names = tables if tables is not None else [t.name for t in engine.schema.tables]
        sinks: list[Sink] = []
        muxes: dict[str, OrderedSinkMux] = {}
        footers: list[tuple[str, Sink, str]] = []

        accounting = RunAccounting(engine, names, self.progress)
        window = InFlightWindow(self.workers + DEFAULT_INFLIGHT_EXTRA)
        self.last_window = window

        manifest, journal = open_checkpoint(
            engine, self.output, self.package_size, names, self.backend,
            checkpoint=self.checkpoint, resume_from=self.resume_from,
            row_ranges=row_ranges,
        )
        requeued = restarts = 0

        try:
            with span(
                "scheduler.run", workers=self.workers,
                package_size=self.package_size, backend=self.backend,
            ) as run_span:
                ranges = {name: (0, engine.sizes[name]) for name in names}
                for name, (start, stop) in (row_ranges or {}).items():
                    if name in ranges:
                        stop = max(min(stop, engine.sizes[name]), start)
                        ranges[name] = start, stop
                total_rows = sum(stop - start for start, stop in ranges.values())
                marks = self._resume_marks(manifest, ranges)
                for name, (start, stop) in ranges.items():
                    part = marks.get(name)
                    header, footer = table_frame(self.output, engine, name)
                    if part is None:
                        # Fresh table, or a resumed one that crashed before
                        # its header became durable: start from the top. The
                        # first watermark is the header, no rows behind it.
                        sink = self.output.new_sink(name)
                        sinks.append(sink)
                        if header:
                            sink.write(header)
                            accounting.frame(name, encoded_size(header))
                        part = Part(
                            self._file(name), name, start,
                            bytes=encoded_size(header),
                        )
                        if journal is not None:
                            sink.flush()
                            journal.record_part(part)
                    else:
                        # The watermark is durable on disk: count it from
                        # the manifest and reopen behind it — unless the
                        # footer is durable too, then the file stands.
                        done = package_count(start, part.stop, self.package_size)
                        accounting.resumed(name, part.rows, part.bytes, done)
                        if name in manifest.done:
                            accounting.frame(name, encoded_size(footer))
                            continue
                        sink = self.output.new_sink(
                            name, resume_at=part.bytes, resume_packages=done
                        )
                        sinks.append(sink)
                    if footer:
                        footers.append((name, sink, footer))

                    on_flush = None
                    if journal is not None:
                        on_flush = _journal_flushes(
                            journal, part, sink, self.package_size, stop
                        )
                    # the next package starts at the watermark: sequence
                    # ``row // P`` on the grid
                    muxes[name] = OrderedSinkMux(
                        sink, name, window=window,
                        first_sequence=part.stop // self.package_size,
                        on_flush=on_flush,
                    )
                ledger = ShardLedger(
                    self.package_size, [(name, *ranges[name]) for name in muxes],
                    list(marks.values()),
                )
                run_span.set(
                    tables=len(names), packages=ledger.remaining,
                    rows=total_rows, resumed_packages=accounting.resumed_packages,
                )
                run_span_id = getattr(run_span, "span_id", None)

                started = time.perf_counter()
                if self.workers == 1:
                    self._run_inline(ledger, muxes, accounting, ranges)
                else:
                    pool = PackagePool(
                        engine, self.output, self.workers, ledger, window, accounting,
                        starts={name: start for name, (start, _) in ranges.items()},
                        faults=self.faults, parent_span_id=run_span_id, muxes=muxes,
                    )
                    pool.drive()
                    requeued, restarts = pool.requeued, pool.failures
                with span("scheduler.finish"):
                    for name in muxes:
                        muxes[name].finish()
                    for name, sink, footer in footers:
                        sink.write(footer)
                        accounting.frame(name, encoded_size(footer))
                    if journal is not None:
                        for name in muxes:
                            journal.table_done(name, *accounting.table(name))
                        journal.run_done()
                elapsed = time.perf_counter() - started

                for sink in sinks:
                    sink.close()
        except BaseException as exc:
            emergency_teardown(exc, journal, self.checkpoint, sinks)
            raise
        finally:
            if journal is not None:
                journal.close()

        registry = active_metrics()
        if registry is not None:
            flush_seconds = registry.counter(
                "sink_write_seconds_total", "seconds spent writing chunks to sinks"
            )
            flush_count = registry.counter(
                "sink_flushes_total", "ordered chunks flushed to sinks"
            )
            for name, mux in muxes.items():
                if mux.flushes:
                    flush_seconds.inc(mux.write_seconds, table=name)
                    flush_count.inc(mux.flushes, table=name)
            if restarts:
                registry.counter(
                    "worker_restarts_total",
                    "crashed worker processes replaced by the scheduler",
                ).inc(restarts)
            if requeued:
                registry.counter(
                    "packages_requeued_total",
                    "in-flight packages requeued after a worker crash",
                ).inc(requeued)

        return accounting.report(
            elapsed, self.workers, self.backend,
            requeued_packages=requeued, worker_restarts=restarts,
        )

    # -- resilience ----------------------------------------------------------

    def _file(self, name: str) -> str:
        """A table's output file as the manifest names it: relative to
        the output directory."""
        return os.path.basename(self.output.table_path(name))

    def _resume_marks(
        self, manifest: RunManifest | None, ranges: dict[str, tuple[int, int]]
    ) -> dict[str, Part]:
        """Each table's watermark, checked before any sink opens (a
        refused resume touches no output file): it must be a prefix of
        this run's rows that ends on one of this run's package
        boundaries — the fingerprint guards the inputs, this guards the
        manifest itself — and the file must still hold it."""
        if manifest is None:
            return {}
        tables = {self._file(name): name for name in ranges}
        marks = {}
        for file, part in manifest.parts.items():
            name = tables.get(file)
            start, stop = ranges.get(name, (0, 0))
            # no rows yet, or the package holding its last row ends there
            on_boundary = part.stop in (
                start, package_end(part.stop - 1, stop, self.package_size)
            )
            if (
                name != part.table or part.start != start
                or not start <= part.stop <= stop or not on_boundary
            ):
                raise SchedulingError(
                    f"checkpoint watermark of {file!r} — rows [{part.start}, "
                    f"{part.stop}) of table {part.table!r} — is not a prefix "
                    f"of this run's rows [{start}, {stop}) ending on a "
                    f"{self.package_size}-row package boundary; the manifest "
                    "is corrupt or was written by another runtime (--nodes)"
                )
            path = self.output.resume_path(name)
            if path is not None and name in manifest.done:
                check_durable(path, manifest.done[name][1])
            elif path is not None:
                check_durable(path, part.bytes, part.tail_bytes, part.sha256)
            marks[name] = part
        return marks

    # -- inline run ----------------------------------------------------------

    def _run_inline(self, ledger: ShardLedger, muxes, accounting, ranges) -> None:
        """Drain the ledger a package at a time, each submitted in row
        order."""
        while packages := ledger.fill(1):
            (package,) = packages
            mux = muxes[package.table]
            result = run_package(
                self.engine, self.output, package,
                first=package.start == ranges[package.table][0],
                deliver=lambda chunk: mux.submit(package.sequence, chunk),
            )
            ledger.complete()
            accounting.package(package.table, package.rows, result)


def generate(
    engine: GenerationEngine,
    output: OutputConfig | None = None,
    *,
    workers: int = 1,
    package_size: int = DEFAULT_PACKAGE_SIZE,
    tables: list[str] | None = None,
    progress: ProgressMonitor | None = None,
    backend: str | None = None,
    checkpoint: str | None = None,
    resume_from: str | None = None,
) -> RunReport:
    """One-call generation entry point (the public API convenience).

    Configuration is keyword-only since 2.0 — the 1.x positional shim
    finished its deprecation cycle and was removed.
    """
    return Scheduler(
        engine, output or OutputConfig(),
        workers=workers, package_size=package_size, progress=progress,
        backend=backend, checkpoint=checkpoint, resume_from=resume_from,
    ).run(tables)


def node_ranges(
    sizes: dict[str, int], nodes: int, node: int
) -> dict[str, tuple[int, int]]:
    """Per-table ``[start, stop)`` row ranges for one node."""
    return {table: node_share(size, nodes, node) for table, size in sizes.items()}


def run_node(
    schema: Schema,
    nodes: int,
    node: int,
    output: OutputConfig | None = None,
    artifacts: ArtifactStore | None = None,
    workers: int = 1,
    package_size: int = DEFAULT_PACKAGE_SIZE,
    checkpoint: str | None = None,
    resume_from: str | None = None,
) -> RunReport:
    """Generate one node's static share in the current process.

    The coordinator-free way to scale out (paper §4: "starting multiple
    instances and generating a distinct range of the data set with each
    instance"): same model + same node index ⇒ same share, every time,
    with no runtime between the machines. It is
    ``Scheduler.run(row_ranges=node_ranges(...))`` and nothing more.
    ``checkpoint``/``resume_from`` name a *base* directory; the node
    journals into its ``node<i>`` subdirectory, so only the nodes that
    actually died need resuming.
    """
    engine = GenerationEngine(schema, artifacts)
    # one manifest per share: the nodes' output directories are their own
    checkpoint, resume_from = (
        base and os.path.join(base, f"node{node}")
        for base in (checkpoint, resume_from)
    )
    scheduler = Scheduler(
        engine, output or OutputConfig(),
        workers=workers, package_size=package_size,
        checkpoint=checkpoint, resume_from=resume_from,
    )
    return scheduler.run(row_ranges=node_ranges(engine.sizes, nodes, node))
