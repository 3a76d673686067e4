"""Replay a scheduled query stream against a live database.

The §7 "driver and analysis modules" closed into a loop: a
:class:`WorkloadReplayer` takes the events of a
:class:`~repro.workload.stream.WorkloadStream` (or a previously dumped
JSONL stream), executes them through
:class:`~repro.core.driver.BenchmarkDriver`, and

* **honors arrival timestamps** — workload time is mapped onto wall
  time compressed by ``max_speedup`` (``0`` disables pacing entirely);
* **records latency** — per-template wall-time histograms go to the
  active :mod:`repro.obs` registry (p50/p95/p99 come out of the usual
  exporters), and the report keeps exact per-template quantiles;
* **interleaves CDC** — with a :class:`CdcInterleave`, update-black-box
  epoch batches are applied at evenly spaced stream boundaries, so the
  later queries run against a database the stream itself is changing
  (the ingestion-affects-queries loop);
* **grades checks** — the spec's structured queries run first, before
  any event or CDC epoch, against the database the model describes; the
  driver grades each against the virtual executor's exact answer, so a
  replay's exit status reflects every model-vs-database mismatch.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dc_field
from typing import Callable, Sequence

from repro.core.driver import BenchmarkDriver, DriverReport, QueryExecution
from repro.core.queries import Query
from repro.db.adapter import DatabaseAdapter
from repro.engine import GenerationEngine
from repro.exceptions import WorkloadError
from repro.model.schema import Schema
from repro.obs import active_metrics
from repro.update.blackbox import UpdateBlackBox
from repro.workload.stream import ScheduledQuery

#: Query wall-time histogram bounds, seconds (sub-ms to 10 s).
LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def key_column(schema: Schema, table: str) -> str | None:
    """The IdGenerator primary-key column of a table, if it has one.

    CDC batches address rows through such a key (``row + 1``); tables
    without one cannot be interleaved and are skipped.
    """
    for field in schema.table_by_name(table).fields:
        if field.primary and field.generator.name == "IdGenerator":
            return field.name
    return None


@dataclass(frozen=True)
class CdcInterleave:
    """How to weave update epochs into a replayed stream.

    ``epochs`` batches are applied at evenly spaced boundaries of the
    stream (epoch *e* after ``ceil(count · e / (epochs + 1))`` queries),
    each mutating every table in ``tables`` through the black box.
    """

    blackbox: UpdateBlackBox
    epochs: int = 1
    tables: tuple[str, ...] = ()

    def resolved_tables(self, schema: Schema) -> list[tuple[str, str]]:
        """(table, key column) pairs this interleave will mutate."""
        names = self.tables or tuple(t.name for t in schema.tables)
        out = []
        for name in names:
            key = key_column(schema, name)
            if key is None:
                if self.tables:  # explicitly requested → hard error
                    raise WorkloadError(
                        f"table {name!r} has no IdGenerator primary key; "
                        "CDC interleaving cannot address its rows"
                    )
                continue
            out.append((name, key))
        if not out:
            raise WorkloadError("no CDC-capable tables (IdGenerator keys) found")
        return out


@dataclass
class TemplateStats:
    """Exact latency statistics of one template across a replay."""

    template: str
    seconds: list[float] = dc_field(default_factory=list)
    errors: int = 0

    @property
    def count(self) -> int:
        return len(self.seconds) + self.errors

    def quantile(self, q: float) -> float:
        """Exact q-quantile of the recorded wall times (0 with none):
        nearest rank, the ``ceil(q·n)``-th smallest, a time measured."""
        if not self.seconds:
            return 0.0
        ordered = sorted(self.seconds)
        rank = min(max(math.ceil(q * len(ordered)), 1), len(ordered))
        return ordered[rank - 1]


@dataclass
class ReplayReport:
    """Everything a replayed stream produced."""

    executions: list[QueryExecution] = dc_field(default_factory=list)
    per_template: dict[str, TemplateStats] = dc_field(default_factory=dict)
    cdc_applied: list[tuple[int, str, dict]] = dc_field(default_factory=list)
    checks: DriverReport | None = None
    replay_seconds: float = 0.0

    @property
    def failed(self) -> int:
        return sum(1 for e in self.executions if not e.succeeded)

    @property
    def check_failures(self) -> int:
        if self.checks is None:
            return 0
        return self.checks.checks_graded - self.checks.checks_passed

    @property
    def ok(self) -> bool:
        """True when every query ran and every graded check passed."""
        checks_failed = 0 if self.checks is None else self.checks.failed
        return not self.failed and not checks_failed and not self.check_failures

    def summary_lines(self) -> list[str]:
        lines = [
            f"{'template':<24} {'queries':>8} {'errors':>7} "
            f"{'p50 ms':>9} {'p95 ms':>9} {'p99 ms':>9}"
        ]
        for name in sorted(self.per_template):
            stats = self.per_template[name]
            lines.append(
                f"{name:<24} {stats.count:>8} {stats.errors:>7} "
                f"{stats.quantile(0.5) * 1000:>9.2f} "
                f"{stats.quantile(0.95) * 1000:>9.2f} "
                f"{stats.quantile(0.99) * 1000:>9.2f}"
            )
        for epoch, table, counts in self.cdc_applied:
            lines.append(
                f"cdc epoch {epoch} {table}: +{counts.get('insert', 0)} "
                f"~{counts.get('update', 0)} -{counts.get('delete', 0)} rows"
            )
        lines.append(
            f"replayed {len(self.executions)} queries in "
            f"{self.replay_seconds:.3f} s; {self.failed} failed"
        )
        if self.checks is not None:
            lines.append(
                f"checks: {self.checks.checks_passed}/"
                f"{self.checks.checks_graded} exact, "
                f"{self.checks.failed} errors"
            )
        return lines


class WorkloadReplayer:
    """Executes scheduled query streams with arrival-time pacing.

    ``max_speedup`` compresses workload time: an event at ``ts`` seconds
    is issued no earlier than ``ts / max_speedup`` wall seconds after
    replay start. ``0`` (or any non-positive value) disables pacing and
    replays as fast as the database answers. ``clock``/``sleep`` are
    injectable for tests.
    """

    def __init__(
        self,
        engine: GenerationEngine,
        adapter: DatabaseAdapter,
        *,
        max_speedup: float = 0.0,
        clock: Callable[[], float] = time.perf_counter,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.schema = engine.schema
        self.driver = BenchmarkDriver(engine, adapter)
        self.adapter = adapter
        self.max_speedup = max_speedup
        self._clock = clock
        self._sleep = sleep

    def replay(
        self,
        events: Sequence[ScheduledQuery],
        checks: Sequence[tuple[str, Query]] = (),
        cdc: CdcInterleave | None = None,
    ) -> ReplayReport:
        report = ReplayReport()
        registry = active_metrics()
        histogram = counter = None
        if registry is not None:
            histogram = registry.histogram(
                "workload_query_seconds", LATENCY_BUCKETS,
                "replayed query wall time, by template",
            )
            counter = registry.counter(
                "workload_queries_total", "replayed queries, by template and status"
            )

        boundaries: list[tuple[int, int]] = []  # (event index, epoch)
        cdc_tables: list[tuple[str, str]] = []
        if cdc is not None and cdc.epochs > 0 and events:
            cdc_tables = cdc.resolved_tables(self.schema)
            total = len(events)
            boundaries = [
                (-(-total * e // (cdc.epochs + 1)), e)  # ceil division
                for e in range(1, cdc.epochs + 1)
            ]

        # Checks grade the database the model describes: before the first
        # event, so before any CDC epoch changes it.
        for name, query in checks:
            if report.checks is None:
                report.checks = DriverReport()
            report.checks.executions.append(self.driver.run_query(name, query))

        def apply_epochs(through: int) -> None:
            """Apply, in order, every epoch whose boundary is at or
            before event *through*."""
            while boundaries and boundaries[0][0] <= through:
                _, epoch = boundaries.pop(0)
                for table, key in cdc_tables:
                    counts = cdc.blackbox.apply_epoch(  # type: ignore[union-attr]
                        self.adapter, table, epoch, key
                    )
                    report.cdc_applied.append((epoch, table, counts))

        start = self._clock()
        for position, event in enumerate(events):
            apply_epochs(position)
            if self.max_speedup > 0:
                delay = event.ts / self.max_speedup - (self._clock() - start)
                if delay > 0:
                    self._sleep(delay)
            execution = self.driver.run_sql(
                f"{event.template}#{event.index}", event.sql
            )
            report.executions.append(execution)
            stats = report.per_template.get(event.template)
            if stats is None:
                stats = report.per_template[event.template] = TemplateStats(
                    event.template
                )
            if execution.succeeded:
                stats.seconds.append(execution.seconds)
            else:
                stats.errors += 1
            if histogram is not None:
                histogram.observe(execution.seconds, template=event.template)
            if counter is not None:
                counter.inc(
                    template=event.template,
                    status="ok" if execution.succeeded else "error",
                )
        apply_epochs(len(events))  # trailing boundaries: every query issued
        report.replay_seconds = self._clock() - start
        return report
