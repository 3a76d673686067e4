"""Benchmark driver: automated query execution and analysis.

The paper's conclusion (§7) promises to "automate the complete
benchmarking process ... generate the queries consistently using PDGF
and build additional driver and analysis modules". This module is that
driver: it runs one SQL text or structured
:class:`~repro.core.queries.Query` against a target database, times it,
and — where the virtual executor can predict the result — grades the
measured answer against the model's prediction. Which queries run, and
when, is the seeded stream's business (:mod:`repro.workload`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.queries import PredictedValue, Query, VirtualExecutor
from repro.db.adapter import DatabaseAdapter
from repro.exceptions import GenerationError
from repro.generators.base import ArtifactStore
from repro.model.schema import Schema


@dataclass
class QueryExecution:
    """Outcome of one query run."""

    name: str
    sql: str
    seconds: float
    rows: int
    first_row: tuple | None = None
    error: str | None = None
    # Filled when the query was predictable from the model.
    predictions: dict[str, PredictedValue] | None = None
    prediction_ok: bool | None = None

    @property
    def succeeded(self) -> bool:
        return self.error is None


@dataclass
class DriverReport:
    """All executions of a workload run."""

    executions: list[QueryExecution] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return sum(e.seconds for e in self.executions)

    @property
    def succeeded(self) -> int:
        return sum(1 for e in self.executions if e.succeeded)

    @property
    def failed(self) -> int:
        return len(self.executions) - self.succeeded

    @property
    def predictions_checked(self) -> int:
        return sum(1 for e in self.executions if e.prediction_ok is not None)

    @property
    def predictions_passed(self) -> int:
        return sum(1 for e in self.executions if e.prediction_ok)

    def summary_lines(self) -> list[str]:
        lines = []
        for execution in self.executions:
            status = "ok " if execution.succeeded else "ERR"
            check = ""
            if execution.prediction_ok is not None:
                check = " pred=ok" if execution.prediction_ok else " pred=MISS"
            lines.append(
                f"[{status}] {execution.name:<28} {execution.seconds * 1000:8.1f} ms "
                f"{execution.rows:6d} rows{check}"
            )
        lines.append(
            f"total: {len(self.executions)} queries in "
            f"{self.total_seconds:.3f} s; {self.failed} failed; "
            f"predictions {self.predictions_passed}/{self.predictions_checked} ok"
        )
        return lines


class BenchmarkDriver:
    """Runs and grades queries against a target database."""

    def __init__(
        self,
        schema: Schema,
        adapter: DatabaseAdapter,
        artifacts: ArtifactStore | None = None,
    ) -> None:
        self.schema = schema
        self.adapter = adapter
        self.artifacts = artifacts or ArtifactStore()
        self._executor = VirtualExecutor(schema, self.artifacts)

    # -- execution ---------------------------------------------------------------

    def run_sql(self, name: str, sql: str) -> QueryExecution:
        """Time one SQL text against the target (errors become results).

        The building block the workload replayer drives: no prediction
        grading, just faithful timing and row counting.
        """
        start = time.perf_counter()
        try:
            rows = self.adapter.execute(sql)
        except Exception as exc:  # adapter errors become per-query results
            return QueryExecution(
                name, sql, time.perf_counter() - start, 0, error=str(exc)
            )
        seconds = time.perf_counter() - start
        return QueryExecution(
            name, sql, seconds, len(rows),
            first_row=tuple(rows[0]) if rows else None,
        )

    def run_query(self, name: str, query: Query) -> QueryExecution:
        """Run a structured query and grade it against the model."""
        execution = self.run_sql(name, query.to_sql())
        if not execution.succeeded or execution.first_row is None:
            return execution
        try:
            predictions = self._executor.predict(query)
        except GenerationError:
            return execution  # not predictable; timing-only result
        execution.predictions = predictions
        execution.prediction_ok = True
        # predict() yields one entry per aggregate in SELECT-list order
        # (duplicate renderings disambiguated), so grading is positional:
        # prediction i is compared against result column i.
        for predicted, actual in zip(predictions.values(), execution.first_row):
            if actual is None:
                continue
            value = float(actual)
            if predicted.value is None:
                continue
            if value == 0:
                ok = abs(predicted.value) <= max(predicted.tolerance, 1.0)
            else:
                ok = abs(predicted.value - value) / abs(value) <= max(
                    predicted.tolerance, 0.12
                )
            if not ok:
                execution.prediction_ok = False
        return execution
