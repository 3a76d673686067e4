"""Benchmark driver: automated query execution and analysis.

The paper's conclusion (§7) promises to "automate the complete
benchmarking process ... generate the queries consistently using PDGF
and build additional driver and analysis modules". This module is that
driver: it runs one SQL text or structured
:class:`~repro.core.queries.Query` against a target database, times it,
and grades a structured query's result against the virtual executor's
exact answer from the model: integers must be equal, floats agree to
1e-9 relative. Which queries run, and when, is the seeded stream's
business (:mod:`repro.workload`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from repro.core.queries import Query, VirtualExecutor
from repro.db.adapter import DatabaseAdapter
from repro.engine import GenerationEngine
from repro.exceptions import GenerationError


@dataclass
class QueryExecution:
    """Outcome of one query run."""

    name: str
    sql: str
    seconds: float
    rows: int
    first_row: tuple | None = None
    error: str | None = None
    # Filled when the query was graded: the model's exact answer, and
    # whether the database returned it.
    expected: dict[str, object] | None = None
    check_ok: bool | None = None

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
    def checks_graded(self) -> int:
        return sum(1 for e in self.executions if e.check_ok is not None)

    @property
    def checks_passed(self) -> int:
        return sum(1 for e in self.executions if e.check_ok)

    def summary_lines(self) -> list[str]:
        lines = []
        for execution in self.executions:
            status = "ok " if execution.succeeded else "ERR"
            check = ""
            if execution.check_ok is not None:
                check = " check=ok" if execution.check_ok else " check=MISS"
            lines.append(
                f"[{status}] {execution.name:<28} {execution.seconds * 1000:8.1f} ms "
                f"{execution.rows:6d} rows{check}"
            )
        lines.append(
            f"total: {len(self.executions)} queries in "
            f"{self.total_seconds:.3f} s; {self.failed} failed; "
            f"checks {self.checks_passed}/{self.checks_graded} exact"
        )
        return lines


class BenchmarkDriver:
    """Runs and grades queries against a target database."""

    def __init__(self, engine: GenerationEngine, adapter: DatabaseAdapter) -> None:
        self.adapter = adapter
        self._executor = VirtualExecutor(engine)

    # -- execution ---------------------------------------------------------------

    def run_sql(self, name: str, sql: str) -> QueryExecution:
        """Time one SQL text against the target (errors become results).

        The building block the workload replayer drives: no grading,
        just faithful timing and row counting.
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
        """Run a structured query and grade it against the model's exact
        answer, aggregate by aggregate in SELECT-list order."""
        execution = self.run_sql(name, query.to_sql())
        if not execution.succeeded or execution.first_row is None:
            return execution
        try:
            expected = self._executor.execute(query)
        except GenerationError:
            return execution  # a query the model cannot answer: timing only
        execution.expected = expected
        execution.check_ok = all(
            same_answer(answer, actual)
            for answer, actual in zip(expected.values(), execution.first_row)
        )
        return execution


def same_answer(answer: object, actual: object) -> bool:
    """Whether a database returned the model's *answer*: ``None`` for
    ``None``, integers exactly, other numbers to 1e-9 relative, anything
    else (dates, text) as the text the database stores."""
    if answer is None or actual is None:
        return answer is actual
    if isinstance(answer, int) and isinstance(actual, int):
        return answer == actual
    if isinstance(answer, (int, float)) and isinstance(actual, (int, float)):
        return math.isclose(answer, actual, rel_tol=1e-9)
    return str(answer) == str(actual)
