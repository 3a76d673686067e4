"""Fidelity verification: original vs. synthetic query comparison.

The paper's demo "verif[ies] the quality by running SQL queries on the
original data and the generated data and compar[ing] the results"
(paper §5). This module builds a default query suite from a model
(counts, numeric aggregates, distinct counts, NULL counts, top-k group
frequencies), runs it against both databases, and reports per-query
relative errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.db.adapter import DatabaseAdapter
from repro.exceptions import ExtractionError
from repro.model.datatypes import TypeFamily
from repro.model.schema import Schema


@dataclass(frozen=True)
class FidelityQuery:
    """One comparison query with a tolerance for the relative error."""

    name: str
    sql: str
    tolerance: float = 0.15
    # Absolute slack for small-count comparisons (e.g. NULL counts on
    # small tables, where one row is a large relative error).
    absolute_slack: float = 0.0


@dataclass
class QueryComparison:
    """Result of one query on both databases."""

    query: FidelityQuery
    original: object
    synthetic: object
    relative_error: float | None
    passed: bool


@dataclass
class FidelityReport:
    """All comparisons of a verification run."""

    comparisons: list[QueryComparison] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.comparisons)

    @property
    def pass_rate(self) -> float:
        if not self.comparisons:
            return 1.0
        return sum(1 for c in self.comparisons if c.passed) / len(self.comparisons)

    def failures(self) -> list[QueryComparison]:
        return [c for c in self.comparisons if not c.passed]

    def summary_lines(self) -> list[str]:
        lines = []
        for c in self.comparisons:
            status = "ok " if c.passed else "FAIL"
            err = f"{c.relative_error:7.2%}" if c.relative_error is not None else "    n/a"
            lines.append(
                f"[{status}] {c.query.name:<45} orig={c.original!r:>14} "
                f"synth={c.synthetic!r:>14} err={err}"
            )
        return lines


def default_queries(
    schema: Schema, numeric_tolerance: float = 0.15, count_tolerance: float = 0.02
) -> list[FidelityQuery]:
    """Build the default comparison suite from a model.

    Count queries get a tight tolerance (sizes are modelled exactly);
    numeric aggregates get a loose one (uniform synthesis preserves the
    range, approximately the mean, but not higher moments).
    """
    queries: list[FidelityQuery] = []
    for table in schema.tables:
        queries.append(
            FidelityQuery(
                f"count({table.name})",
                f"SELECT COUNT(*) FROM {table.name}",
                tolerance=count_tolerance,
            )
        )
        for f in table.fields:
            family = f.dtype.family
            column = f.name
            if family in (TypeFamily.INTEGER, TypeFamily.FLOAT, TypeFamily.DECIMAL):
                if f.primary:
                    continue
                queries.append(
                    FidelityQuery(
                        f"avg({table.name}.{column})",
                        f"SELECT AVG({column}) FROM {table.name}",
                        tolerance=numeric_tolerance,
                    )
                )
                queries.append(
                    FidelityQuery(
                        f"range({table.name}.{column})",
                        f"SELECT MAX({column}) - MIN({column}) FROM {table.name}",
                        tolerance=numeric_tolerance,
                    )
                )
            if f.nullable:
                queries.append(
                    FidelityQuery(
                        f"nulls({table.name}.{column})",
                        f"SELECT SUM({column} IS NULL) FROM {table.name}",
                        tolerance=max(numeric_tolerance, 0.25),
                        absolute_slack=3.0,
                    )
                )
    return queries


def _as_number(value: object) -> float | None:
    if value is None:
        return 0.0
    try:
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return None


def compare_query(
    query: FidelityQuery,
    original: DatabaseAdapter,
    synthetic: DatabaseAdapter,
) -> QueryComparison:
    """Run one query on both adapters and grade the difference."""
    orig_rows = original.execute(query.sql)
    synth_rows = synthetic.execute(query.sql)
    orig_value = orig_rows[0][0] if orig_rows else None
    synth_value = synth_rows[0][0] if synth_rows else None

    orig_num = _as_number(orig_value)
    synth_num = _as_number(synth_value)
    if orig_num is None or synth_num is None:
        passed = orig_value == synth_value
        return QueryComparison(query, orig_value, synth_value, None, passed)
    difference = abs(synth_num - orig_num)
    if orig_num == 0.0:
        passed = difference <= max(query.tolerance, query.absolute_slack)
        return QueryComparison(query, orig_value, synth_value, difference, passed)
    error = difference / abs(orig_num)
    passed = error <= query.tolerance or difference <= query.absolute_slack
    return QueryComparison(query, orig_value, synth_value, error, passed)


class FidelityChecker:
    """Runs a query suite against original and synthetic databases."""

    def __init__(
        self, original: DatabaseAdapter, synthetic: DatabaseAdapter
    ) -> None:
        self.original = original
        self.synthetic = synthetic

    def run(self, queries: list[FidelityQuery]) -> FidelityReport:
        if not queries:
            raise ExtractionError("fidelity check needs at least one query")
        report = FidelityReport()
        for query in queries:
            report.comparisons.append(
                compare_query(query, self.original, self.synthetic)
            )
        return report

    def run_default(self, schema: Schema) -> FidelityReport:
        return self.run(default_queries(schema))
