"""Fidelity verification: original vs. synthetic query comparison.

The paper's demo "verif[ies] the quality by running SQL queries on the
original data and the generated data and compar[ing] the results"
(paper §5). This module builds a default suite of graded checks from a
model — row counts, numeric averages and ranges, NULL counts — runs it
against both databases, and reports per-check relative errors.

The checks read their values from structured
:class:`~repro.core.queries.Query` objects, one per table (more for a
table wider than one statement's result columns): the query type the
virtual executor answers from the model, rendered to SQL by
:meth:`Query.to_sql` alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.queries import Aggregate, Query, _aggregate_keys
from repro.db import sqlite_adapter
from repro.db.adapter import DatabaseAdapter
from repro.exceptions import ExtractionError
from repro.model.datatypes import TypeFamily
from repro.model.schema import Schema

_NUMERIC = (TypeFamily.INTEGER, TypeFamily.FLOAT, TypeFamily.DECIMAL)


@dataclass(frozen=True)
class FidelityQuery:
    """One graded check: a value read from *query*'s answer, with a
    tolerance for its relative error.

    ``reads`` names the answer entries (:func:`_aggregate_keys`) the
    value is made of: one entry is the value, two their difference —
    ``MAX − MIN`` for a range, ``COUNT(*) − COUNT(c)`` for NULLs.
    """

    name: str
    query: Query
    reads: tuple[str, ...]
    tolerance: float = 0.15
    # Absolute slack for small-count comparisons (e.g. NULL counts on
    # small tables, where one row is a large relative error).
    absolute_slack: float = 0.0

    def value(self, answer: dict[str, object]) -> object:
        """The check's value in one answer of its query. A difference
        with a NULL side is ``None``; one with a side that is not a
        number (text in a numeric column) is the pair itself, which
        grades by equality."""
        values = tuple(answer[key] for key in self.reads)
        if len(values) == 1:
            return values[0]
        if None in values:
            return None
        if not all(isinstance(v, (int, float)) for v in values):
            return values
        return values[0] - values[1]


@dataclass
class QueryComparison:
    """Result of one check on both databases."""

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

    Count checks get a tight tolerance (sizes are modelled exactly);
    numeric aggregates get a loose one (uniform synthesis preserves the
    range, approximately the mean, but not higher moments). A table's
    checks share one :class:`Query`, cut where its aggregates would pass
    the result-column limit (no check's aggregates are split).
    """
    queries: list[FidelityQuery] = []
    for table in schema.tables:
        count = Aggregate("count")
        checks = [(f"count({table.name})", [count], count_tolerance, 0.0)]
        for f in table.fields:
            label = f"{table.name}.{f.name}"
            if f.dtype.family in _NUMERIC:
                if f.primary:
                    continue
                checks.append((f"avg({label})", [Aggregate("avg", f.name)],
                               numeric_tolerance, 0.0))
                checks.append((f"range({label})", [Aggregate("max", f.name),
                               Aggregate("min", f.name)], numeric_tolerance, 0.0))
            if f.nullable:
                checks.append((f"nulls({label})", [count, Aggregate("count", f.name)],
                               max(numeric_tolerance, 0.25), 3.0))
        query, selected = Query(table.name, []), set()
        for name, aggregates, tolerance, slack in checks:
            added = [a for a in aggregates if a not in selected]
            if len(selected) + len(added) > sqlite_adapter.RESULT_COLUMNS:
                query, selected, added = Query(table.name, []), set(), aggregates
            query.aggregates.extend(added)
            selected.update(added)
            reads = tuple(a.to_sql() for a in aggregates)
            queries.append(FidelityQuery(name, query, reads, tolerance, slack))
    return queries


def _as_number(value: object) -> float | None:
    if value is None:
        return 0.0
    try:
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return None


def _answer(adapter: DatabaseAdapter, query: Query) -> dict[str, object]:
    """*query*'s one result row on *adapter*, keyed as the virtual
    executor keys its answer."""
    row = adapter.execute(query.to_sql())[0]
    return dict(zip(_aggregate_keys(query.aggregates), row))


def _grade(
    query: FidelityQuery, original: dict[str, object], synthetic: dict[str, object]
) -> QueryComparison:
    """Grade one check on the two answers of its query."""
    orig_value, synth_value = query.value(original), query.value(synthetic)
    orig_num, synth_num = _as_number(orig_value), _as_number(synth_value)
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


def compare_query(
    query: FidelityQuery, original: DatabaseAdapter, synthetic: DatabaseAdapter
) -> QueryComparison:
    """Run one check's query on both adapters and grade the difference."""
    return _grade(query, _answer(original, query.query), _answer(synthetic, query.query))


class FidelityChecker:
    """Runs a suite of checks against original and synthetic databases."""

    def __init__(self, original: DatabaseAdapter, synthetic: DatabaseAdapter) -> None:
        self.original = original
        self.synthetic = synthetic

    def run(self, queries: list[FidelityQuery]) -> FidelityReport:
        """Grade every check; each distinct query runs once per database,
        and every check reading it is graded on that one answer."""
        if not queries:
            raise ExtractionError("fidelity check needs at least one query")
        sides = (self.original, self.synthetic)
        answers: dict[int, list[dict[str, object]]] = {}
        for q in queries:  # keyed by identity: the checks hold their queries alive
            if id(q.query) not in answers:
                answers[id(q.query)] = [_answer(side, q.query) for side in sides]
        return FidelityReport([_grade(q, *answers[id(q.query)]) for q in queries])
