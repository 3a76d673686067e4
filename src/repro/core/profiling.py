"""Statistical profiling of source columns.

The "additional information" of paper §3: NULL probabilities, min/max
constraints and distinct counts. Profiles feed the model builder
(bounds and NULL wrappers) and the fidelity report
(original-vs-synthetic comparison).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.extraction import ExtractedSchema
from repro.db.adapter import DatabaseAdapter
from repro.model.datatypes import TypeFamily, parse_type
from repro.exceptions import ModelError
from repro.obs import timed


@dataclass
class ColumnProfile:
    """Statistics of one source column (min/max are None for a column
    with no non-NULL value)."""

    table: str
    column: str
    null_fraction: float | None = None
    min_value: object | None = None
    max_value: object | None = None
    distinct_count: int | None = None

    @property
    def is_constant(self) -> bool:
        return self.distinct_count == 1


@dataclass
class SchemaProfile:
    """All column profiles keyed by ``(table, column)``."""

    columns: dict[tuple[str, str], ColumnProfile] = field(default_factory=dict)

    def get(self, table: str, column: str) -> ColumnProfile | None:
        return self.columns.get((table, column))

    def put(self, profile: ColumnProfile) -> None:
        self.columns[(profile.table, profile.column)] = profile


class DataProfiler:
    """Runs statistics queries for every column of an extraction."""

    def __init__(self, adapter: DatabaseAdapter) -> None:
        self.adapter = adapter

    def profile(self, extracted: ExtractedSchema) -> SchemaProfile:
        """Profile all columns, adding the NULL-probability, min/max and
        distinct-count phase durations (the §4 rows) to
        ``extracted.timings``."""
        profile = SchemaProfile()
        entries = [
            ColumnProfile(table.name, column.name)
            for table in extracted.tables
            for column in table.columns
        ]
        for entry in entries:
            profile.put(entry)
        adapter, timings = self.adapter, extracted.timings

        with timed("profiling.null_fractions") as phase:
            for entry in entries:
                entry.null_fraction = adapter.null_fraction(entry.table, entry.column)
        timings.null_seconds += phase.seconds

        with timed("profiling.min_max") as phase:
            for entry in entries:
                entry.min_value, entry.max_value = adapter.min_max(
                    entry.table, entry.column
                )
        timings.minmax_seconds += phase.seconds

        with timed("profiling.distinct_counts") as phase:
            for entry in entries:
                entry.distinct_count = adapter.distinct_count(entry.table, entry.column)
        timings.distinct_seconds += phase.seconds
        return profile


def family_of(type_text: str) -> TypeFamily | None:
    """The type family of a catalog type string, or None if unparsable.

    Profiling tolerates exotic types (it just skips them); modelling
    decides separately how to handle them.
    """
    try:
        return parse_type(type_text).family
    except ModelError:
        return None
