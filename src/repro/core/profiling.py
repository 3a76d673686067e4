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


#: the most distinct values a dictionary holds; a distinct count is
#: exact up to it, and the count's scan stops one value past it
DICTIONARY_MAX_DISTINCT = 1000


@dataclass
class ColumnProfile:
    """Statistics of one source column (min/max are None for a column
    with no non-NULL value). ``distinct_count`` is exact up to
    :data:`DICTIONARY_MAX_DISTINCT`; a column with more distinct values
    reads ``DICTIONARY_MAX_DISTINCT + 1``."""

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
    """Runs the statistics queries of an extraction, one table at a
    time: a NULL statement and a MIN/MAX statement per table (more for a
    table wider than one statement's columns) and a capped distinct
    count per column."""

    def __init__(self, adapter: DatabaseAdapter) -> None:
        self.adapter = adapter

    def profile(self, extracted: ExtractedSchema) -> SchemaProfile:
        """Profile all columns, adding the NULL-probability, min/max and
        distinct-count phase durations (the §4 rows) to
        ``extracted.timings``."""
        profile = SchemaProfile()
        columns = {
            table.name: [column.name for column in table.columns]
            for table in extracted.tables
        }
        for table, names in columns.items():
            for name in names:
                profile.put(ColumnProfile(table, name))
        adapter, timings = self.adapter, extracted.timings

        with timed("profiling.null_fractions") as phase:
            for table, names in columns.items():
                for name, fraction in zip(names, adapter.null_fractions(table, names)):
                    profile.columns[table, name].null_fraction = fraction
        timings.null_seconds += phase.seconds

        with timed("profiling.min_max") as phase:
            for table, names in columns.items():
                for name, (low, high) in zip(names, adapter.bounds(table, names)):
                    entry = profile.columns[table, name]
                    entry.min_value, entry.max_value = low, high
        timings.minmax_seconds += phase.seconds

        with timed("profiling.distinct_counts") as phase:
            for table, names in columns.items():
                counts = adapter.distinct_counts(table, names, DICTIONARY_MAX_DISTINCT)
                for name, count in zip(names, counts):
                    profile.columns[table, name].distinct_count = count
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
