"""Statistical profiling of source columns.

The "configurable level of additional information" of paper §3:
min/max constraints, NULL probabilities, distinct counts, and frequency
histograms. Profiles feed the model builder (bounds and NULL wrappers)
and the fidelity report (original-vs-synthetic comparison).
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
    """Statistics of one source column (fields are None when that
    profiling level was not requested)."""

    table: str
    column: str
    null_fraction: float | None = None
    min_value: object | None = None
    max_value: object | None = None
    distinct_count: int | None = None
    histogram: list[tuple[object, int]] | None = None

    @property
    def is_constant(self) -> bool:
        return self.distinct_count == 1


@dataclass
class ProfileOptions:
    """Which profiling levels to run."""

    null_probabilities: bool = True
    min_max: bool = True
    distinct_counts: bool = True
    histograms: bool = False
    histogram_buckets: int = 20


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

    def profile(
        self,
        extracted: ExtractedSchema,
        options: ProfileOptions | None = None,
    ) -> SchemaProfile:
        """Profile all columns, updating ``extracted.timings`` with the
        NULL-probability, min/max and distinct-count phase durations
        (the §4 rows)."""
        options = options or ProfileOptions()
        profile = SchemaProfile()

        for table in extracted.tables:
            for column in table.columns:
                profile.put(ColumnProfile(table.name, column.name))

        if options.null_probabilities:
            with timed("profiling.null_fractions") as phase:
                for table in extracted.tables:
                    for column in table.columns:
                        entry = profile.get(table.name, column.name)
                        assert entry is not None
                        entry.null_fraction = self.adapter.null_fraction(
                            table.name, column.name
                        )
            extracted.timings.null_seconds += phase.seconds

        if options.min_max:
            with timed("profiling.min_max") as phase:
                for table in extracted.tables:
                    for column in table.columns:
                        entry = profile.get(table.name, column.name)
                        assert entry is not None
                        entry.min_value, entry.max_value = self.adapter.min_max(
                            table.name, column.name
                        )
            extracted.timings.minmax_seconds += phase.seconds

        if options.distinct_counts:
            with timed("profiling.distinct_counts") as phase:
                for table in extracted.tables:
                    for column in table.columns:
                        entry = profile.get(table.name, column.name)
                        assert entry is not None
                        entry.distinct_count = self.adapter.distinct_count(
                            table.name, column.name
                        )
            extracted.timings.distinct_seconds += phase.seconds

        if options.histograms:
            with timed("profiling.histograms"):
                for table in extracted.tables:
                    for column in table.columns:
                        entry = profile.get(table.name, column.name)
                        assert entry is not None
                        entry.histogram = self.adapter.histogram(
                            table.name, column.name, options.histogram_buckets
                        )
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
