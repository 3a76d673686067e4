"""Schema metadata extraction — the first stage of DBSynth's workflow.

"DBSynth connects to a source database ...; using the model creation
tool, schema information and a configurable level of additional
information of the data model are extracted" (paper §3). This module
covers the *catalog* level: tables, columns, types, primary keys,
foreign keys, and (optionally) table sizes. Statistical profiling lives
in :mod:`repro.core.profiling`.

Every phase is timed individually because the paper's §4 extraction
experiment reports per-phase latencies (schema 600 ms, sizes 1.3 s, ...);
:class:`PhaseTimings` is the structure the benchmark prints. Each phase
runs under an ``obs.timed`` span, so the same durations appear in the
trace log when tracing is enabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.db.adapter import ColumnInfo, DatabaseAdapter, ForeignKeyInfo
from repro.exceptions import ExtractionError
from repro.obs import timed


@dataclass
class ExtractedColumn:
    """One column plus its foreign-key edge, if any."""

    info: ColumnInfo
    foreign_key: ForeignKeyInfo | None = None

    @property
    def name(self) -> str:
        return self.info.name


@dataclass
class ExtractedTable:
    """Catalog view of one table."""

    name: str
    columns: list[ExtractedColumn] = field(default_factory=list)
    row_count: int | None = None

    def column(self, name: str) -> ExtractedColumn:
        for col in self.columns:
            if col.name == name:
                return col
        raise ExtractionError(f"table {self.name!r} has no column {name!r}")


@dataclass
class PhaseTimings:
    """Seconds spent per extraction phase (the §4 experiment's rows)."""

    schema_seconds: float = 0.0
    sizes_seconds: float = 0.0
    null_seconds: float = 0.0
    minmax_seconds: float = 0.0
    distinct_seconds: float = 0.0
    sampling_seconds: float = 0.0

    def total(self) -> float:
        return (
            self.schema_seconds
            + self.sizes_seconds
            + self.null_seconds
            + self.minmax_seconds
            + self.distinct_seconds
            + self.sampling_seconds
        )


@dataclass
class ExtractedSchema:
    """The full catalog extraction result."""

    source: str
    tables: list[ExtractedTable] = field(default_factory=list)
    timings: PhaseTimings = field(default_factory=PhaseTimings)

    def table(self, name: str) -> ExtractedTable:
        for table in self.tables:
            if table.name == name:
                return table
        raise ExtractionError(f"no extracted table {name!r}")

    def table_names(self) -> list[str]:
        return [t.name for t in self.tables]


class SchemaExtractor:
    """Reads catalog metadata through a database adapter."""

    def __init__(self, adapter: DatabaseAdapter) -> None:
        self.adapter = adapter

    def extract(self, include_sizes: bool = True) -> ExtractedSchema:
        """Run the basic extraction (paper §5's "basic schema extraction"
        reads only the catalog; sizes add one COUNT(*) scan per table)."""
        result = ExtractedSchema(source=getattr(self.adapter, "database", "<adapter>"))

        with timed("extraction.schema", source=result.source) as phase:
            names = self.adapter.table_names()
            if not names:
                raise ExtractionError("source database has no user tables")
            for name in names:
                table = ExtractedTable(name=name)
                fks = {fk.column: fk for fk in self.adapter.foreign_keys(name)}
                for info in self.adapter.columns(name):
                    table.columns.append(ExtractedColumn(info, fks.get(info.name)))
                result.tables.append(table)
            phase.set(tables=len(result.tables))
        result.timings.schema_seconds = phase.seconds

        if include_sizes:
            with timed("extraction.sizes", tables=len(result.tables)) as phase:
                for table in result.tables:
                    table.row_count = self.adapter.row_count(table.name)
            result.timings.sizes_seconds = phase.seconds
        return result
