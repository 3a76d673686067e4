"""Run-time output configuration.

The second of PDGF's two XML files configures formatting and routing
(paper §2). This is its in-memory form: which writer, writer options,
and where each table's output goes. ``kind`` selects the sink family;
``directory`` is used by file output, ``database`` by SQL loading.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.exceptions import OutputError
from repro.output.formats import format_spec
from repro.output.rows import ValueFormatter
from repro.output.sinks import (
    FileSink,
    GzipFileSink,
    MemorySink,
    NullSink,
    Sink,
    SQLiteSink,
)
from repro.output.writers import RowWriter

#: sink families — unlike formats these are a closed set owned here.
SINK_KINDS = ("file", "gzip", "null", "memory", "sqlite")


@dataclass
class OutputConfig:
    """Describes how generated rows are formatted and where they go.

    ``kind``: ``"file"``, ``"gzip"``, ``"null"``, ``"memory"``, or ``"sqlite"``.
    ``format``: ``"csv"``, ``"json"``, ``"xml"``, ``"sql"``, ``"arrow"``,
    or ``"parquet"`` (the binary formats need the optional pyarrow extra).
    Format names are case-insensitive and stored in their registry form.
    """

    kind: str = "null"
    format: str = "csv"
    directory: str = "."
    database: str = ""
    delimiter: str = "|"
    include_header: bool = False
    null_token: str = ""
    date_format: str = "%Y-%m-%d"
    timestamp_format: str = "%Y-%m-%d %H:%M:%S"
    float_places: int | None = None
    _memory_sinks: dict[str, MemorySink] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in SINK_KINDS:
            raise OutputError(
                f"unknown sink kind {self.kind!r}; "
                f"known kinds: {', '.join(SINK_KINDS)}"
            )
        spec = format_spec(self.format)  # the one unknown-format error
        self.format = spec.name
        if self.kind == "sqlite" and self.format != "sql":
            raise OutputError("sqlite sinks require format='sql'")
        if spec.binary:
            if self.kind not in ("file", "null", "memory"):
                raise OutputError(
                    f"format {self.format!r} supports file/null/memory sinks, "
                    f"not kind={self.kind!r}"
                )
            spec.require_available()  # raises OutputError without pyarrow

    def new_formatter(self) -> ValueFormatter:
        """A fresh formatter (each worker owns one; caches are not shared)."""
        return ValueFormatter(
            null_token=self.null_token,
            date_format=self.date_format,
            timestamp_format=self.timestamp_format,
            float_places=self.float_places,
        )

    def new_writer(self, table: str, columns: list[str]) -> RowWriter:
        """A fresh writer for one table, built by the format registry."""
        return format_spec(self.format).new_writer(self, table, columns)

    def use_columnar(self, writer: RowWriter) -> bool:
        """Whether *writer* formats column blocks at array level rather
        than through the default ``write_rows(block.to_rows())`` — the
        bench layer table splits its to_rows/format timing on this."""
        return writer.supports_columns

    def table_path(self, table: str) -> str:
        extension = format_spec(self.format).extension
        return os.path.join(self.directory, table + extension)

    def resume_path(self, table: str) -> str | None:
        """The file whose first ``resume_at`` bytes a resumed
        :meth:`new_sink` keeps — plain ``file`` output. ``None`` for the
        sinks that start over, keep their rows elsewhere, or resume by
        row group: there are no durable bytes to check for those."""
        if self.kind == "file" and self.format != "parquet":
            return self.table_path(table)
        return None

    def new_sink(
        self,
        table: str,
        resume_at: int | None = None,
        resume_packages: int | None = None,
    ) -> Sink:
        """A fresh sink for one table.

        ``resume_at`` is the checkpointed durable byte offset of a
        resumed run: file sinks truncate to it and append after it;
        null/memory sinks start empty (their output is ephemeral per
        run); sqlite sinks keep the already-loaded rows (skipped
        packages are already in the database); gzip sinks cannot be
        truncated mid-stream and refuse to resume. Parquet sinks ignore
        byte offsets and resume by copying the first ``resume_packages``
        durable row groups (one work package each) into a fresh file.
        """
        if self.kind == "null":
            return NullSink()
        if self.kind == "memory":
            sink = MemorySink()
            self._memory_sinks[table] = sink
            return sink
        if self.kind == "sqlite":
            if not self.database:
                raise OutputError("sqlite output needs a database path")
            return SQLiteSink(self.database)
        if self.kind == "gzip":
            if resume_at is not None:
                raise OutputError(
                    "cannot resume gzip output: compressed streams are not "
                    "truncatable; restart the run or use kind='file'"
                )
            return GzipFileSink(self.table_path(table) + ".gz")
        if self.format == "parquet":
            from repro.output.arrow import ParquetSink

            return ParquetSink(
                self.table_path(table),
                resume_packages=resume_packages if resume_at is not None else None,
            )
        return FileSink(
            self.table_path(table),
            resume_at=resume_at,
            binary=format_spec(self.format).binary,
        )

    def memory_output(self, table: str) -> str:
        """The collected output of a memory run (tests, previews)."""
        sink = self._memory_sinks.get(table)
        if sink is None:
            raise OutputError(f"no memory output captured for table {table!r}")
        return sink.getvalue()
