"""Output system: the format registry, value formatting, row writers,
and sinks."""

from repro.output.formats import (
    FormatSpec,
    format_package,
    format_spec,
    known_formats,
    register_format,
)
from repro.output.rows import ValueFormatter
from repro.output.sinks import (
    CallbackSink,
    FileSink,
    GzipFileSink,
    InFlightWindow,
    MemorySink,
    NullSink,
    OrderedSinkMux,
    Sink,
    SQLiteSink,
)
from repro.output.writers import (
    CsvWriter,
    JsonWriter,
    RowWriter,
    SqlWriter,
    XmlWriter,
)

__all__ = [
    "FormatSpec",
    "format_package",
    "format_spec",
    "known_formats",
    "register_format",
    "ValueFormatter",
    "CallbackSink",
    "FileSink",
    "GzipFileSink",
    "InFlightWindow",
    "MemorySink",
    "NullSink",
    "OrderedSinkMux",
    "Sink",
    "SQLiteSink",
    "CsvWriter",
    "JsonWriter",
    "RowWriter",
    "SqlWriter",
    "XmlWriter",
]
