"""Output system: the format registry, value formatting, row writers,
and sinks.

Names resolve on first use: the engine formats preview values through
:class:`~repro.output.rows.ValueFormatter` alone, and importing it does
not load the writers, the sinks or the array formatters (numpy).
"""

from repro._lazy import lazy_names

_PUBLIC = {
    "FormatSpec": "repro.output.formats",
    "format_package": "repro.output.formats",
    "format_spec": "repro.output.formats",
    "known_formats": "repro.output.formats",
    "register_format": "repro.output.formats",
    "ValueFormatter": "repro.output.rows",
    "CallbackSink": "repro.output.sinks",
    "FileSink": "repro.output.sinks",
    "GzipFileSink": "repro.output.sinks",
    "InFlightWindow": "repro.output.sinks",
    "MemorySink": "repro.output.sinks",
    "NullSink": "repro.output.sinks",
    "OrderedSinkMux": "repro.output.sinks",
    "Sink": "repro.output.sinks",
    "SQLiteSink": "repro.output.sinks",
    "CsvWriter": "repro.output.writers",
    "JsonWriter": "repro.output.writers",
    "RowWriter": "repro.output.writers",
    "SqlWriter": "repro.output.writers",
    "XmlWriter": "repro.output.writers",
}

__getattr__, __dir__ = lazy_names(__name__, _PUBLIC)

__all__ = list(_PUBLIC)
