"""The output format registry — the single format → writer + MIME map.

Every consumer of an output format name resolves it here: the CLI's
``--format`` choices, :class:`~repro.output.config.OutputConfig`
validation, the writers' lookup, the ``Dataset`` slicing API, and the
``dbsynth serve`` HTTP responses (which need the MIME type). Before the
registry existed those call sites each carried their own accepted-format
list and the lists drifted; now there is exactly one
:class:`FormatSpec` per format and one :class:`~repro.exceptions.
OutputError` (listing the valid set) for an unknown name.

A spec records everything format-generic code needs to know:

* ``writer_class()`` — the :class:`~repro.output.writers.RowWriter`
  subclass, loaded lazily so optional-dependency writers (Arrow) never
  cost an import for text-format users;
* ``mime_type`` / ``extension`` — HTTP and file naming;
* ``binary`` — chunks are ``bytes`` (Arrow IPC framing), not text;
* ``columnar_only`` — no row-text form exists, so slices must align to
  work-package boundaries;
* ``requires_pyarrow`` — gate on the optional extra with a clear error.

:func:`format_package` lives here too: the one generate+format code
path for a work package, shared by every scheduler runtime (through
:func:`repro.scheduler.executor.run_package`), ``Dataset.slice``, and
the serve subsystem — which is what makes a served slice byte-identical
to the batch run's output; :func:`table_frame` is its counterpart for
the header and footer around the packages.
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.exceptions import OutputError
from repro.obs import span
from repro.output.writers import (
    CsvWriter,
    JsonWriter,
    RowWriter,
    SqlWriter,
    XmlWriter,
)


def _load_arrow_writer() -> type[RowWriter]:
    from repro.output.arrow import ArrowWriter

    return ArrowWriter


def _csv_options(config) -> dict:
    return {
        "delimiter": config.delimiter,
        "include_header": config.include_header,
    }


class FormatSpec:
    """One registered output format: writer, MIME type, and traits."""

    __slots__ = (
        "name",
        "mime_type",
        "extension",
        "binary",
        "columnar_only",
        "requires_pyarrow",
        "_loader",
        "_options",
    )

    def __init__(
        self,
        name: str,
        mime_type: str,
        extension: str,
        loader: Callable[[], type[RowWriter]],
        *,
        binary: bool = False,
        columnar_only: bool = False,
        requires_pyarrow: bool = False,
        options: Callable[[object], dict] | None = None,
    ) -> None:
        self.name = name
        self.mime_type = mime_type
        self.extension = extension
        self.binary = binary
        self.columnar_only = columnar_only
        self.requires_pyarrow = requires_pyarrow
        self._loader = loader
        self._options = options

    def writer_class(self) -> type[RowWriter]:
        """The writer class (imported lazily for optional-dep formats)."""
        return self._loader()

    def require_available(self) -> None:
        """Raise :class:`OutputError` when an optional dep is missing."""
        if self.requires_pyarrow:
            from repro.output.arrow import require_pyarrow

            require_pyarrow(f"{self.name} output")

    def new_writer(self, config, table: str, columns: list[str]) -> RowWriter:
        """A fresh writer configured from an :class:`OutputConfig`."""
        extra = self._options(config) if self._options is not None else {}
        return self.writer_class()(
            table, list(columns), config.new_formatter(), **extra
        )


_REGISTRY: dict[str, FormatSpec] = {}


def register_format(spec: FormatSpec) -> FormatSpec:
    """Add a format to the registry (idempotent per name)."""
    if spec.name in _REGISTRY:
        raise OutputError(f"output format {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    return spec


def format_spec(name: str) -> FormatSpec:
    """Resolve a format name, or raise the one canonical unknown-format
    error (it spells out the valid set)."""
    try:
        return _REGISTRY[str(name).lower()]
    except KeyError:
        raise OutputError(
            f"unknown output format {name!r}; "
            f"known formats: {', '.join(known_formats())}"
        ) from None


def known_formats() -> tuple[str, ...]:
    """Every registered format name, sorted."""
    return tuple(sorted(_REGISTRY))


register_format(FormatSpec(
    "csv", "text/csv; charset=utf-8", ".tbl",
    lambda: CsvWriter, options=_csv_options,
))
register_format(FormatSpec(
    "json", "application/x-ndjson", ".json", lambda: JsonWriter,
))
register_format(FormatSpec(
    "xml", "application/xml; charset=utf-8", ".xml", lambda: XmlWriter,
))
register_format(FormatSpec(
    "sql", "application/sql; charset=utf-8", ".sql", lambda: SqlWriter,
))
register_format(FormatSpec(
    "arrow", "application/vnd.apache.arrow.stream", ".arrow",
    _load_arrow_writer, binary=True, columnar_only=True,
    requires_pyarrow=True, options=lambda config: {"mode": "stream"},
))
register_format(FormatSpec(
    "parquet", "application/vnd.apache.parquet", ".parquet",
    _load_arrow_writer, binary=True, columnar_only=True,
    requires_pyarrow=True, options=lambda config: {"mode": "parquet"},
))


#: writers kept per bound table — one per set of format options in use.
#: A run has one; a server a few (``?format=`` times the slice options).
_WRITERS_PER_TABLE = 8

_writers_lock = threading.Lock()

#: the ``OutputConfig`` options that change the formatted bytes: what
#: keys a kept writer, and what a checkpoint fingerprints.
BYTE_OPTIONS = (
    "format", "delimiter", "include_header", "null_token",
    "date_format", "timestamp_format", "float_places",
)


def _bound_writer(bound, output) -> RowWriter:
    """The writer of *output*'s format and options for one bound table,
    kept on the table so its rendered text (the formatter memo, the
    column formatter's day map — both bounded by ``cache_limit``)
    outlives the package: lazy formatting then holds across the packages
    of a run, of a pool worker or cluster node, and across serve
    requests on a cached engine. The oldest writer goes when a table has
    seen more than ``_WRITERS_PER_TABLE`` option sets.
    """
    key = (type(output), *(getattr(output, name) for name in BYTE_OPTIONS))
    writers = bound.writers
    writer = writers.get(key)
    if writer is None:
        writer = output.new_writer(bound.table.name, bound.column_names)
        with _writers_lock:  # serve threads share the engine
            while len(writers) >= _WRITERS_PER_TABLE:
                del writers[next(iter(writers))]
            writers[key] = writer
    return writer


def format_package(engine, output, package, *, first: bool | None = None):
    """Generate and format one work package — the shared worker body.

    Every scheduler runtime, ``Dataset.slice``, and the serve subsystem
    produce chunks through this one path, so the same ``(model, output
    config, package)`` triple yields the same bytes wherever it is
    computed.
    ``first`` defaults to ``package.sequence == 0`` — binary writers
    emit stream framing (the Arrow schema message) exactly once, in the
    first package's chunk.

    Returns ``(chunk, hits, misses)``: the formatter memo-cache lookups
    this package made, as deltas off the table's long-lived writer
    (:func:`_bound_writer`).
    """
    if first is None:
        first = package.sequence == 0
    bound = engine.bound_table(package.table)
    writer = _bound_writer(bound, output)
    formatter = writer.formatter
    hits, misses = formatter.cache_hits, formatter.cache_misses
    ctx = engine.new_context(package.table)
    with span("package.generate", table=package.table):
        block = bound.generate_columns(package.start, package.stop, ctx)
    with span("package.format", table=package.table):
        chunk = writer.write_block(block, first=first)
    return chunk, formatter.cache_hits - hits, formatter.cache_misses - misses


def table_frame(output, engine, table: str):
    """``(header, footer)`` of one table's output — what surrounds the
    package stream, empty when the format has none. The one place a
    probe writer is asked for them, so the batch schedulers, the cluster
    merge and ``Dataset.stream`` cannot frame a table differently."""
    writer = _bound_writer(engine.bound_table(table), output)
    return writer.header(), writer.footer()


def encoded_size(chunk) -> int:
    """Bytes *chunk* occupies in an output file: its length for
    ``bytes`` and for ASCII text (``str.isascii`` reads a flag, it does
    not scan), the UTF-8 length otherwise."""
    if isinstance(chunk, bytes) or chunk.isascii():
        return len(chunk)
    return len(chunk.encode("utf-8"))
