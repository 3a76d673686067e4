"""Row writers: CSV, JSON, XML, and SQL output formats.

PDGF "can write data in various formats (e.g., CSV, JSON, XML, and SQL)"
(paper §1). A writer turns a block of one table's values into output
text; sinks decide where the text goes. ``write_row`` is the scalar
oracle of each format; CSV, JSON and SQL format whole column blocks
through :mod:`repro.output.columnar`. A writer's only state is rendered
text — its :class:`~repro.output.rows.ValueFormatter` memo and the
column formatter's day map — so it is kept for as long as its bound
table (:func:`repro.output.formats.format_package`), one per process.
"""

from __future__ import annotations

import abc
import functools
import json
import math
from json.encoder import encode_basestring

from repro.exceptions import OutputError
from repro.output.columnar import (
    _CsvTexts,
    _format_block,
    _JsonTexts,
    _SqlTexts,
    csv_escape,
    format_csv_block,
)
from repro.output.rows import ValueFormatter


class RowWriter(abc.ABC):
    """Formats rows of one table into text chunks."""

    #: registry name used by output configuration files
    format_name: str = ""

    #: True when :meth:`write_block` formats columns at array level
    #: (or, for binary formats, *requires* column blocks)
    supports_columns: bool = False

    def __init__(
        self,
        table: str,
        columns: list[str],
        formatter: ValueFormatter | None = None,
    ) -> None:
        self.table = table
        self.columns = list(columns)
        self.formatter = formatter or ValueFormatter()

    def header(self) -> str:
        """Text emitted once before the first row (may be empty)."""
        return ""

    @abc.abstractmethod
    def write_row(self, values: list[object]) -> str:
        """Text for a single row, including the row terminator."""

    def write_rows(self, rows: list[list[object]]) -> str:
        """Text for a block of rows — what the default
        :meth:`write_block` formats through.

        The concatenation of :meth:`write_row` over *rows* — the one
        row loop, for every format.
        """
        write_row = self.write_row
        return "".join(write_row(row) for row in rows)  # hot-loop-ok: contract fallback

    def write_block(self, block, first: bool = False):
        """The chunk for one :class:`~repro.columnar.ColumnBlock` — the
        one method every run formats through.

        Must produce exactly the bytes :meth:`write_rows` would for the
        transposed block (the default does just that); array-level
        overrides are tested against it. *first* is True for the run's
        first package — binary writers use it to emit stream framing
        (e.g. the Arrow schema) exactly once.
        """
        return self.write_rows(block.to_rows())

    def footer(self) -> str:
        """Text emitted once after the last row (may be empty)."""
        return ""


class CsvWriter(RowWriter):
    """Delimiter-separated values; the PDGF/dbgen default is ``|``.

    Fields containing the delimiter, a double quote, or the row
    terminator are quoted RFC 4180 style (wrapped in ``"`` with inner
    quotes doubled) — all three would otherwise corrupt row/field
    boundaries or round-tripping, so all three trigger quoting.
    """

    format_name = "csv"
    supports_columns = True

    def __init__(
        self,
        table: str,
        columns: list[str],
        formatter: ValueFormatter | None = None,
        delimiter: str = "|",
        include_header: bool = False,
        terminator: str = "\n",
    ) -> None:
        super().__init__(table, columns, formatter)
        if len(delimiter) != 1:
            raise OutputError(f"delimiter must be one character, got {delimiter!r}")
        self.delimiter = delimiter
        self.include_header = include_header
        self.terminator = terminator
        #: characters that force quoting — shared by write_row and the
        #: vectorized block formatter
        self.specials = frozenset(delimiter) | {'"'} | frozenset(terminator)

    @functools.cached_property
    def _texts(self) -> _CsvTexts:
        return _CsvTexts(self.formatter, self.specials)

    def header(self) -> str:
        if not self.include_header:
            return ""
        return self.delimiter.join(self.columns) + self.terminator

    def write_row(self, values: list[object]) -> str:
        fmt = self.formatter.format
        specials = self.specials
        parts = [csv_escape(fmt(value), specials) for value in values]
        return self.delimiter.join(parts) + self.terminator

    def write_block(self, block, first: bool = False) -> str:
        # The vectorized formatter reproduces write_row's bytes exactly;
        # subclasses customizing per-row formatting keep theirs.
        if type(self).write_row is not CsvWriter.write_row:
            return super().write_block(block, first)
        return format_csv_block(block, self)


class JsonWriter(RowWriter):
    """One JSON object per line (JSON-lines), NULLs as ``null``.

    Non-finite floats become ``null``: JSON has no NaN/Infinity literal,
    and ``json.dumps``'s permissive default would emit tokens
    ``json.loads`` itself is the only parser happy to read back.
    ``allow_nan=False`` keeps the serializer honest about it.
    """

    format_name = "json"
    supports_columns = True

    @functools.cached_property
    def _texts(self) -> _JsonTexts:
        return _JsonTexts(self.formatter)

    def write_block(self, block, first: bool = False) -> str:
        # write_row builds a dict: a repeated column name collapses
        # there, and a row shorter than the column list drops keys.
        names = self.columns
        if (
            type(self).write_row is not JsonWriter.write_row
            or len(block.columns) != len(names)
            or len(set(names)) != len(names)
        ):
            return super().write_block(block, first)
        keys = [encode_basestring(name) + ":" for name in names]
        lead, separators = "{" + "".join(keys[:1]), ["," + key for key in keys[1:]]
        return _format_block(block, self._texts, lead, separators, "}\n")

    def write_row(self, values: list[object]) -> str:
        obj: dict[str, object] = {}
        for name, value in zip(self.columns, values):
            if isinstance(value, float) and not math.isfinite(value):
                obj[name] = None
            elif value is None or isinstance(value, (bool, int, float, str)):
                obj[name] = value
            else:
                obj[name] = self.formatter.format(value)
        # Sinks are UTF-8; keep non-ASCII text readable instead of \u-escaped.
        return (
            json.dumps(obj, separators=(",", ":"), ensure_ascii=False, allow_nan=False)
            + "\n"
        )


class XmlWriter(RowWriter):
    """``<row>`` elements wrapped in a ``<table name=...>`` document."""

    format_name = "xml"

    def header(self) -> str:
        return f'<?xml version="1.0" encoding="UTF-8"?>\n<table name="{self.table}">\n'

    @staticmethod
    def _escape(text: str) -> str:
        return (
            text.replace("&", "&amp;")
            .replace("<", "&lt;")
            .replace(">", "&gt;")
        )

    def write_row(self, values: list[object]) -> str:
        parts = ["  <row>"]
        for name, value in zip(self.columns, values):
            if value is None:
                parts.append(f"<{name}/>")
            else:
                parts.append(f"<{name}>{self._escape(self.formatter.format(value))}</{name}>")
        parts.append("</row>\n")
        return "".join(parts)

    def footer(self) -> str:
        return "</table>\n"


class SqlWriter(RowWriter):
    """``INSERT INTO`` statements, batched ``rows_per_statement`` at a time
    by the caller (one row per statement here keeps writers stateless)."""

    format_name = "sql"
    supports_columns = True

    @functools.cached_property
    def _texts(self) -> _SqlTexts:
        return _SqlTexts(self.formatter)

    def write_block(self, block, first: bool = False) -> str:
        if type(self).write_row is not SqlWriter.write_row:
            return super().write_block(block, first)
        lead = f"INSERT INTO {self.table} ({', '.join(self.columns)}) VALUES ("
        separators = [", "] * (len(block.columns) - 1)
        return _format_block(block, self._texts, lead, separators, ");\n")

    def write_row(self, values: list[object]) -> str:
        rendered = []
        for value in values:
            if value is None:
                rendered.append("NULL")
            elif isinstance(value, bool):
                # Checked before int (bool subclasses int) so True never
                # leaks as the bare literal ``True``.
                rendered.append("TRUE" if value else "FALSE")
            elif isinstance(value, float) and not math.isfinite(value):
                # No portable SQL literal exists for NaN/Infinity; the
                # formatter's repr would be a syntax error in most
                # dialects, so store SQL's own missing-value marker.
                rendered.append("NULL")
            elif isinstance(value, (int, float)):
                rendered.append(self.formatter.format(value))
            else:
                text = self.formatter.format(value).replace("'", "''")
                rendered.append(f"'{text}'")
        columns = ", ".join(self.columns)
        return (
            f"INSERT INTO {self.table} ({columns}) VALUES ({', '.join(rendered)});\n"
        )
