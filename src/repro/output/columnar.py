"""Column-at-a-time text formatting over typed column blocks.

The paper's lazy-formatting argument (Figure 9: formatting dominates
generation cost) is only fully cashed in when formatting happens at
*array* level with work proportional to the *distinct* values of a
block: a narrow int64 column renders each value it holds once and
indexes the results, a ``places``-rounded double column is integer
arithmetic plus a fraction table, a date column converts once per
distinct day of the whole run, a dictionary column escapes each entry
once. This module is that sink-side half of the columnar pipeline — it
consumes the :class:`~repro.columnar.ColumnBlock` the engine produced
and emits exactly the bytes the writer's ``write_rows`` would have
produced from the transposed rows. Every built-in text format formats
here; ``write_rows`` is left as the oracle the tests compare against.

Byte-identity is the contract, not a goal. A kernel leaves the
per-value loop only after it has *proven*, from what it can observe in
the block, that its text equals the oracle's (DESIGN §3.1): the span
test for tables, the scaled-integer identity for floats. A column that
fails its proof falls back to the per-value call the row path makes —
correct first, fast where provable, never approximate.

:class:`_ColumnTexts` holds the kernels; its four subclasses are the
per-format literal policies (how CSV, JSON, SQL and XML spell NULL,
booleans, numbers and text). A writer owns its policies for its
lifetime, and with them the day map that makes lazy formatting hold
across packages. The kernels' tables and the day map are the one render
cache: the :class:`~repro.output.rows.ValueFormatter` underneath keeps
nothing.
"""

from __future__ import annotations

import datetime
import functools
import math
from itertools import repeat
from json.encoder import encode_basestring
from operator import concat

import numpy as _np

from repro.generators.base import _KERNEL_MIN_ROWS

#: characters ``str(int)`` can emit
_INT_CHARS = frozenset("0123456789-")
#: characters ``repr(float)`` / ``%.Nf`` can emit (incl. inf/nan/exponent)
_FLOAT_CHARS = frozenset("0123456789-+.einfa")

#: ``repr`` prints fixed notation down to 1e-4, so four decimals is the
#: widest grid on which "decimal digits, zeros trimmed" is ``repr``.
_REPR_DIGITS = 4
#: the fraction table has ``10**digits`` entries; beyond this many
#: decimals ``float_places`` goes through the C-level ``%`` map.
_MAX_TABLE_DIGITS = 4
#: scaled values below this are exact in float64 *and* at most 15
#: significant digits, which is what makes a decimal text round-trip.
_SCALED_LIMIT = 1e15
#: days a writer's day map keeps; past it a day is rendered per lookup
#: (a run's date columns span a few thousand days)
_DAY_TEXTS_LIMIT = 65_536


def xml_escape(text: str) -> str:
    """*text* with ``&``, ``<`` and ``>`` as entity references."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def csv_escape(text: str, specials: frozenset) -> str:
    """Quote *text* when it contains any special character.

    *specials* is the writer's precomputed set: the delimiter, the quote
    character itself, and every character of the row terminator — a
    field containing any of them is wrapped in double quotes with inner
    quotes doubled (RFC 4180 style). ``frozenset.isdisjoint`` runs at C
    speed, so the common no-quote case costs one call.
    """
    if specials.isdisjoint(text):
        return text
    return '"' + text.replace('"', '""') + '"'


@functools.lru_cache(maxsize=None)
def _fraction_table(digits: int, trim: bool) -> _np.ndarray:
    """``"." + fraction`` for every *digits*-digit fraction — zeros
    trimmed down to ``".0"`` as ``repr`` prints them, or kept as ``%.Nf``
    does (no point at all for zero digits). Read-only, built once."""
    texts = ["%0*d" % (digits, value) if digits else "" for value in range(10**digits)]
    if trim:
        texts = [text.rstrip("0") or "0" for text in texts]
    return _np.array(["." + text if text else "" for text in texts], dtype=object)


def _distinct_texts(values, render) -> list[str] | None:
    """``render`` over an int64 array, called once per *distinct* value:
    the values present are rendered into a table spanning ``min..max``
    and every row indexes it. ``None`` when the span is not small against
    the row count (at ``span == count / 2`` the table costs 65 ns/row
    against 100 for ``map(str, ...)``; at ``span == count`` they meet)."""
    low = int(values.min())
    span = int(values.max()) - low  # Python ints: int64 max - min can overflow
    if span > len(values) // 2:
        return None
    offsets = values - low
    present = _np.flatnonzero(_np.bincount(offsets, minlength=span + 1))
    table = _np.empty(span + 1, dtype=object)
    table[present] = list(map(render, (present + low).tolist()))
    return table[offsets].tolist()


def _int_texts(values) -> list[str]:
    """``str(int)`` over an int64 array."""
    return _distinct_texts(values, str) or list(map(str, values.tolist()))


def _decimal_texts(values, digits: int, trim: bool) -> list[str] | None:
    """Floats that sit exactly on the ``10**-digits`` decimal grid as
    decimal text, or ``None`` when any value is off the grid.

    The proof: ``scaled = rint(v * 10**digits)`` is an integer below
    1e15, and ``scaled / 10**digits == v`` — one correctly rounded
    division — says *v* is the double nearest to that decimal. A decimal
    of at most 15 significant digits round-trips through a double, so it
    is the shortest text that reads back as *v* (``repr``, zeros
    trimmed) and what *v* rounds to at *digits* places (``%.Nf``, zeros
    kept). Negative zero has a sign the integer loses; NaN and infinity
    fail the comparison. All three send the column back to the caller.
    """
    scale = 10**digits
    with _np.errstate(all="ignore"):
        scaled = _np.rint(values * float(scale))
        exact = (scaled / float(scale) == values) & (_np.abs(scaled) < _SCALED_LIMIT)
    if not exact.all() or (_np.signbit(values) & (scaled == 0)).any():
        return None
    scaled = scaled.astype(_np.int64)
    fractions = _fraction_table(digits, trim)

    def render(value: int) -> str:
        whole, fraction = divmod(abs(value), scale)
        return ("-" if value < 0 else "") + str(whole) + fractions[fraction]

    texts = _distinct_texts(scaled, render)
    if texts is None:
        whole, fraction = _np.divmod(_np.abs(scaled), scale)
        texts = list(map(concat, _int_texts(whole), fractions[fraction].tolist()))
        negative = scaled < 0
        if negative.any():
            texts = list(map(concat, _np.where(negative, "-", "").tolist(), texts))
    return texts


class _DayTexts(dict):
    """Date ordinal → rendered text literal, filled on first lookup: a
    hit is one C-level ``dict`` read, a miss formats the day through the
    :class:`~repro.output.rows.ValueFormatter` and keeps the text while
    the map holds fewer than ``_DAY_TEXTS_LIMIT`` days."""

    def __init__(self, texts: "_ColumnTexts") -> None:
        self._texts = texts

    def __missing__(self, ordinal: int) -> str:
        texts = self._texts
        text = texts.text(
            texts.formatter.format(  # columnar-ok: once per distinct day of the writer's life
                datetime.date.fromordinal(ordinal)
            )
        )
        if len(self) < _DAY_TEXTS_LIMIT:
            self[ordinal] = text
        return text


class _ColumnTexts:
    """One format's literal policy over the shared column kernels.

    :meth:`column` turns a typed column into its list of output texts;
    :meth:`literal` is the per-value oracle every kernel must equal — it
    spells one value exactly as the writer's ``write_row`` does — and the
    path object columns and small blocks take. Subclasses say how the
    format quotes text and spells a number; the constructor takes its
    NULL / boolean / non-finite tokens.

    ``days`` is the rendered text of every day the writer has formatted:
    it lives as long as the writer and is bounded (:class:`_DayTexts`).
    Date columns of any length read it, and so do dates in object
    columns.
    """

    def __init__(
        self, formatter, null: str, true: str, false: str,
        nonfinite: str | None = None, places: int | None = None,
    ) -> None:
        self.formatter = formatter
        self.null = null
        self.true = true
        self.false = false
        #: what replaces NaN / infinity (None: the number's own text)
        self.nonfinite = nonfinite
        #: fixed decimals for floats (None: ``repr``)
        self.places = places
        self.days = _DayTexts(self)

    # -- the per-format half ------------------------------------------------

    def text(self, text: str) -> str:
        """One string as the format's text literal."""
        raise NotImplementedError

    def number(self, value) -> str:
        """One int or finite float as ``write_row`` spells it."""
        raise NotImplementedError

    def numbers(self, texts: list[str], charset: frozenset) -> list[str]:
        """A column of number texts drawn from *charset*, as they must
        appear in a row."""
        return texts

    def strings(self, column) -> list[str]:
        return list(map(self.text, column.data))

    # -- the per-value oracle -----------------------------------------------

    def literal(self, value) -> str:
        if value is None:
            return self.null
        if isinstance(value, str):
            return self.text(value)
        if isinstance(value, bool):
            return self.true if value else self.false
        if isinstance(value, (int, float)):
            if (
                self.nonfinite is not None
                and isinstance(value, float)
                and not math.isfinite(value)
            ):
                return self.nonfinite
            return self.number(value)
        if type(value) is datetime.date:
            return self.days[value.toordinal()]
        return self.text(self.formatter.format(value))  # columnar-ok: object fallback

    # -- the kernels ----------------------------------------------------------

    def column(self, column) -> list[str]:
        """One column as output texts (length == block count)."""
        kind = column.kind
        data = column.data
        if kind == "object":
            texts = list(map(self.literal, data))
        elif kind == "str":
            texts = self.strings(column)
        elif kind == "dict":
            texts = self._dict_texts(column)
        elif kind == "date":
            # Any length reads the day map; a long block looks up each
            # distinct day once.
            render = self.days.__getitem__
            if len(data) < _KERNEL_MIN_ROWS or (
                texts := _distinct_texts(data, render)
            ) is None:
                texts = list(map(render, data.tolist()))
        elif len(data) < _KERNEL_MIN_ROWS:
            # Too few rows to pay for array set-up (1-row serve reads);
            # to_pylist has already put None where the mask is set.
            return list(map(self.literal, column.to_pylist()))
        elif kind == "int":
            texts = self.numbers(_int_texts(data), _INT_CHARS)
        elif kind == "float":
            texts = self.numbers(self._float_texts(data), _FLOAT_CHARS)
        else:
            tokens = _np.array([self.false, self.true], dtype=object)
            texts = tokens[data.astype(_np.intp)].tolist()
        nulls = column.nulls
        if nulls is not None:
            null = self.null
            if texts is data:
                texts = list(texts)
            for offset in _np.nonzero(nulls)[0].tolist():
                texts[offset] = null
        return texts

    def _dict_texts(self, column) -> list[str]:
        entries = column.entries
        picks = column.data.tolist()
        literal = self.literal
        if len(entries) > len(picks):
            # Fewer rows than entries: render the picks, not the dictionary.
            return [literal(entries[pick]) for pick in picks]
        entry_texts = list(map(literal, entries))
        return [entry_texts[pick] for pick in picks]

    def _float_texts(self, data) -> list[str]:
        places = self.places
        if places is None:
            texts = _decimal_texts(data, _REPR_DIGITS, True)
        elif 0 <= places <= _MAX_TABLE_DIGITS:
            texts = _decimal_texts(data, places, False)
        else:
            texts = None
        if texts is None:
            render = repr if places is None else ("%%.%df" % places).__mod__
            texts = list(map(render, data.tolist()))
            if self.nonfinite is not None:
                for offset in _np.nonzero(~_np.isfinite(data))[0].tolist():
                    texts[offset] = self.nonfinite
        return texts


class _CsvTexts(_ColumnTexts):
    """CSV: every value is the formatter's text, quoted when it holds a
    special character."""

    def __init__(self, formatter, specials: frozenset) -> None:
        super().__init__(
            formatter,
            null=csv_escape(formatter.null_token, specials),
            true=csv_escape("true", specials),
            false=csv_escape("false", specials),
            places=formatter.float_places,
        )
        self.specials = specials

    def text(self, text: str) -> str:
        return csv_escape(text, self.specials)

    def literal(self, value) -> str:
        # write_row's own expression (a string is its own text).
        if not isinstance(value, str):
            if type(value) is datetime.date:
                return self.days[value.toordinal()]
            value = self.formatter.format(value)  # columnar-ok: object fallback
        return csv_escape(value, self.specials)

    def numbers(self, texts, charset):
        specials = self.specials
        if specials.isdisjoint(charset):
            return texts  # proven quote-free without scanning a value
        return [csv_escape(text, specials) for text in texts]

    def strings(self, column):
        specials = self.specials
        charset = column.charset
        if charset is not None and specials.isdisjoint(charset):
            return column.data  # proven quote-free at bind time
        return [csv_escape(text, specials) for text in column.data]


class _JsonTexts(_ColumnTexts):
    """JSON as ``json.dumps(..., ensure_ascii=False, allow_nan=False)``
    spells it: ``int.__repr__`` / ``float.__repr__`` whatever the
    formatter's ``float_places``, ``null`` for non-finite floats."""

    text = staticmethod(encode_basestring)

    def __init__(self, formatter) -> None:
        super().__init__(formatter, "null", "true", "false", nonfinite="null")

    def number(self, value) -> str:
        if isinstance(value, float):
            return float.__repr__(value)
        return int.__repr__(value)


class _SqlTexts(_ColumnTexts):
    """SQL literals: bare numbers, ``''``-doubled quoted text, ``NULL``
    for missing and non-finite values."""

    def __init__(self, formatter) -> None:
        super().__init__(
            formatter, "NULL", "TRUE", "FALSE", nonfinite="NULL",
            places=formatter.float_places,
        )
        self.number = formatter.format

    def text(self, text: str) -> str:
        return "'" + text.replace("'", "''") + "'"


class _XmlTexts(_ColumnTexts):
    """XML, one column's elements: ``<name>``, the formatter's text with
    ``&<>`` escaped, ``</name>`` — and ``<name/>`` for NULL. The tag is
    part of every text, so a writer holds one policy per column."""

    def __init__(self, formatter, name: str) -> None:
        self.open, self.close = f"<{name}>", f"</{name}>"
        super().__init__(
            formatter, f"<{name}/>", self.text("true"), self.text("false"),
            places=formatter.float_places,
        )

    def text(self, text: str) -> str:
        return self.open + xml_escape(text) + self.close

    def number(self, value) -> str:
        return self.open + self.formatter.format(value) + self.close  # columnar-ok: object fallback

    def numbers(self, texts, charset):
        # no number charset holds a character XML escapes
        open_, close = self.open, self.close
        return [open_ + text + close for text in texts]


def _format_block(
    count: int, columns: list[list[str]], lead: str, separators: list[str], tail: str
) -> str:
    """The text of a whole column block from its *count*-long column
    texts: per row ``lead``, the column texts with ``separators[i]``
    between column *i* and *i + 1*, then ``tail`` — byte-identical to
    the writer's ``write_rows`` over ``block.to_rows()``."""
    if count == 0:
        return ""
    if not columns:
        return (lead + tail) * count
    if len(set(separators)) <= 1:
        # One separator: two C-level joins, the row frame folded into the outer.
        join = (separators[0] if separators else "").join
        return lead + (tail + lead).join(map(join, zip(*columns))) + tail
    parts: list = [repeat(lead)]
    for column, separator in zip(columns, separators + [tail]):
        parts += (column, repeat(separator))
    return "".join(map("".join, zip(*parts)))


def format_csv_block(block, writer) -> str:
    """The CSV text of a whole column block — byte-identical to
    ``writer.write_rows(block.to_rows())``."""
    columns = list(map(writer._texts.column, block.columns))
    separators = [writer.delimiter] * (len(columns) - 1)
    return _format_block(block.count, columns, "", separators, writer.terminator)
