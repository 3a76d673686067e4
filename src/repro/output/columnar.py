"""Column-at-a-time text formatting over typed column blocks.

The paper's lazy-formatting argument (Figure 9: formatting dominates
generation cost) is only fully cashed in when formatting happens at
*array* level: a typed column becomes the UTF-8 bytes of its literals
without a Python string per cell. Each typed kind has one byte kernel
that renders a whole column as a ``(rows, width)`` ``uint8`` matrix of
its literals, padded with NUL — an int's digits four at a time from a
group table, a ``places``-rounded double's whole digits plus a fraction
table, a date's text from the day map, a dictionary entry's literal, a
boolean's token, each table read one whole item per row — and
:func:`_format_block` lays the matrices of a row side by side with the
row's separators and drops every NUL in one compaction.
This module is that sink-side half of the columnar pipeline — it
consumes the :class:`~repro.columnar.ColumnBlock` the engine produced
and emits exactly the bytes the writer's ``write_rows`` would have
produced from the transposed rows. Every built-in text format formats
here; ``write_rows`` is left as the oracle the tests compare against.

Byte-identity is the contract, not a goal. A kernel leaves the
per-value loop only after it has *proven*, from what it can observe in
the block, that its bytes equal the oracle's (DESIGN §3.1): no NUL in a
literal it pads (NUL is the padding), a number alphabet the format
never quotes, the scaled-integer identity for floats, and a row-marker
byte a run of matrices provably lacks when it must be cut back into
rows. A column that fails its proof takes the per-value call the row
path makes — correct first, fast where provable, never approximate.

:class:`_ColumnTexts` holds the kernels; its four subclasses are the
per-format literal policies (how CSV, JSON, SQL and XML spell NULL,
booleans, numbers and text). A writer owns its policies for its
lifetime, and with them the day map that makes lazy formatting hold
across packages. The day map is the one render cache: the
:class:`~repro.output.rows.ValueFormatter` underneath keeps nothing,
and every other table lives for one block.
"""

from __future__ import annotations

import datetime
import functools
import math
import threading
from itertools import chain, repeat
from json.encoder import encode_basestring

import numpy as _np

#: characters ``str(int)`` can emit
_INT_CHARS = frozenset("0123456789-")
#: characters an on-grid decimal's text can emit (sign, digits, point)
_DECIMAL_CHARS = _INT_CHARS | {"."}
_DECIMAL_BYTES = "".join(sorted(_DECIMAL_CHARS)).encode()
#: the powers of ten below 2**64
_POWERS = 10 ** _np.arange(20, dtype=_np.uint64)
#: characters JSON's ``encode_basestring`` escapes
_JSON_ESCAPED = frozenset('"\\' + "".join(map(chr, range(32))))

#: ``repr`` prints fixed notation down to 1e-4, so four decimals is the
#: widest grid on which "decimal digits, zeros trimmed" is ``repr``.
_REPR_DIGITS = 4
#: the fraction table has ``10**digits`` entries; beyond this many
#: decimals ``float_places`` takes the per-value path.
_MAX_TABLE_DIGITS = 4
#: scaled values below this are exact in float64 *and* at most 15
#: significant digits, which is what makes a decimal text round-trip.
_SCALED_LIMIT = 1e15
#: the widest span of days a writer's day map covers; a block whose days
#: would widen it further renders them per block (a run's date columns
#: span a few thousand days)
_DAY_TEXTS_LIMIT = 65_536
#: row markers a run may be cut at: the control bytes, which are ASCII
#: (so never inside a multi-byte UTF-8 sequence) and rare in text
_MARKERS = bytes(range(1, 32))


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


def _table(texts: list[bytes]) -> _np.ndarray | None:
    """*texts* as one NUL-padded ``S{width}`` array, or ``None`` when one
    of them holds a NUL — the padding would swallow it."""
    if b"\0" in b"".join(texts):
        return None
    return _np.array(texts, dtype=f"S{max(map(len, texts), default=0) or 1}")


@functools.lru_cache(maxsize=None)
def _group_table() -> _np.ndarray:
    """The ``S4`` table of a 4-digit group, read-only: entry ``g`` is
    ``g``'s four digits, entry ``10_000 + g`` the same with every zero
    left of its first digit as NUL — a group with nothing above it
    (``10_000`` itself all NUL)."""
    groups = _np.arange(10_000, dtype=_np.uint16)[:, None]  # small temporaries
    digits = (groups // _np.array([1000, 100, 10, 1], _np.uint16) % 10 + 48).astype(_np.uint8)
    leading = _np.where(_np.logical_or.accumulate(digits != 48, axis=1), digits, 0)
    table = _np.concatenate([digits, leading]).view("S4").ravel()
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=None)
def _fraction_table(digits: int, trim: bool) -> _np.ndarray:
    """``"." + fraction`` for every *digits*-digit fraction as an
    ``S{width}`` table — zeros trimmed down to ``".0"`` as ``repr`` prints them, or
    kept as ``%.Nf`` does (no point at all for zero digits). Read-only,
    built once."""
    texts = ["%0*d" % (digits, value) if digits else "" for value in range(10**digits)]
    if trim:
        texts = [text.rstrip("0") or "0" for text in texts]
    table = _table([("." + text if text else "").encode() for text in texts])
    table.flags.writeable = False
    return table


def _distinct(values):
    """``(present, index)``: the distinct values of an int64 array and
    each row's position among them — a ``bincount`` over ``min..max``
    unless the span is both wide and many times the row count, then a
    sort."""
    low = int(values.min())
    span = int(values.max()) - low  # Python ints: int64 max - min can overflow
    if span > max(4 * len(values), 65_536):
        return _np.unique(values, return_inverse=True)
    offsets = values - low
    present = _np.flatnonzero(_np.bincount(offsets, minlength=span + 1))
    position = _np.empty(span + 1, dtype=_np.intp)
    position[present] = _np.arange(len(present))
    return present + low, position[offsets]


def _digits(magnitude, negative) -> _np.ndarray:
    """``(rows, width)`` ``uint8``: each uint64 *magnitude*'s decimal
    digits, right-aligned with NUL to their left, and ``-`` just before
    the first digit of every row in the boolean *negative* (``None``:
    no row is negative).

    Four digits at a time, lowest group first: per group one division by
    10 000 and one lookup in a group table — its leading-zeros half
    where nothing is left above the group (uint32 arithmetic when the
    widest value has ≤ 9 digits)."""
    count = len(str(int(magnitude.max())))
    sign = int(negative is not None)  # a spare group in front holds the "-"
    groups = -(-count // 4) + sign
    out = _np.zeros((len(magnitude), groups), dtype="S4")
    dtype = _np.uint32 if count <= 9 else _np.uint64
    step, above = dtype(10_000), magnitude.astype(dtype)
    table = _group_table()
    for column in range(groups - 1, sign, -1):
        group, above = above, above // step
        group -= above * step
        _np.add(group, step, out=group, where=above == 0)
        out[:, column] = table.take(group)
    out[:, sign] = table.take(above + step)
    out[magnitude == 0, -1] = b"\0\0\0" b"0"  # the number 0 keeps its digit
    out = out.view(_np.uint8).reshape(len(out), 4 * groups)[:, 4 * groups - count - sign:]
    if sign:
        rows = _np.flatnonzero(negative)
        lengths = (_POWERS[1:count, None] <= magnitude[rows]).sum(axis=0) + 1
        out[rows, count - lengths] = 45  # "-"
    return out


def _int_pieces(values) -> list:
    """An int64 column's ``str(int)`` texts as a digit matrix."""
    negative = values < 0
    unsigned = values.astype(_np.uint64)
    if not negative.any():
        return [_digits(unsigned, None)]
    # two's-complement negation in uint64 is exact for INT64_MIN too
    return [_digits(_np.where(negative, -unsigned, unsigned), negative)]


def _decimal_pieces(values, digits: int, trim: bool) -> list | None:
    """Floats that sit exactly on the ``10**-digits`` decimal grid as
    their decimal text — whole digits, then a fraction-table lookup — or
    ``None`` when any value is off the grid.

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
    negative = scaled < 0
    magnitude, step = _np.abs(scaled).astype(_np.uint64), _np.uint64(scale)
    whole = magnitude // step
    fraction = _fraction_table(digits, trim).take(magnitude - whole * step).view(_np.uint8)
    return [_digits(whole, negative if negative.any() else None), fraction.reshape(len(whole), -1)]


class _Literals:
    """One column's literals as NUL-padded UTF-8 bytes: the ``pieces``
    laid side by side make each row's literal (a piece is a ``(rows,
    width)`` ``uint8`` matrix, or a 1-D constant every row shares), and
    the rows set in ``nulls`` read the ``null`` bytes instead.
    ``alphabet`` is a list of byte strings (or tables) holding every
    byte a literal can contain — a superset, which is what proves a row
    marker absent without reading the rows. ``policy`` and ``column``
    are the per-value path, for a run that finds no marker."""

    __slots__ = ("pieces", "alphabet", "nulls", "null", "policy", "column")

    def __init__(self, pieces, alphabet, nulls, null, policy, column) -> None:
        self.pieces = pieces
        self.alphabet = alphabet
        self.nulls = nulls
        self.null = null
        self.policy = policy
        self.column = column


class _DayTexts:
    """A writer's day map: the UTF-8 literal of every day it has
    rendered, as one NUL-padded ``S{width}`` array over a span of
    ordinals — entry ``i`` is day ``low + i``, rendered when
    ``known[i]``. A block's days are one take from it, after the block
    has rendered its unseen days together (:meth:`_render`).

    The span never grows past ``_DAY_TEXTS_LIMIT`` days: a block whose
    days would widen it further renders its own distinct days and keeps
    none of them. No literal ends in NUL (``strftime`` stops at one), so
    the padding is exact; one holds a NUL only inside an XML tag.

    A lock orders the threads that share the writer: a lookup changes
    the span and the entries together. The table it returns is read
    outside the lock, which is safe because later lookups write only
    entries that were not rendered, or build a new array."""

    def __init__(self, texts: "_ColumnTexts") -> None:
        self._texts = texts
        self.low, self.table, self.known = 0, _np.zeros(0, dtype="S1"), _np.zeros(0, dtype=bool)
        self._lock = threading.Lock()  # serve threads share a writer

    def __len__(self) -> int:
        return int(self.known.sum())

    def __getitem__(self, ordinal: int) -> bytes:
        """One day's literal: the per-value path."""
        with self._lock:
            row = ordinal - self.low
            if 0 <= row < len(self.known) and self.known[row]:
                return self.table[row]
        table, index = self.lookup(_np.array([ordinal]))
        return table[index[0]]

    def lookup(self, days) -> tuple:
        """``(table, index)``: an ``S{width}`` table and the entry of
        each ordinal of the int64 array *days* in it — the map, or the
        block's own table when its days do not fit the map's bound."""
        if not len(days):
            return self.table, days
        with self._lock:
            first, last = int(days.min()), int(days.max()) + 1
            low, span = (self.low, len(self.known)) if len(self.known) else (first, 0)
            start, stop = min(first, low), max(last, low + span)
            if stop - start > _DAY_TEXTS_LIMIT:
                present, index = _distinct(days)
                return self._render(present), index
            if (start, stop) != (self.low, self.low + span):  # widen the span
                pad = (low - start, stop - low - span)
                self.table = _np.pad(self.table, pad, constant_values=b"")
                self.low, self.known = start, _np.pad(self.known, pad)
            index = days - start
            unseen = ~self.known[index]
            if unseen.any():
                # sorted distinct days; a bincount over the bounded span
                # (``unique`` would import ``numpy.ma`` on first use)
                fresh = _np.flatnonzero(_np.bincount(index[unseen])) + start
                table = self._render(fresh)
                width = max(self.table.itemsize, table.itemsize)
                self.table = self.table.astype(f"S{width}", copy=False)
                self.table[fresh - start] = table
                self.known[fresh - start] = True
            return self.table, index

    def _render(self, days) -> _np.ndarray:
        """The literals of the sorted distinct ordinals *days* as an
        ``S{width}`` table. The default ``%Y-%m-%d`` over years 1000 to
        9999 is one ``datetime_as_string`` between the policy's proven
        text frame; any other format renders one day at a time."""
        texts = self._texts
        frame = texts.text_frame(_INT_CHARS) if texts.formatter.date_format == "%Y-%m-%d" else None
        # years 1000 to 9999 (ordinals 364 878 to 3 652 059), whose text
        # numpy spells as strftime does, over _INT_CHARS; ordinal 1 is 0001-01-01
        if frame is not None and 364_878 <= days[0] and days[-1] <= 3_652_059:
            iso = _np.datetime_as_string(_np.datetime64("0000-12-31") + days.astype("m8[D]"))
            return _np.array([f"{frame[0]}{text}{frame[1]}".encode() for text in iso.tolist()])
        return _np.array([
            texts.text(texts.formatter.format(day)).encode()  # columnar-ok: once per unseen day
            for day in map(datetime.date.fromordinal, days.tolist())
        ])


class _ColumnTexts:
    """One format's literal policy over the shared column kernels.

    :meth:`literals` is a typed column's byte kernel; :meth:`column`
    turns any column into its list of output texts, one value at a
    time; :meth:`literal` is the per-value oracle every kernel must
    equal — it spells one value exactly as the writer's ``write_row``
    does. Subclasses say how the format quotes text and spells a number,
    and prove a text frame: ``text_frame(charset)`` is ``(prefix,
    suffix)`` with ``text(s) == prefix + s + suffix`` for every string
    *s* drawn from *charset*, or ``None`` when the format would escape or
    quote some of them. The constructor takes the NULL / boolean /
    non-finite tokens.

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

    def frame(self, charset: frozenset) -> tuple[str, str] | None:
        """What a number drawn from *charset* is written between, or
        ``None`` when the format would quote some of them one by one."""
        return "", ""

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
            return self.days[value.toordinal()].decode()  # columnar-ok: the per-value path
        return self.text(self.formatter.format(value))  # columnar-ok: object fallback

    def column(self, column) -> list[str]:
        """One column as output texts (length == block count), one value
        at a time: the path of object and string columns, and of a typed
        column whose kernel declines."""
        kind = column.kind
        if kind not in ("str", "date"):
            # to_pylist has already put None where the mask is set
            return list(map(self.literal, column.to_pylist()))
        if kind == "date":  # a day's literal is its day map entry
            table, index = self.days.lookup(column.data)
            texts = list(map(bytes.decode, table.take(index).tolist()))  # columnar-ok: per value
        else:
            frame = column.charset is not None and self.text_frame(column.charset)
            if frame:  # proven: no value needs an escape, only the frame
                prefix, suffix = frame
                texts = [f"{prefix}{text}{suffix}" for text in column.data]
            else:
                texts = list(map(self.text, column.data))
        nulls = column.nulls
        if nulls is not None:
            null = self.null
            for offset in _np.nonzero(nulls)[0].tolist():
                texts[offset] = null
        return texts

    def framed(self, column) -> tuple[str, list[str], str]:
        """``(prefix, texts, suffix)``: a column's per-value texts
        between what every row shares — a string column without NULL
        whose charset proves its text frame is its own values, framed,
        and every other column its :meth:`column` texts."""
        proven = column.kind == "str" and column.charset is not None and not _np.any(column.nulls)
        frame = proven and self.text_frame(column.charset)
        return (frame[0], column.data, frame[1]) if frame else ("", self.column(column), "")

    # -- the byte kernels -----------------------------------------------------

    def literals(self, column) -> _Literals | None:
        """A typed column's literals as byte pieces, or ``None`` when the
        column is not typed or a proof fails."""
        kind = column.kind
        data = column.data
        if kind in ("int", "float"):
            pieces = (
                _int_pieces(data) if kind == "int" else self._float_pieces(data)
            )
            frame = self.frame(_INT_CHARS if kind == "int" else _DECIMAL_CHARS)
            if pieces is None or frame is None:
                return None
            prefix, suffix = (text.encode() for text in frame)
            if b"\0" in prefix + suffix:
                return None
            alphabet = [_DECIMAL_BYTES, prefix, suffix]
            pieces = [
                piece for piece in (
                    _np.frombuffer(prefix, _np.uint8), *pieces,
                    _np.frombuffer(suffix, _np.uint8),
                ) if piece.shape[-1]
            ]
        else:
            if kind == "date":
                # a day's literal holds a NUL only where the frame does
                table, index = self.days.lookup(data) if "\0" not in self.text("") else (None, 0)
            elif kind == "dict":
                entries = column.entries
                if len(entries) > len(data):
                    # Fewer rows than entries: render the picks, not the dictionary.
                    present, index = _distinct(data)
                    entries = list(map(entries.__getitem__, present.tolist()))
                else:
                    index = data
                # columnar-ok: once per dictionary entry (or pick present) per block
                table = _table([text.encode() for text in map(self.literal, entries)])
            elif kind == "bool":
                table, index = _table([self.false.encode(), self.true.encode()]), data.view(_np.uint8)
            else:
                return None
            if table is None:
                return None
            pieces = [table.take(index).view(_np.uint8).reshape(len(index), table.itemsize)]
            alphabet = [table]
        nulls = column.nulls
        if nulls is None or not nulls.any():
            return _Literals(pieces, alphabet, None, None, self, column)
        null = self.null.encode()
        if b"\0" in null:
            return None
        width = sum(piece.shape[-1] for piece in pieces)
        if len(null) > width:
            pieces.append(_np.zeros(len(null) - width, dtype=_np.uint8))
            width = len(null)
        padded = _np.zeros(width, dtype=_np.uint8)
        padded[: len(null)] = _np.frombuffer(null, _np.uint8)
        return _Literals(pieces, [*alphabet, null], nulls, padded, self, column)

    def _float_pieces(self, data) -> list | None:
        places = self.places
        if places is None:
            return _decimal_pieces(data, _REPR_DIGITS, True)
        if 0 <= places <= _MAX_TABLE_DIGITS:
            return _decimal_pieces(data, places, False)
        return None


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
                return self.days[value.toordinal()].decode()  # columnar-ok: per value
            value = self.formatter.format(value)  # columnar-ok: object fallback
        return csv_escape(value, self.specials)

    def text_frame(self, charset):
        # proven quote-free without scanning a value
        return ("", "") if self.specials.isdisjoint(charset) else None

    frame = text_frame


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

    def text_frame(self, charset):
        return ('"', '"') if _JSON_ESCAPED.isdisjoint(charset) else None


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

    def text_frame(self, charset):
        return ("'", "'") if "'" not in charset else None


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

    def text_frame(self, charset):
        # no number charset holds a character XML escapes
        return (self.open, self.close) if charset.isdisjoint("&<>") else None

    frame = text_frame


def _compact(count: int, run: list, marker: int | None = None) -> str:
    """The text of a run of constants and byte literals over *count*
    rows: one row-major ``uint8`` matrix, every row a copy of the run's
    constant bytes with the literal matrices laid in, NULL rows
    overwritten, the NUL padding dropped in one compaction — and, when
    *marker* is given, that byte closing every row."""
    template = bytearray()  # the row's constant bytes, matrix slots NUL
    matrices: list = []  # (slot, matrix)
    nulls: list = []  # (slot, mask, null bytes)
    for piece in ([*run, chr(marker)] if marker else run):
        if isinstance(piece, str):
            template += piece.encode()
            continue
        start = len(template)
        for part in piece.pieces:
            if part.ndim == 1:
                template += part.tobytes()
            else:
                matrices.append((slice(len(template), len(template) + part.shape[1]), part))
                template += bytes(part.shape[1])
        if piece.nulls is not None:
            nulls.append((slice(start, len(template)), piece.nulls, piece.null))
    out = _np.empty((count, len(template)), dtype=_np.uint8)
    out[:] = _np.frombuffer(template, dtype=_np.uint8)
    for slot, matrix in matrices:
        out[:, slot] = matrix
    for slot, mask, null in nulls:
        out[mask, slot] = null
    return out.tobytes().translate(None, b"\0").decode()


def _marker(run: list) -> int | None:
    """A control byte no piece of *run* can contain, or ``None``."""
    alphabet = b"".join(chain.from_iterable(
        piece.alphabet if isinstance(piece, _Literals) else [piece.encode()]
        for piece in run
    ))
    return next((marker for marker in _MARKERS if marker not in alphabet), None)


def _runs(row: list) -> list:
    """A row template — constants, byte literals and per-value text
    lists — as ``[run, texts, run, ..., texts, run]``: the text lists,
    and between them the runs of constants and byte literals."""
    runs: list = [[]]
    for piece in row:
        if isinstance(piece, list):
            runs += [piece, []]
        else:
            runs[-1].append(piece)
    return runs


def _format_block(
    count: int, policies: list, columns: list, lead: str, separators: list[str],
    tail: str,
) -> str:
    """The text of a whole column block — per row ``lead``, the column
    literals with ``separators[i]`` between column *i* and *i + 1*, then
    ``tail`` — byte-identical to the writer's ``write_rows`` over
    ``block.to_rows()``. ``policies[i]`` spells column *i*.

    Typed columns take their byte kernels at any block size: a range
    too short for their fixed cost to pay is no block
    (``output.formats.format_package``). Each maximal run of them, with
    the constants around it, is one compaction: the whole chunk when
    every column is typed, else one string per row, cut at a marker byte
    the run provably lacks, which one join over every piece of every row
    then sets beside the per-value texts of the other columns.
    """
    if count == 0:
        return ""
    if not columns:
        return (lead + tail) * count
    usable = "\0" not in lead + tail + "".join(separators)
    row: list = [lead]
    for policy, column, constant in zip(policies, columns, [*separators, tail]):
        literals = policy.literals(column) if usable else None
        # a proven text frame folds into the constants around it
        prefix, texts, suffix = ("", literals, "") if literals is not None else policy.framed(column)
        row[-1] += prefix
        row += [texts, suffix + constant]
    if not any(isinstance(piece, _Literals) for piece in row):
        return _interleave(row[1::2], row[0], row[2:-1:2], row[-1])
    runs = _runs(row)
    if len(runs) == 1:
        return _compact(count, runs[0])
    pieces: list = []
    for index, part in enumerate(runs):
        if index % 2:
            pieces.append(part)
            continue
        # the constants at either end stay out of the matrix: the join
        # copies them
        where = [offset for offset, piece in enumerate(part) if isinstance(piece, _Literals)]
        first, last = (where[0], where[-1] + 1) if where else (0, 0)
        marker = _marker(part[first:last]) if where else None
        if marker is not None:
            texts = _compact(count, part[first:last], marker).split(chr(marker))
            texts.pop()
            pieces += [*part[:first], texts, *part[last:]]
            continue
        # constants only, or no marker: the run's columns go per value
        pieces += [
            piece.policy.column(piece.column) if isinstance(piece, _Literals) else piece
            for piece in part
        ]
    # one join over every piece of every row
    return "".join(chain.from_iterable(zip(*(
        repeat(piece) if isinstance(piece, str) else piece
        for piece in pieces if piece != ""
    ))))


def _interleave(columns: list, lead: str, separators: list[str], tail: str) -> str:
    """Rows of per-value column texts: with one separator two C-level
    joins, the row frame folded into the outer; else one join per row."""
    if len(set(separators)) <= 1:
        join = (separators[0] if separators else "").join
        return lead + (tail + lead).join(map(join, zip(*columns))) + tail
    parts: list = [repeat(lead)]
    for column, separator in zip(columns, [*separators, tail]):
        parts += (column, repeat(separator))
    return "".join(map("".join, zip(*parts)))


def format_csv_block(block, writer) -> str:
    """The CSV text of a whole column block — byte-identical to
    ``writer.write_rows(block.to_rows())``."""
    columns = block.columns
    separators = [writer.delimiter] * (len(columns) - 1)
    return _format_block(
        block.count, [writer._texts] * len(columns), columns, "", separators,
        writer.terminator,
    )
