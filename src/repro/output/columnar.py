"""Column-at-a-time text formatting over typed column blocks.

The paper's lazy-formatting argument (Figure 9: formatting dominates
generation cost) is only fully cashed in when formatting happens at
*array* level: a typed column becomes the UTF-8 bytes of its literals
without a Python string per cell. Each typed kind has one byte kernel
that renders a whole column as a ``(rows, width)`` ``uint8`` matrix of
its literals, padded with NUL — an int's digits by repeated ``// 10``,
a ``places``-rounded double's whole digits plus a fraction table, a
date's text from the day map, a dictionary entry's literal, a boolean's
token — and :func:`_format_block` lays the matrices of a row side by
side with the row's separators and drops every NUL in one compaction.
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
from itertools import chain, repeat
from json.encoder import encode_basestring

import numpy as _np

#: characters ``str(int)`` can emit
_INT_CHARS = frozenset("0123456789-")
#: characters an on-grid decimal's text can emit (sign, digits, point)
_DECIMAL_CHARS = _INT_CHARS | {"."}
_DECIMAL_BYTES = "".join(sorted(_DECIMAL_CHARS)).encode()
#: the powers of ten below 2**64, and those below 2**32 as uint32 (whose
#: division is the cheaper one)
_POWERS = 10 ** _np.arange(20, dtype=_np.uint64)
_POWERS32 = _POWERS[:10].astype(_np.uint32)

#: ``repr`` prints fixed notation down to 1e-4, so four decimals is the
#: widest grid on which "decimal digits, zeros trimmed" is ``repr``.
_REPR_DIGITS = 4
#: the fraction table has ``10**digits`` entries; beyond this many
#: decimals ``float_places`` takes the per-value path.
_MAX_TABLE_DIGITS = 4
#: scaled values below this are exact in float64 *and* at most 15
#: significant digits, which is what makes a decimal text round-trip.
_SCALED_LIMIT = 1e15
#: days a writer's day map keeps; past it a day is rendered per lookup
#: (a run's date columns span a few thousand days)
_DAY_TEXTS_LIMIT = 65_536
#: Blocks shorter than this format every value through ``literal``: a
#: byte kernel pays a dozen numpy calls per column whatever the rows.
#: Measured per block, per-value path vs byte kernels, in us (TPC-H SF
#: 0.02 and the all-typed bench table, 2-core Xeon): ``lineitem`` at 48
#: rows 550 vs 545 (CSV) and 581 vs 597 (JSON), at 64 rows 720 vs 570
#: (CSV), 755 vs 632 (JSON), 747 vs 621 (SQL), 824 vs 644 (XML);
#: ``orders`` CSV 303 vs 310 at 48 rows, 398 vs 329 at 64; ``customer``
#: JSON 276 vs 314 at 64 rows, 416 vs 369 at 96; the typed table's CSV
#: 193 vs 226 at 32 rows, 268 vs 224 at 48. Every format breaks even
#: between 48 and 64 rows, above ``generators.base._KERNEL_MIN_ROWS``.
_MATRIX_MIN_ROWS = 64
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
    """*texts* as a NUL-padded ``(len, width)`` ``uint8`` matrix, or
    ``None`` when one of them holds a NUL — the padding would swallow
    it."""
    if b"\0" in b"".join(texts):
        return None
    width = max(map(len, texts), default=0) or 1
    return _np.array(texts, dtype=f"S{width}").view(_np.uint8).reshape(len(texts), width)


@functools.lru_cache(maxsize=None)
def _fraction_table(digits: int, trim: bool) -> _np.ndarray:
    """``"." + fraction`` for every *digits*-digit fraction as a byte
    table — zeros trimmed down to ``".0"`` as ``repr`` prints them, or
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
    no row is negative)."""
    count = len(str(int(magnitude.max())))
    # one broadcast division per position: 10**(count - 1) ... 10**0
    powers = (_POWERS32 if count <= 9 else _POWERS)[count - 1::-1]
    magnitude = magnitude.astype(powers.dtype, copy=False)[:, None]
    out = (magnitude // powers % 10).astype(_np.uint8)
    out += 48
    out[:, :-1][magnitude < powers[:-1]] = 0  # left of the number's first digit
    if negative is not None:
        rows = _np.flatnonzero(negative)
        lengths = _np.maximum((magnitude[rows] >= powers).sum(axis=1), 1)
        out = _np.concatenate([_np.zeros((len(out), 1), dtype=_np.uint8), out], axis=1)
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
    whole, fraction = _np.divmod(_np.abs(scaled).astype(_np.uint64), scale)
    return [
        _digits(whole, negative if negative.any() else None),
        _np.take(_fraction_table(digits, trim), fraction, axis=0),
    ]


class _Literals:
    """One column's literals as NUL-padded UTF-8 bytes: the ``pieces``
    laid side by side make each row's literal (a piece is a ``(rows,
    width)`` ``uint8`` matrix, or a 1-D constant every row shares), and
    the rows set in ``nulls`` read the ``null`` bytes instead.
    ``alphabet`` holds every byte a literal can contain — a superset,
    which is what proves a row marker absent without reading the rows.
    ``policy`` and ``column`` are the per-value path, for a run that
    finds no marker."""

    __slots__ = ("pieces", "alphabet", "nulls", "null", "policy", "column")

    def __init__(self, pieces, alphabet, nulls, null, policy, column) -> None:
        self.pieces = pieces
        self.alphabet = alphabet
        self.nulls = nulls
        self.null = null
        self.policy = policy
        self.column = column


class _DayTexts(dict):
    """Date ordinal → the UTF-8 bytes of its text literal, filled on
    first lookup: a hit is one C-level ``dict`` read, a miss formats the
    day through the :class:`~repro.output.rows.ValueFormatter` and keeps
    it while the map holds fewer than ``_DAY_TEXTS_LIMIT`` days."""

    def __init__(self, texts: "_ColumnTexts") -> None:
        self._texts = texts

    def __missing__(self, ordinal: int) -> bytes:
        texts = self._texts
        text = texts.text(
            texts.formatter.format(  # columnar-ok: once per distinct day of the writer's life
                datetime.date.fromordinal(ordinal)
            )
        ).encode()
        if len(self) < _DAY_TEXTS_LIMIT:
            self[ordinal] = text
        return text


class _ColumnTexts:
    """One format's literal policy over the shared column kernels.

    :meth:`literals` is a typed column's byte kernel; :meth:`column`
    turns any column into its list of output texts, one value at a
    time; :meth:`literal` is the per-value oracle every kernel must
    equal — it spells one value exactly as the writer's ``write_row``
    does. Subclasses say how the format quotes text and spells a number;
    the constructor takes its NULL / boolean / non-finite tokens.

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
            return self.days[value.toordinal()].decode()  # columnar-ok: the per-value path
        return self.text(self.formatter.format(value))  # columnar-ok: object fallback

    def column(self, column) -> list[str]:
        """One column as output texts (length == block count), one value
        at a time: the path of object and string columns, of blocks under
        ``_MATRIX_MIN_ROWS``, and of a typed column whose kernel declines."""
        kind = column.kind
        if kind not in ("str", "date"):
            # to_pylist has already put None where the mask is set
            return list(map(self.literal, column.to_pylist()))
        if kind == "date":  # a day's literal is its day map entry
            days = map(self.days.__getitem__, column.data.tolist())
            texts = list(map(bytes.decode, days))  # columnar-ok: the per-value path
        else:
            texts = self.strings(column)
        nulls = column.nulls
        if nulls is not None:
            null = self.null
            if texts is column.data:
                texts = list(texts)
            for offset in _np.nonzero(nulls)[0].tolist():
                texts[offset] = null
        return texts

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
            alphabet = _DECIMAL_BYTES + prefix + suffix
            pieces = [
                piece for piece in (
                    _np.frombuffer(prefix, _np.uint8), *pieces,
                    _np.frombuffer(suffix, _np.uint8),
                ) if piece.shape[-1]
            ]
        else:
            if kind == "date":
                present, index = _distinct(data)
                # columnar-ok: one lookup per distinct day of the block
                texts = list(map(self.days.__getitem__, present.tolist()))
            elif kind == "dict":
                entries = column.entries
                if len(entries) > len(data):
                    # Fewer rows than entries: render the picks, not the dictionary.
                    present, index = _distinct(data)
                    entries = list(map(entries.__getitem__, present.tolist()))
                else:
                    index = data
                # columnar-ok: once per dictionary entry (or pick present) per block
                texts = [text.encode() for text in map(self.literal, entries)]
            elif kind == "bool":
                texts, index = [self.false.encode(), self.true.encode()], data.view(_np.uint8)
            else:
                return None
            table = _table(texts)
            if table is None:
                return None
            pieces, alphabet = [_np.take(table, index, axis=0)], table.tobytes()
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
        return _Literals(pieces, alphabet + null, nulls, padded, self, column)

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

    def frame(self, charset):
        # proven quote-free without scanning a value
        return ("", "") if self.specials.isdisjoint(charset) else None

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

    def frame(self, charset):
        # no number charset holds a character XML escapes
        return self.open, self.close


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
    alphabet = b"".join(
        piece.alphabet if isinstance(piece, _Literals) else piece.encode()
        for piece in run
    )
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

    Typed columns of a block of at least ``_MATRIX_MIN_ROWS`` rows take
    their byte kernels. Each maximal run of them, with the constants
    around it, is one compaction: the whole chunk when every column is
    typed, else one string per row, cut at a marker byte the run
    provably lacks, which one join over every piece of every row then
    sets beside the per-value texts of the other columns.
    """
    if count == 0:
        return ""
    if not columns:
        return (lead + tail) * count
    usable = count >= _MATRIX_MIN_ROWS and "\0" not in lead + tail + "".join(separators)
    row: list = [lead]
    for policy, column, constant in zip(policies, columns, [*separators, tail]):
        literals = policy.literals(column) if usable else None
        row += [policy.column(column) if literals is None else literals, constant]
    if not any(isinstance(piece, _Literals) for piece in row):
        return _interleave(row[1::2], lead, separators, tail)
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
