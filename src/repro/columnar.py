"""Typed column containers — what ``Generator.generate_block`` returns.

This is the paper's lazy-formatting argument (Figure 9: formatting
dominates generation cost) applied to whole blocks: a generator hands
its column to the output layer *in computed form*, and the sink-side
formatter decides how — and whether — each value ever becomes text.

A :class:`Column` is one field's values over a contiguous row block.
Concrete kinds carry the representation the vectorized formatters
exploit (int64 arrays, date ordinals, dictionary indices, charset-tagged
strings); :class:`ObjectColumn` wraps a plain Python value list and is
what the base ``generate_block`` (the per-row loop) and the list kernels
return.

Canonical-value access is part of the contract: ``column[offset]`` and
``to_pylist()`` return exactly the Python objects the scalar
``generate`` would have produced (``int`` not ``numpy.int64``, memoized
``datetime.date`` objects, ``None`` where the null mask is set), so
sibling lookups and row-writer output are byte-identical to the scalar
oracle.
"""

from __future__ import annotations

import datetime

import numpy as _np

#: int64 bounds — typed integer columns only exist when every value fits.
INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


class Column:
    """One field's values over a contiguous row block.

    ``nulls`` is an optional boolean mask (numpy array, True = NULL)
    attached by wrapper generators; masked offsets read back as ``None``
    regardless of what the underlying data holds.
    """

    __slots__ = ("data", "nulls")

    kind = "object"

    def __init__(self, data, nulls=None) -> None:
        self.data = data
        self.nulls = nulls

    def __len__(self) -> int:
        return len(self.data)

    def add_nulls(self, mask) -> None:
        """Attach (or OR-combine) a null mask."""
        if self.nulls is None:
            self.nulls = mask
        else:
            self.nulls = self.nulls | mask

    def _value(self, offset: int):
        return self.data[offset]

    def __getitem__(self, offset: int):
        nulls = self.nulls
        if nulls is not None and nulls[offset]:
            return None
        return self._value(offset)

    def _pylist(self) -> list:
        return list(self.data)

    def to_pylist(self) -> list:
        """The column as canonical Python values (the row-path objects)."""
        values = self._pylist()
        nulls = self.nulls
        if nulls is not None:
            for offset in _np.nonzero(nulls)[0].tolist():
                values[offset] = None
        return values


class ObjectColumn(Column):
    """A plain Python value list — the universal representation.

    ``data`` is the list itself (zero-copy). NULLs are either inline
    ``None`` values or, under a ``NullGenerator``, set in the mask.
    """

    __slots__ = ()
    kind = "object"

    def _pylist(self) -> list:
        if self.nulls is None:
            return self.data
        return list(self.data)


class IntColumn(Column):
    """int64 numpy values (ids, bounded longs/ints)."""

    __slots__ = ()
    kind = "int"

    def _value(self, offset: int) -> int:
        return int(self.data[offset])

    def _pylist(self) -> list:
        return self.data.tolist()


class FloatColumn(Column):
    """float64 numpy values (doubles, decimals kept as floats)."""

    __slots__ = ()
    kind = "float"

    def _value(self, offset: int) -> float:
        return float(self.data[offset])

    def _pylist(self) -> list:
        return self.data.tolist()


class BoolColumn(Column):
    """numpy boolean values."""

    __slots__ = ()
    kind = "bool"

    def _value(self, offset: int) -> bool:
        return bool(self.data[offset])

    def _pylist(self) -> list:
        return self.data.tolist()


class DateColumn(Column):
    """Dates as proleptic-Gregorian ordinals (int64 numpy array).

    ``cache`` is the generator's ordinal → ``datetime.date`` memo —
    shared across blocks so repeated days (the paper's date-formatting
    cost case) convert once per distinct day, not once per row.
    """

    __slots__ = ("cache",)
    kind = "date"

    def __init__(self, ordinals, cache: dict | None = None, nulls=None) -> None:
        super().__init__(ordinals, nulls)
        self.cache = cache if cache is not None else {}

    def _value(self, offset: int) -> datetime.date:
        ordinal = int(self.data[offset])
        cache = self.cache
        value = cache.get(ordinal)
        if value is None:
            value = cache[ordinal] = datetime.date.fromordinal(ordinal)
        return value

    def _pylist(self) -> list:
        cache = self.cache
        fromordinal = datetime.date.fromordinal
        values: list = []
        append = values.append
        for ordinal in self.data.tolist():
            value = cache.get(ordinal)
            if value is None:
                value = cache[ordinal] = fromordinal(ordinal)
            append(value)
        return values


class DictColumn(Column):
    """Dictionary picks as indices into a small entry list.

    The formatter escapes/encodes each *entry* once and indexes the
    result, so the per-row cost is one array take whatever the entry
    text contains.
    """

    __slots__ = ("entries",)
    kind = "dict"

    def __init__(self, indices, entries: list[str], nulls=None) -> None:
        super().__init__(indices, nulls)
        self.entries = entries

    def _value(self, offset: int) -> str:
        return self.entries[self.data[offset]]

    def _pylist(self) -> list:
        entries = self.entries
        return [entries[index] for index in self.data.tolist()]


class StrColumn(Column):
    """Generated strings, optionally tagged with their character set.

    ``charset`` (a frozenset of characters the generator can possibly
    emit, e.g. a pattern's literals plus wildcard alphabets) lets the
    CSV formatter prove no value needs quoting without scanning any of
    them. ``None`` means unknown — scan per value.
    """

    __slots__ = ("charset",)
    kind = "str"

    def __init__(self, strings: list[str], charset: frozenset | None = None,
                 nulls=None) -> None:
        super().__init__(strings, nulls)
        self.charset = charset

    def _pylist(self) -> list:
        if self.nulls is None:
            return self.data
        return list(self.data)


class ColumnBlock:
    """All columns of one table over a contiguous row block.

    Assembled by :meth:`BoundTable.generate_columns`; consumed by
    ``RowWriter.write_block`` — at array level by the vectorized CSV
    and Arrow writers, transposed back to row lists via :meth:`to_rows`
    by the per-row formats — both views of the same generated values.
    """

    __slots__ = ("names", "columns", "count")

    def __init__(self, names: list[str], columns: list[Column], count: int) -> None:
        self.names = names
        self.columns = columns
        self.count = count

    def __len__(self) -> int:
        return self.count

    def to_rows(self) -> list[list[object]]:
        """Transpose into the row-path representation (canonical values)."""
        if not self.columns:
            return [[] for _ in range(self.count)]
        lists = [column.to_pylist() for column in self.columns]
        return [list(row) for row in zip(*lists)]


def int_column_from_u64(outputs, span: int, minimum: int) -> IntColumn | None:
    """``minimum + (u64 % span)`` as an :class:`IntColumn`, or ``None``
    when the result range does not fit int64 (the caller then keeps
    arbitrary-precision ints in an :class:`ObjectColumn`).

    Mirrors ``blocks.bounded`` + scalar offset elementwise. The modulo
    runs in uint64; the int64 cast and the addition both wrap modulo
    2**64 (two's complement), and because the true result
    ``minimum + (u % span)`` lies in ``[minimum, maximum]`` ⊆ int64 the
    wrapped arithmetic is exact even when ``span`` itself exceeds 2**63.
    """
    maximum = minimum + span - 1
    if minimum < INT64_MIN or maximum > INT64_MAX:
        return None
    bounded = outputs % _np.uint64(span)
    return IntColumn(bounded.astype(_np.int64) + _np.int64(minimum))


def int_column_from_floats(values) -> IntColumn | None:
    """``int(value)`` (truncation toward zero) over a float64 array as an
    :class:`IntColumn`, or ``None`` when a value is not finite or does
    not fit int64 — ``int()`` raises or yields a big int there, which the
    caller's per-value path reproduces."""
    with _np.errstate(invalid="ignore"):
        if not (_np.abs(values) < 2.0**63).all():  # False for nan and inf too
            return None
    return IntColumn(values.astype(_np.int64))


#: Below this many values :func:`round_places` rounds one by one: the
#: array passes cost ~10 us flat against 0.5 us per ``round`` (measured;
#: they break even between 16 and 32 values), and one-row reads stay cheap.
_ROUND_ARRAY_MIN = 16


def round_places(values, places: int):
    """``round(value, places)`` over a float64 array — the same doubles.

    ``round`` is correctly rounded on the exact decimal value of the
    double (ties to even); ``rint(value * 10**places) / 10**places``
    lands on the same double whenever the scaled value is provably not
    at a ``.5`` tie: it is below 2**53 and further from the tie than its
    own rounding error (one ulp bounds it, ``10**places`` being an exact
    double up to 22), so the exact product rounds to the same integer,
    and integer / power of ten is one correctly rounded division — as is
    ``round``'s decimal-to-double step. The few values that fail the
    test, every *places* outside 0..22 and every input too short to pay
    for the array passes go through ``round``.
    """
    if len(values) < _ROUND_ARRAY_MIN or not 0 <= places <= 22:
        return _np.array([round(v, places) for v in values.tolist()], dtype=_np.float64)
    scale = 10.0**places
    with _np.errstate(all="ignore"):  # inf/nan fail the test below
        scaled = values * scale
        magnitude = _np.abs(scaled)
        to_tie = _np.abs(magnitude - _np.floor(magnitude) - 0.5)
        exact = (to_tie > _np.spacing(magnitude)) & (magnitude < 2.0**53)
        rounded = _np.rint(scaled) / scale
    for offset in _np.nonzero(~exact)[0].tolist():
        rounded[offset] = round(float(values[offset]), places)
    return rounded
