"""Vectorized CSV formatting over typed column blocks.

The paper's lazy-formatting argument (Figure 9: formatting dominates
generation cost) is only fully cashed in when formatting happens at
*array* level: an int64 column becomes text in one ``astype(str)``, a
date column converts once per distinct day, a dictionary column escapes
each entry once and indexes the results. This module is that sink-side
half of the columnar pipeline — it consumes the
:class:`~repro.columnar.ColumnBlock` the engine produced and emits
exactly the bytes :meth:`CsvWriter.write_rows` would have produced from
the transposed rows.

Byte-identity is the contract, not a goal: every fast path here mirrors
a verified formatting equivalence (``astype(str)`` vs ``str(int)``,
``%.Nf`` vs ``f\"{v:.Nf}\"``, ``repr`` over ``tolist`` floats,
``np.where`` vs the bool branch), and any column whose representation
cannot be proven safe falls back to the per-value loop ``write_rows``
runs — correct first, fast where provable.
"""

from __future__ import annotations

import datetime

import numpy as _np

#: characters ``str(int)`` can emit
_INT_CHARS = frozenset("0123456789-")
#: characters ``repr(float)`` / ``%.Nf`` can emit (incl. inf/nan/exponent)
_FLOAT_CHARS = frozenset("0123456789-+.einfa")
#: characters of the formatter's ``true``/``false`` tokens
_BOOL_CHARS = frozenset("truefalse")


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


def _escape_all(texts: list[str], charset: frozenset, specials: frozenset) -> list[str]:
    """Escape a whole column, skipping the scan when *charset* proves it
    cannot contain a special character."""
    if specials.isdisjoint(charset):
        return texts
    return [csv_escape(text, specials) for text in texts]


def _column_text(column, formatter, specials: frozenset) -> list[str]:
    """One column as escaped output strings (length == block count)."""
    kind = column.kind
    if kind == "int":
        texts = _escape_all(column.data.astype(str).tolist(), _INT_CHARS, specials)
    elif kind == "float":
        places = formatter.float_places
        if places is not None:
            # numpy applies the % operator elementwise — the same
            # ``%.Nf`` text as the value formatter's f-string.
            texts = _np.char.mod("%%.%df" % places, column.data).tolist()
        else:
            texts = [repr(value) for value in column.data.tolist()]
        texts = _escape_all(texts, _FLOAT_CHARS, specials)
    elif kind == "bool":
        texts = _escape_all(
            _np.where(column.data, "true", "false").tolist(), _BOOL_CHARS, specials
        )
    elif kind == "date":
        uniques, inverse = _np.unique(column.data, return_inverse=True)
        cache = column.cache
        fromordinal = datetime.date.fromordinal
        unique_texts = _np.empty(len(uniques), dtype=object)
        for index, ordinal in enumerate(uniques.tolist()):
            value = cache.get(ordinal)
            if value is None:
                value = cache[ordinal] = fromordinal(ordinal)
            unique_texts[index] = csv_escape(
                formatter.format(value), specials  # columnar-ok: once per distinct day, not per row
            )
        texts = unique_texts[inverse].tolist()
    elif kind == "dict":
        entry_texts = [
            csv_escape(formatter.format(entry), specials)  # columnar-ok: once per dictionary entry, not per row
            for entry in column.entries
        ]
        texts = [entry_texts[index] for index in column.data.tolist()]
    elif kind == "str":
        charset = column.charset
        if charset is not None and specials.isdisjoint(charset):
            # Proven quote-free at bind time: pass the strings through.
            texts = column.data if column.nulls is None else list(column.data)
        else:
            texts = [csv_escape(text, specials) for text in column.data]
    else:
        # Object columns — exactly the per-value loop write_rows runs.
        fmt = formatter.format
        texts = [
            csv_escape(fmt(value), specials)  # columnar-ok: object fallback
            for value in column.data
        ]
    nulls = column.nulls
    if nulls is not None:
        null_text = csv_escape(formatter.null_token, specials)
        if texts is column.data:
            texts = list(texts)
        for offset in _np.nonzero(nulls)[0].tolist():
            texts[offset] = null_text
    return texts


def format_csv_block(block, writer) -> str:
    """The CSV text of a whole column block — byte-identical to
    ``writer.write_rows(block.to_rows())``."""
    count = block.count
    if count == 0:
        return ""
    terminator = writer.terminator
    if not block.columns:
        return terminator * count
    formatter = writer.formatter
    specials = writer.specials
    columns_text = [
        _column_text(column, formatter, specials) for column in block.columns
    ]
    join = writer.delimiter.join
    return terminator.join(map(join, zip(*columns_text))) + terminator
