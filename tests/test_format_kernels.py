"""The column text kernels against their oracles, for CSV, JSON, SQL and
XML.

``output/columnar.py`` leaves the per-value loop only where it can prove
the bytes stay the same (DESIGN §3.1). These properties are that proof's
test: every byte kernel — the digit matrix, the scaled-integer float
text, the day map, the dictionary and boolean tables, the one compaction
of an all-typed block and the marker split of a mixed one — must equal
``write_rows(block.to_rows())`` per block and the writer's own
``write_row`` spelling per value, on inputs chosen to sit on both sides
of every rule (NUL in a padded literal, a delimiter numbers can print,
exactness, a usable row marker, block size) and to break naive quoting.
The cache tests pin what lives across packages, what bounds it, and
that each distinct day is rendered once per writer.
"""

from __future__ import annotations

import datetime
import decimal
import math
import threading

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import columnar
from repro.api import Dataset
from repro.engine import SCALAR_ROWS, GenerationEngine
from repro.exceptions import OutputError
from repro.model.schema import Field, GeneratorSpec, Schema, Table
from repro.output import columnar as column_texts
from repro.output.columnar import _MARKERS, csv_escape
from repro.output.config import OutputConfig
from repro.output.formats import _WRITERS_PER_TABLE, _bound_writer, format_package
from repro.output.rows import ValueFormatter
from repro.output.writers import CsvWriter, JsonWriter, SqlWriter, XmlWriter
from repro.scheduler.work import WorkPackage, partition_rows

FORMATS = ("csv", "json", "sql", "xml")
WRITERS = {"csv": CsvWriter, "json": JsonWriter, "sql": SqlWriter, "xml": XmlWriter}
#: both sides of the scalar cut and of 64 (the byte kernels' former
#: cutover), and the empty block; 200 stays last
SIZES = (0, 1, SCALAR_ROWS - 1, SCALAR_ROWS, SCALAR_ROWS + 1, 63, 64, 65, 200)

_settings = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: delimiters that collide with what numbers, booleans and NULL can print
DELIMITERS = ("|", ",", "\t", "1", "-", ".", "e", "t", "n", "'", "0")
HOSTILE_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from("|,\"'\\\n\r\t\x00\x1f\x7f{}:%1-.e &<>/"),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=12,
)
DATE_FORMATS = ("%Y-%m-%d", "%d|%m|%Y", "%d'%m\"%Y", "%Y\n%j", "%m/%d/%Y")


def _writer(fmt: str, names, delimiter: str = "|", **formatter_options):
    formatter = ValueFormatter(**formatter_options)
    if fmt == "csv":
        return CsvWriter("t", names, formatter, delimiter=delimiter)
    return WRITERS[fmt]("t", names, formatter)


def _check(block, fmt: str, delimiter: str = "|", **formatter_options) -> None:
    """Block path == row path, cold and warm, and per value."""
    writer = _writer(fmt, block.names, delimiter, **formatter_options)
    oracle = _writer(fmt, block.names, delimiter, **formatter_options)
    rows = block.to_rows()
    expected = oracle.write_rows(rows)
    assert writer.write_block(block) == expected
    assert writer.write_block(block) == expected  # warm caches change nothing
    assert expected == "".join(oracle.write_row(row) for row in rows)
    if len(block.columns) == 1 and fmt == "csv":
        # one column, so a row is one value and the terminator
        specials = writer.specials
        texts = writer._texts.column(block.columns[0])
        assert list(texts) == [
            csv_escape(oracle.formatter.format(row[0]), specials) for row in rows
        ]


def _days(writer, column: int = 0):
    """The day map of one column's policy (XML keeps one per column)."""
    texts = writer._texts
    return (texts[column] if isinstance(texts, list) else texts).days


def _check_formats(block, delimiter: str = "|", **formatter_options) -> None:
    for fmt in FORMATS:
        _check(block, fmt, delimiter, **formatter_options)


def _block(*columns) -> columnar.ColumnBlock:
    names = [f"c{index}" for index in range(len(columns))]
    return columnar.ColumnBlock(names, list(columns), len(columns[0]))


def _mask(draw, size: int):
    """No mask, or one drawn row by row."""
    if size == 0 or not draw(st.booleans()):
        return None
    return np.array(
        draw(st.lists(st.booleans(), min_size=size, max_size=size)), dtype=bool
    )


# -- ints ---------------------------------------------------------------------


@st.composite
def int_columns(draw):
    size = draw(st.sampled_from(SIZES))
    # spans on both sides of the table rule (span <= size // 2)
    span = draw(st.sampled_from((0, size // 2, size // 2 + 1, 10 * size + 7)))
    base = draw(st.sampled_from((
        columnar.INT64_MIN, columnar.INT64_MAX - span, 0, -span // 2, 10**12,
    )))
    values = draw(st.lists(
        st.integers(base, base + span), min_size=size, max_size=size
    ))
    if size >= 2:
        values[0], values[-1] = base, base + span  # the span is exact
    return columnar.IntColumn(np.array(values, dtype=np.int64), _mask(draw, size))


class TestIntKernel:
    @_settings
    @given(column=int_columns(), delimiter=st.sampled_from(DELIMITERS))
    def test_equals_rows(self, column, delimiter):
        _check_formats(_block(column), delimiter, null_token="\\N")

    def test_full_int64_range_in_one_block(self):
        values = [columnar.INT64_MIN, columnar.INT64_MAX] * 20
        _check_formats(_block(columnar.IntColumn(np.array(values, dtype=np.int64))))


# -- floats ---------------------------------------------------------------------

EDGE_FLOATS = (
    0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1e-5, -1e-5, 1e-4,
    0.00015, 5e-324, 1e308, 0.1 + 0.2, 1 / 3, 2.675, 0.5, 1.5, 2.5, -0.5,
    1e15, 1e16, 1e17, -1e15, 123456789012345.6, 99999999999.9999,
    100000000000.0001, 999999999999999.0, 1e15 - 0.125, 4503599627370496.5,
)


@st.composite
def float_columns(draw):
    size = draw(st.sampled_from(SIZES))
    digits = draw(st.integers(0, 6))
    mode = draw(st.sampled_from(("narrow", "wide", "huge", "mixed")))
    if mode == "narrow":  # few distinct decimals: the table
        scaled = st.integers(-7, max(size // 2 - 8, 0))
    elif mode == "wide":  # whole part + fraction table
        scaled = st.integers(-(10**9), 10**9)
    else:  # around the 1e15 limit of the exactness proof
        scaled = st.integers(10**15 - 50, 10**15 + 50)
    grid = scaled.map(lambda n: n / 10**digits)
    if mode == "mixed":
        grid = st.one_of(
            st.sampled_from(EDGE_FLOATS), st.floats(), grid,
        )
    values = draw(st.lists(grid, min_size=size, max_size=size))
    return columnar.FloatColumn(np.array(values, dtype=np.float64), _mask(draw, size))


class TestFloatKernel:
    @_settings
    @given(
        column=float_columns(),
        places=st.one_of(st.none(), st.integers(0, 6)),
        delimiter=st.sampled_from(DELIMITERS),
    )
    def test_equals_rows(self, column, places, delimiter):
        _check_formats(_block(column), delimiter, float_places=places)

    @pytest.mark.parametrize("places", [None, 0, 1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_every_edge_value_alone_and_among_decimals(self, fmt, places):
        """One hostile value in a column that would otherwise pass the
        exactness proof: the column falls back, it never approximates."""
        decimals = [index / 100 for index in range(-20, 20)]
        for edge in EDGE_FLOATS:
            for values in ([edge] * 40, decimals + [edge]):
                column = columnar.FloatColumn(np.array(values, dtype=np.float64))
                _check(_block(column), fmt, float_places=places)

    def test_fixed_places_is_the_f_string(self):
        """``-0.00``, ``nan``, ``inf`` exactly as ``f"{v:.2f}"``."""
        values = [-0.0, -0.001, float("nan"), float("inf"), 1.005, 2.5] * 8
        writer = _writer("csv", ["c0"], float_places=2)
        column = columnar.FloatColumn(np.array(values, dtype=np.float64))
        assert writer.write_block(_block(column)) == "".join(
            f"{value:.2f}\n" for value in values
        )

    def test_exact_columns_take_the_byte_kernel(self):
        """The point of the kernel: no value of an on-grid column goes
        through ``literal`` or the formatter, and no text is built per
        value."""
        values = np.array([0.0, 0.01, 0.05, 0.1, -2.5, 1234.5678] * 500)
        column = columnar.FloatColumn(values)
        writer = _writer("csv", ["c0"])
        assert writer._texts.literals(column) is not None
        with mock.patch.object(
            type(writer._texts), "literal", side_effect=AssertionError("per value")
        ), mock.patch.object(
            writer.formatter, "format", side_effect=AssertionError("per value")
        ):
            text = writer.write_block(_block(column))
        assert text == "".join(f"{value!r}\n" for value in values.tolist())


# -- dates ---------------------------------------------------------------------

MIN_ORDINAL, MAX_ORDINAL = 1, datetime.date.max.toordinal()
assert MAX_ORDINAL == 3_652_059


@st.composite
def date_columns(draw):
    size = draw(st.sampled_from(SIZES))
    ordinals = st.one_of(
        st.sampled_from((MIN_ORDINAL, MAX_ORDINAL, 728_000)),
        st.integers(728_000, 728_030),  # a month: the table
        st.integers(MIN_ORDINAL, MAX_ORDINAL),  # anywhere: the map per row
    )
    values = draw(st.lists(ordinals, min_size=size, max_size=size))
    return columnar.DateColumn(
        np.array(values, dtype=np.int64), nulls=_mask(draw, size)
    )


class TestDateKernel:
    @_settings
    @given(
        column=date_columns(),
        date_format=st.sampled_from(DATE_FORMATS),
        delimiter=st.sampled_from(DELIMITERS),
    )
    def test_equals_rows(self, column, date_format, delimiter):
        _check_formats(
            _block(column), delimiter, date_format=date_format, null_token="NULL"
        )

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_each_day_is_rendered_once_per_writer(self, fmt):
        """Date blocks on both sides of the scalar cut and of 64, and dates
        inside object columns all read the day map: each distinct day is
        rendered once — by the formatter for a custom format, in one
        vectorized step for the ISO default — so 1-row serve reads stay
        hits."""
        days = [datetime.date.fromordinal(728_000 + index % 7) for index in range(100)]
        ordinals = np.array([day.toordinal() for day in days])
        blocks = [
            _block(columnar.DateColumn(ordinals[:size]))
            for size in (1, 5, SCALAR_ROWS - 1, SCALAR_ROWS, SCALAR_ROWS + 1, 63, 64, 100)
        ] + [_block(columnar.ObjectColumn(days[:size])) for size in (1, 64)]
        for date_format in ("%Y-%m-%d", "%d.%m.%Y"):
            writer = _writer(fmt, ["c0"], date_format=date_format)
            oracle = _writer(fmt, ["c0"], date_format=date_format)
            formatted, rendered = [], []
            format, render = writer.formatter.format, _days(writer)._render
            writer.formatter.format = lambda value: formatted.append(value) or format(value)
            _days(writer)._render = lambda ordinals: rendered.extend(ordinals.tolist()) or render(ordinals)
            for block in blocks:
                assert writer.write_block(block) == oracle.write_rows(block.to_rows())
            assert sorted(rendered) == sorted(set(ordinals.tolist()))
            iso = date_format == "%Y-%m-%d"
            assert sorted(formatted) == ([] if iso else sorted(set(days)))
            assert len(_days(writer)) == 7

    def test_day_map_stops_growing_at_cache_limit(self):
        """The map's span of days grows in both directions up to the
        bound; a block whose days would widen it further renders its
        own days and leaves the map as it was."""
        spans = ((728_010, 728_011), (728_009, 728_012), (728_008, 728_013))
        with mock.patch.object(column_texts, "_DAY_TEXTS_LIMIT", 4):
            for fmt in FORMATS:
                writer = _writer(fmt, ["c0"])
                for first, last in spans * 2:
                    ordinals = np.arange(first, last + 1).repeat(128)
                    block = _block(columnar.DateColumn(ordinals))
                    expected = _writer(fmt, ["c0"]).write_rows(block.to_rows())
                    assert writer.write_block(block) == expected
                assert len(_days(writer)) == 4
                assert (_days(writer).low, len(_days(writer).table)) == (728_009, 4)


# -- text: strings, dictionaries, objects, key names -------------------------------


@st.composite
def text_blocks(draw):
    size = draw(st.sampled_from(SIZES[:-1]))  # text is drawn per character
    texts = draw(st.lists(HOSTILE_TEXT, min_size=size, max_size=size))
    proven = frozenset("".join(texts)) if draw(st.booleans()) else None
    entries = draw(st.lists(HOSTILE_TEXT, min_size=1, max_size=2 * size + 1))
    picks = draw(st.lists(
        st.integers(0, len(entries) - 1), min_size=size, max_size=size
    ))
    objects = draw(st.lists(OBJECT_VALUES, min_size=size, max_size=size))
    flags = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    columns = [
        columnar.StrColumn(list(texts), charset=proven, nulls=_mask(draw, size)),
        columnar.DictColumn(
            np.array(picks, dtype=np.int64), entries, nulls=_mask(draw, size)
        ),
        columnar.ObjectColumn(objects, _mask(draw, size)),
        columnar.BoolColumn(np.array(flags, dtype=bool), _mask(draw, size)),
    ]
    names = draw(st.lists(
        HOSTILE_TEXT, min_size=len(columns), max_size=len(columns),
        unique=draw(st.booleans()),
    ))
    return columnar.ColumnBlock(names, columns, size)


OBJECT_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), st.floats(),
    st.sampled_from(EDGE_FLOATS), HOSTILE_TEXT, st.binary(max_size=4),
    st.dates(), st.datetimes(),
    st.decimals(allow_nan=False, allow_infinity=False, places=2),
)


class TestTextKinds:
    @_settings
    @given(
        block=text_blocks(),
        delimiter=st.sampled_from(DELIMITERS),
        null_token=st.sampled_from(("", "NULL", "\\N", "a|b", 'q"', "it's")),
    )
    @example(
        block=columnar.ColumnBlock(
            ["same", "same"],
            [columnar.ObjectColumn([1, 2]), columnar.ObjectColumn(["x", "y"])], 2,
        ),
        delimiter="|", null_token="",
    )
    def test_equals_rows(self, block, delimiter, null_token):
        _check_formats(block, delimiter, null_token=null_token)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_no_columns(self, fmt):
        block = columnar.ColumnBlock([], [], 3)
        _check(block, fmt)

    def test_object_values_keep_their_types(self):
        """Decimal, bytes and datetime reach the formatter; numpy's float
        subclass prints as json.dumps prints it."""
        values = [
            decimal.Decimal("1.50"), b"\x00\xff", datetime.datetime(2020, 1, 2, 3, 4),
            np.float64(1.5), True, 2**80, None, math.nan,
        ]
        for fmt in ("json", "sql", "xml"):
            _check(_block(columnar.ObjectColumn(list(values))), fmt)


# -- mixed blocks: runs, markers and the one compaction ---------------------------

#: every byte the assembler could cut a run at, NUL, and multi-byte UTF-8
CUTTING_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from("\x00é€😀|,\"'-.0e<&"),
        st.sampled_from([chr(marker) for marker in _MARKERS]),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=6,
)
#: a text holding every marker byte: no run around it has one to spare
ALL_MARKERS = "".join(map(chr, _MARKERS))
#: a dictionary's first entries: no marker to spare, a NUL inside, the
#: first marker, multi-byte UTF-8, a plain word
HOSTILE_ENTRIES = (ALL_MARKERS, "nul\x00", "\x01", "é€😀", "word")
#: delimiters that numbers, signs, points and exponents print
NUMBER_DELIMITERS = ("|", "0", "1", "-", ".", "e")
MIXED_SIZES = (SCALAR_ROWS - 1, SCALAR_ROWS, SCALAR_ROWS + 1, 63, 64, 101)
TYPED_KINDS = ("int", "float", "date", "dict", "bool")


def _typed_column(draw, kind: str, size: int):
    nulls = _mask(draw, size)
    if kind == "int":
        values = st.one_of(
            st.sampled_from((columnar.INT64_MIN, columnar.INT64_MAX, 0, -1, -10, 9)),
            st.integers(columnar.INT64_MIN, columnar.INT64_MAX),
            st.integers(-1000, 10**6),
        )
        return columnar.IntColumn(np.array(
            draw(st.lists(values, min_size=size, max_size=size)), dtype=np.int64
        ), nulls)
    if kind == "float":
        decimal_grid = st.integers(-(10**7), 10**7).map(lambda n: n / 100)
        values = st.one_of(
            decimal_grid, decimal_grid,
            st.sampled_from((-0.0, math.nan, math.inf, -math.inf, 1e15, 2e15, 1e-5)),
        )
        return columnar.FloatColumn(np.array(
            draw(st.lists(values, min_size=size, max_size=size)), dtype=np.float64
        ), nulls)
    if kind == "date":
        ordinals = st.one_of(
            st.integers(728_000, 728_040), st.integers(MIN_ORDINAL, MAX_ORDINAL)
        )
        return columnar.DateColumn(np.array(
            draw(st.lists(ordinals, min_size=size, max_size=size)), dtype=np.int64
        ), nulls=nulls)
    if kind == "dict":
        entries = draw(st.lists(
            st.sampled_from(HOSTILE_ENTRIES), min_size=1, max_size=3, unique=True
        ))
        entries += draw(st.lists(CUTTING_TEXT, max_size=5))
        picks = st.integers(0, len(entries) - 1)
        return columnar.DictColumn(np.array(
            draw(st.lists(picks, min_size=size, max_size=size)), dtype=np.int64
        ), entries, nulls)
    return columnar.BoolColumn(np.array(
        draw(st.lists(st.booleans(), min_size=size, max_size=size)), dtype=bool
    ), nulls)


@st.composite
def mixed_blocks(draw):
    """A run of typed columns first, in the middle, last or alone among
    string and object columns, sometimes a second run, on both sides of
    the scalar cut and of 64."""
    size = draw(st.sampled_from(MIXED_SIZES))
    texts = draw(st.lists(CUTTING_TEXT, min_size=size, max_size=size))
    others = [
        columnar.StrColumn(
            texts, charset=frozenset("".join(texts)) if draw(st.booleans()) else None,
            nulls=_mask(draw, size),
        ),
        columnar.ObjectColumn(
            draw(st.lists(OBJECT_VALUES, min_size=size, max_size=size)), _mask(draw, size)
        ),
    ]
    run = [
        _typed_column(draw, kind, size)
        for kind in draw(st.lists(
            st.sampled_from(TYPED_KINDS), min_size=1, max_size=4, unique=True
        ))
    ]
    position = draw(st.sampled_from(("first", "middle", "last", "alone", "twice")))
    if position == "first":
        columns = run + others
    elif position == "middle":
        columns = others[:1] + run + others[1:]
    elif position == "last":
        columns = others + run
    elif position == "alone":
        columns = run
    else:
        columns = run + others[:1] + [_typed_column(draw, "dict", size)] + others[1:]
    names = [f"c{index}" for index in range(len(columns))]
    return columnar.ColumnBlock(names, columns, size)


class TestMixedBlocks:
    @_settings
    @given(
        block=mixed_blocks(),
        delimiter=st.sampled_from(NUMBER_DELIMITERS),
        null_token=st.sampled_from(("", "NULL", "a\x00b", "\x01", ALL_MARKERS)),
        date_format=st.sampled_from(("%Y-%m-%d", "%Y\x00%m", "%d\x01%m|%Y")),
        places=st.sampled_from((None, 0, 2, 6)),
    )
    def test_equals_rows(self, block, delimiter, null_token, date_format, places):
        _check_formats(
            block, delimiter, null_token=null_token, date_format=date_format,
            float_places=places,
        )

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_run_without_a_marker_goes_per_value(self, fmt):
        """A dictionary holding every marker byte beside a string column:
        the run has no byte to cut at, so its columns take ``literal``."""
        size = 64
        block = _block(
            columnar.DictColumn(np.arange(size) % 2, ["a", ALL_MARKERS]),
            columnar.IntColumn(np.arange(size, dtype=np.int64) - 7),
            columnar.StrColumn(["x"] * size),
        )
        _check(block, fmt)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_all_typed_block_is_one_compaction(self, fmt):
        """No string per row: the chunk is the one compaction's text."""
        size = 128
        block = _block(
            columnar.IntColumn(np.arange(size, dtype=np.int64) * -3),
            columnar.FloatColumn(np.arange(size) / 4),
            columnar.DateColumn(np.arange(size, dtype=np.int64) + 728_000),
            columnar.DictColumn(np.arange(size) % 3, ["é", "b|c", "'"]),
            columnar.BoolColumn(np.arange(size) % 2 == 0),
        )
        writer, oracle = _writer(fmt, block.names), _writer(fmt, block.names)
        with mock.patch.object(
            column_texts, "_compact", wraps=column_texts._compact
        ) as compact, mock.patch.object(
            column_texts._ColumnTexts, "column", side_effect=AssertionError("per value")
        ):
            text = writer.write_block(block)
        assert compact.call_count == 1 and compact.call_args.args[2:] == ()
        assert text == oracle.write_rows(block.to_rows())


# -- the interleave, through a generated table ------------------------------------


def _schema(rows: int) -> Schema:
    schema = Schema("kernels", seed=23)
    schema.add_table(Table("t", str(rows), [
        Field.of("id", "BIGINT", GeneratorSpec("IdGenerator"), primary=True),
        Field.of("qty", "BIGINT", GeneratorSpec(
            "LongGenerator", {"min": -3, "max": 40}
        )),
        Field.of("price", "DECIMAL(12,2)", GeneratorSpec(
            "DoubleGenerator", {"min": -50.0, "max": 90000.0, "places": 2}
        )),
        Field.of("tax", "DECIMAL(4,2)", GeneratorSpec(
            "DoubleGenerator", {"min": 0.0, "max": 0.08, "places": 2}
        )),
        Field.of("raw", "DOUBLE", GeneratorSpec(
            "DoubleGenerator", {"min": 0.0, "max": 1.0}
        )),
        Field.of("day", "DATE", GeneratorSpec(
            "DateGenerator", {"min": "1995-01-01", "max": "1995-01-05"}
        )),
        Field.of("mode", "VARCHAR(8)", GeneratorSpec(
            "DictListGenerator", {"values": ["AIR", "RAIL", "it's", 'q"|']}
        )),
        Field.of("gone", "BIGINT", GeneratorSpec(
            "NullGenerator", {"probability": 0.3},
            [GeneratorSpec("LongGenerator", {"min": 0, "max": 9})],
        )),
    ]))
    return schema


class TestGeneratedTable:
    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("places", [None, 2, 5])
    def test_every_cut_equals_rows(self, fmt, places):
        engine = GenerationEngine(_schema(400))
        for start, stop in (
            (0, 400), (7, 7 + SCALAR_ROWS - 1), (7, 7 + SCALAR_ROWS),
            (7, 7 + SCALAR_ROWS + 1), (7, 7 + 63), (7, 7 + 64), (300, 301),
        ):
            block = engine.generate_columns("t", start, stop)
            _check(block, fmt, float_places=places, null_token="NULL")


# -- what lives across packages, and what bounds it -------------------------------


#: package sizes on both sides of the scalar cut and of 64 (the byte
#: kernels' former cutover)
_PACKAGE_ROWS = (1, SCALAR_ROWS - 1, SCALAR_ROWS, SCALAR_ROWS + 1, 63, 64, 200)


@pytest.fixture(scope="module")
def warm_and_cold():
    return GenerationEngine(_schema(400)), GenerationEngine(_schema(400))


class TestRenderCacheLifetime:
    @_settings
    @given(
        fmt=st.sampled_from(FORMATS),
        # the shipped bound, and one below the model's five days
        limit=st.sampled_from((column_texts._DAY_TEXTS_LIMIT, 3)),
        places=st.sampled_from((None, 2)),
        cuts=st.lists(
            st.tuples(st.integers(0, 399), st.sampled_from(_PACKAGE_ROWS)),
            min_size=2, max_size=6,
        ),
    )
    def test_writer_that_rendered_other_packages_equals_a_cold_one(
        self, warm_and_cold, fmt, limit, places, cuts
    ):
        """The long-lived writer's state (the day map, full or not) is
        rendered text only: whatever packages it has seen, in whatever
        order, the next one gets a cold writer's bytes."""
        warm, cold = warm_and_cold
        output = OutputConfig(format=fmt, float_places=places, null_token="NULL")
        warm.bound_table("t").writers.clear()
        with mock.patch.object(column_texts, "_DAY_TEXTS_LIMIT", limit):
            for sequence, (start, rows) in enumerate(cuts):
                package = WorkPackage("t", start, min(start + rows, 400), sequence)
                cold.bound_table("t").writers.clear()
                assert format_package(warm, output, package) == format_package(
                    cold, output, package
                )
        assert len(warm.bound_table("t").writers) == 1

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_second_package_renders_no_day_the_first_rendered(self, fmt):
        engine = GenerationEngine(_schema(400))

        def day_map(output):
            return _days(_bound_writer(engine.bound_table("t"), output), column=5)

        output = OutputConfig(format=fmt)
        first, second = partition_rows("t", 400, 200)
        format_package(engine, output, first)
        days = day_map(output)
        table = days.table
        assert len(days) == 5  # five days in the model
        with mock.patch.object(days, "_render", side_effect=AssertionError("rendered")):
            format_package(engine, output, second)
        assert day_map(output) is days and days.table is table and len(days) == 5
        # another option set is another writer with a map of its own
        other = OutputConfig(format=fmt, date_format="%d.%m.%Y")
        format_package(engine, other, second)
        assert day_map(other) is not days and len(day_map(other)) == 5

    def test_writers_per_table_are_bounded(self):
        dataset = Dataset(GenerationEngine(_schema(40)))
        bodies = {
            delimiter: dataset.slice("t", 0, 40, format="csv", delimiter=delimiter)
            for delimiter in "|,;:!#~^&*+="
        }
        writers = dataset.engine.bound_table("t").writers
        assert len(writers) == _WRITERS_PER_TABLE < len(bodies)
        # an evicted option set still formats the same bytes
        assert dataset.slice("t", 0, 40, format="csv", delimiter="|") == bodies["|"]


# -- edges of the group digits, the day matrix and the text frames ---------------

#: both sides of the scalar cut and of 64 (the byte kernels' former
#: cutover), and a default package
ORACLE_SIZES = (SCALAR_ROWS - 1, SCALAR_ROWS, SCALAR_ROWS + 1, 63, 64, 65, 10_000)
#: both sides of every digit count and 4-digit group, negatives of 1 to
#: 19 digits, and the int64 extremes
DIGIT_EDGES = sorted({
    0, 9_999, 10_000, 99_999_999, 100_000_000, columnar.INT64_MIN, columnar.INT64_MAX,
    *(10**k - 1 for k in range(1, 19)), *(10**k for k in range(1, 19)),
    *(1 - 10**k for k in range(1, 19)), *(-(10**k) for k in range(19)),
})


def _cycled(values, size: int, dtype=np.int64) -> np.ndarray:
    return np.resize(np.array(values, dtype=dtype), size)


class TestDigitBoundaries:
    @pytest.mark.parametrize("size", ORACLE_SIZES)
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_int_edges(self, fmt, size):
        """Every edge in one column, the non-negative ones alone (no
        sign column), each digit count as the widest value, and NULLs."""
        edges = _cycled(DIGIT_EDGES, size)
        columns = [edges, edges[edges >= 0], *(
            _cycled([0, 7, 10**k - 1, 10**k, -(10**k)], size) for k in (1, 4, 8, 9, 12, 16, 18)
        )]
        for values in columns:
            _check(_block(columnar.IntColumn(values)), fmt)
        nulls = np.arange(size) % 3 == 0
        _check(_block(columnar.IntColumn(edges, nulls)), fmt, null_token="NULL")

    @pytest.mark.parametrize("size", ORACLE_SIZES)
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_decimal_whole_part_edges(self, fmt, size):
        wholes = [10**k - 1 for k in range(11)] + [10**k for k in range(11)]
        values = [sign * (whole + 0.25) for whole in wholes for sign in (1, -1)]
        column = columnar.FloatColumn(_cycled(values, size, np.float64))
        for places in (None, 2):
            _check(_block(column), fmt, float_places=places)


def _check_writer(writer, oracle, ordinals) -> None:
    """*writer* (a long-lived one) formats a date block of *ordinals* as
    a fresh *oracle* spells its rows."""
    block = _block(columnar.DateColumn(np.asarray(ordinals, dtype=np.int64)))
    assert writer.write_block(block) == oracle.write_rows(block.to_rows())


class TestDayMatrix:
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_span_grows_in_both_directions(self, fmt):
        writer, oracle = _writer(fmt, ["c0"]), _writer(fmt, ["c0"])
        for first, last in ((728_100, 728_110), (728_050, 728_105), (728_090, 728_300),
                            (728_000, 728_400)):
            for size in ORACLE_SIZES:
                _check_writer(writer, oracle, _cycled(np.arange(first, last + 1), size))
        days = _days(writer)
        assert (days.low, len(days.table), len(days)) == (728_000, 401, 401)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_span_past_the_limit_renders_per_block(self, fmt):
        near = np.arange(728_000, 728_050)
        far = [728_000, 900_000, 1, datetime.date.max.toordinal(), 728_049]
        with mock.patch.object(column_texts, "_DAY_TEXTS_LIMIT", 100):
            writer, oracle = _writer(fmt, ["c0"]), _writer(fmt, ["c0"])
            for values in (near, far, near, far):
                for size in ORACLE_SIZES:
                    _check_writer(writer, oracle, _cycled(values, size))
        days = _days(writer)
        assert (days.low, len(days.table), len(days)) == (728_000, 50, 50)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_threads_sharing_a_writer(self, fmt):
        """Serve threads format through one kept writer: spans that
        widen the map both ways at once, and per-value reads beside
        them, still spell every block as a fresh writer does."""
        writer, errors = _writer(fmt, ["c0"]), []

        def work(offset: int) -> None:
            oracle = _writer(fmt, ["c0"])
            for step in range(40):
                first = 728_000 + offset * (step % 7 - 3) * 50
                days = _cycled(np.arange(first, first + 40 + step), 64 + step)
                for block in (
                    _block(columnar.DateColumn(days)),
                    _block(columnar.ObjectColumn(
                        [datetime.date.fromordinal(day) for day in days[:3].tolist()]
                    )),
                ):
                    if writer.write_block(block) != oracle.write_rows(block.to_rows()):
                        errors.append((offset, step))

        threads = [threading.Thread(target=work, args=(offset,)) for offset in (1, -1, 2, -2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []

    @pytest.mark.parametrize("date_format", ["%Y-%m-%d", "%Y|%m|%d"])
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_years_999_1000_and_9999(self, fmt, date_format):
        """``strftime`` prints year 999 with three digits, numpy with
        four: only years 1000 to 9999 take the one-step ISO render."""
        year_1000 = datetime.date(1000, 1, 1).toordinal()
        last = datetime.date.max.toordinal()
        writer = _writer(fmt, ["c0"], date_format=date_format)
        oracle = _writer(fmt, ["c0"], date_format=date_format)
        for first, stop in ((year_1000, year_1000 + 5), (year_1000 - 5, year_1000 + 5),
                            (last - 5, last + 1), (1, 6)):
            for size in ORACLE_SIZES:
                _check_writer(writer, oracle, _cycled(np.arange(first, stop), size))

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_multibyte_format_of_varying_width(self, fmt):
        """Wider days arriving later widen the map's items."""
        date_format = "%A, %d. %B %Y · €"
        writer = _writer(fmt, ["c0"], date_format=date_format)
        oracle = _writer(fmt, ["c0"], date_format=date_format)
        may_first = datetime.date(2017, 5, 1).toordinal()  # a Monday in May
        widths = []
        for first, stop in ((may_first, may_first + 1), (may_first - 300, may_first + 200)):
            for size in ORACLE_SIZES:
                _check_writer(writer, oracle, _cycled(np.arange(first, stop), size))
            widths.append(_days(writer).table.itemsize)
        assert widths[0] < widths[1]


#: what each format escapes or quotes in a text value
TEXT_SPECIALS = {
    "csv": "|\"\n", "json": '"\\' + "".join(map(chr, range(32))), "sql": "'", "xml": "&<>",
}


def _policy(writer):
    texts = writer._texts
    return texts[0] if isinstance(texts, list) else texts


class TestTextFrame:
    @_settings
    @given(
        fmt=st.sampled_from(FORMATS),
        plain=st.frozensets(st.characters(blacklist_categories=("Cs",)), max_size=6),
        specials=st.frozensets(st.sampled_from("|\"\n'&<>\\\x00\x1f\t"), max_size=2),
        data=st.data(),
    )
    def test_frame_is_text(self, fmt, plain, specials, data):
        """With and without each format's specials: a proven frame is
        what ``text`` puts around every value, and a block of the
        charset's strings equals the rows with and without NULLs."""
        charset = plain | specials
        policy = _policy(_writer(fmt, ["c0"]))
        frame = policy.text_frame(charset)
        assert (frame is None) == (not charset.isdisjoint(TEXT_SPECIALS[fmt]))
        size = data.draw(st.sampled_from((1, SCALAR_ROWS, 64)))
        texts = data.draw(st.lists(
            st.text(alphabet=sorted(charset) or "a", max_size=5 if charset else 0),
            min_size=size, max_size=size,
        ))
        if frame is not None:
            assert all(policy.text(text) == frame[0] + text + frame[1] for text in texts)
        for nulls in (None, np.arange(size) % 2 == 0):
            column = columnar.StrColumn(texts, charset=charset, nulls=nulls)
            _check(_block(column, columnar.IntColumn(np.arange(size, dtype=np.int64))), fmt)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_proven_column_skips_the_escape(self, fmt):
        """No value of a proven string column without NULL goes through
        ``text``: its frame folds into the constants around it."""
        size = 128
        texts = ["plain words", "more of them", ""] * (size // 3) + ["x"] * (size % 3)
        block = _block(
            columnar.StrColumn(texts, charset=frozenset("".join(texts))),
            columnar.IntColumn(np.arange(size, dtype=np.int64)),
            columnar.StrColumn(texts, charset=frozenset("".join(texts))),
        )
        writer, oracle = _writer(fmt, block.names), _writer(fmt, block.names)
        with mock.patch.object(
            type(_policy(writer)), "text", side_effect=AssertionError("per value")
        ):
            assert writer.write_block(block) == oracle.write_rows(block.to_rows())


class TestFormatOptions:
    @pytest.mark.parametrize("option", ["date_format", "timestamp_format"])
    def test_nul_in_a_strftime_format_is_refused(self, option):
        """``strftime`` stops at a NUL: ``%Y\\x00%m`` would print the
        year alone. The options are refused by name, in a config and in
        a slice."""
        with pytest.raises(OutputError, match=option):
            OutputConfig(**{option: "%Y\x00%m"})
        with pytest.raises(OutputError, match=option):
            Dataset(GenerationEngine(_schema(40))).slice(
                "t", 0, 10, format="csv", **{option: "%Y\x00%m"}
            )
