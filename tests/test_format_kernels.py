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

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import columnar
from repro.api import Dataset
from repro.engine import GenerationEngine
from repro.generators.base import _KERNEL_MIN_ROWS
from repro.model.schema import Field, GeneratorSpec, Schema, Table
from repro.output import columnar as column_texts
from repro.output.columnar import _MARKERS, _MATRIX_MIN_ROWS, csv_escape
from repro.output.config import OutputConfig
from repro.output.formats import _WRITERS_PER_TABLE, _bound_writer, format_package
from repro.output.rows import ValueFormatter
from repro.output.writers import CsvWriter, JsonWriter, SqlWriter, XmlWriter
from repro.scheduler.work import WorkPackage, partition_rows

FORMATS = ("csv", "json", "sql", "xml")
WRITERS = {"csv": CsvWriter, "json": JsonWriter, "sql": SqlWriter, "xml": XmlWriter}
#: both sides of the byte-kernel cutover, and the empty block
SIZES = (0, 1, _MATRIX_MIN_ROWS - 1, _MATRIX_MIN_ROWS, _MATRIX_MIN_ROWS + 1, 200)

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
        """Date blocks on both sides of the block threshold and dates
        inside object columns all read the day map: the formatter sees
        each distinct day once, so 1-row serve reads stay hits."""
        days = [datetime.date.fromordinal(728_000 + index % 7) for index in range(100)]
        ordinals = np.array([day.toordinal() for day in days])
        writer, oracle = _writer(fmt, ["c0"]), _writer(fmt, ["c0"])
        rendered = []
        render = writer.formatter.format
        writer.formatter.format = lambda value: rendered.append(value) or render(value)
        blocks = [
            _block(columnar.DateColumn(ordinals[:size]))
            for size in (1, 5, _MATRIX_MIN_ROWS - 1, _MATRIX_MIN_ROWS, 100)
        ] + [_block(columnar.ObjectColumn(days[:size])) for size in (1, 64)]
        for block in blocks:
            assert writer.write_block(block) == oracle.write_rows(block.to_rows())
        assert sorted(rendered) == sorted(set(days))
        assert len(_days(writer)) == 7

    def test_day_map_stops_growing_at_cache_limit(self):
        ordinals = np.arange(728_000, 728_050).repeat(2)
        block = _block(columnar.DateColumn(ordinals))
        with mock.patch.object(column_texts, "_DAY_TEXTS_LIMIT", 4):
            for fmt in FORMATS:
                writer = _writer(fmt, block.names)
                oracle = _writer(fmt, block.names)
                expected = oracle.write_rows(block.to_rows())
                for _ in range(3):
                    assert writer.write_block(block) == expected
                assert len(_days(writer)) == 4


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
MIXED_SIZES = (_MATRIX_MIN_ROWS - 1, _MATRIX_MIN_ROWS, _MATRIX_MIN_ROWS + 37)
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
    the cutover."""
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
        size = _MATRIX_MIN_ROWS
        block = _block(
            columnar.DictColumn(np.arange(size) % 2, ["a", ALL_MARKERS]),
            columnar.IntColumn(np.arange(size, dtype=np.int64) - 7),
            columnar.StrColumn(["x"] * size),
        )
        _check(block, fmt)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_all_typed_block_is_one_compaction(self, fmt):
        """No string per row: the chunk is the one compaction's text."""
        size = 2 * _MATRIX_MIN_ROWS
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
            (0, 400), (7, 7 + _KERNEL_MIN_ROWS - 1), (7, 7 + _MATRIX_MIN_ROWS - 1),
            (7, 7 + _MATRIX_MIN_ROWS), (300, 301),
        ):
            block = engine.generate_columns("t", start, stop)
            _check(block, fmt, float_places=places, null_token="NULL")


# -- what lives across packages, and what bounds it -------------------------------


#: package sizes on both sides of the generators' small-block threshold
#: and of the byte-kernel cutover
_PACKAGE_ROWS = (
    1, _KERNEL_MIN_ROWS - 1, _KERNEL_MIN_ROWS, _MATRIX_MIN_ROWS - 1, _MATRIX_MIN_ROWS, 200,
)


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
        rendered = dict(days)
        assert len(rendered) == 5  # five days in the model
        format_package(engine, output, second)
        assert day_map(output) is days
        assert days == rendered and all(days[day] is rendered[day] for day in days)
        # another option set is another writer with a map of its own
        other = OutputConfig(format=fmt, date_format="%d.%m.%Y")
        format_package(engine, other, second)
        assert day_map(other) is not days and len(day_map(other)) == 5

    def test_writers_per_table_are_bounded(self):
        dataset = Dataset(_schema(40))
        bodies = {
            delimiter: dataset.slice("t", 0, 40, format="csv", delimiter=delimiter)
            for delimiter in "|,;:!#~^&*+="
        }
        writers = dataset.engine.bound_table("t").writers
        assert len(writers) == _WRITERS_PER_TABLE < len(bodies)
        # an evicted option set still formats the same bytes
        assert dataset.slice("t", 0, 40, format="csv", delimiter="|") == bodies["|"]
