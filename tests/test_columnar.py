"""Column blocks: typed columns, vectorized CSV, binary formats.

The block formatter's whole contract is byte-identity with the
reference row formatters — these tests pin it at every layer: column
containers return canonical Python values, ``generate_columns``
transposes to exactly the per-row values, ``write_block`` emits exactly
``write_rows``'s text (including the awkward delimiter/date-format
corners that defeat the charset proofs), and the scheduler produces
identical output across backends and across a crash/resume. Arrow/Parquet coverage is split: the
graceful no-pyarrow error is always tested, the real encode/decode round
trips run where pyarrow is installed (CI's arrow leg).
"""

from __future__ import annotations

import datetime

import numpy as np
import pytest

from repro import columnar
from repro.engine import GenerationEngine
from repro.exceptions import OutputError
from repro.model.schema import Field, GeneratorSpec, Schema, Table
from repro.output.arrow import ArrowWriter, have_pyarrow
from repro.output.columnar import csv_escape, format_csv_block
from repro.output.config import OutputConfig
from repro.output.rows import ValueFormatter
from repro.output.writers import CsvWriter
from repro.resilience.faults import FaultInjectingOutput, InjectedCrash
from repro.scheduler import Scheduler

ROWS = 300


def columnar_schema(rows: int = ROWS, seed: int = 7) -> Schema:
    """One table hitting every typed column kind plus object fallbacks."""
    schema = Schema("col", seed=seed)
    schema.add_table(Table("t", str(rows), [
        Field.of("c_id", "BIGINT", GeneratorSpec(
            "IdGenerator", {"base": 100, "step": 7}
        ), primary=True),
        Field.of("c_long", "BIGINT", GeneratorSpec(
            "LongGenerator", {"min": -50, "max": 5000}
        )),
        Field.of("c_money", "DECIMAL(12,2)", GeneratorSpec(
            "DoubleGenerator", {"min": -10.0, "max": 10.0, "places": 2}
        )),
        Field.of("c_double", "DOUBLE", GeneratorSpec(
            "DoubleGenerator", {"min": 0.0, "max": 1.0}
        )),
        Field.of("c_flag", "BOOLEAN", GeneratorSpec(
            "BooleanGenerator", {"true_probability": 0.4}
        )),
        Field.of("c_date", "DATE", GeneratorSpec(
            "DateGenerator", {"min": "1995-01-01", "max": "1995-03-31"}
        )),
        Field.of("c_dict", "VARCHAR(10)", GeneratorSpec(
            "DictListGenerator",
            {"values": ["alpha", "beta", "gamma"], "weights": [5, 3, 2]},
        )),
        Field.of("c_enum", "VARCHAR(10)", GeneratorSpec(
            "DictListGenerator", {"values": ["N1", "N2"], "by_row": True}
        )),
        Field.of("c_phone", "VARCHAR(16)", GeneratorSpec(
            "PatternStringGenerator", {"pattern": "##-@@^^"}
        )),
        Field.of("c_rand", "VARCHAR(8)", GeneratorSpec(
            "RandomStringGenerator", {"min": 2, "max": 8}
        )),
        Field.of("c_null", "BIGINT", GeneratorSpec(
            "NullGenerator", {"probability": 0.3},
            [GeneratorSpec("LongGenerator", {"min": 0, "max": 9})],
        )),
        Field.of("c_ts", "TIMESTAMP", GeneratorSpec(
            "TimestampGenerator", {"min": "1995-01-01", "max": "1995-01-31"}
        )),
    ]))
    return schema


@pytest.fixture(scope="module")
def col_engine() -> GenerationEngine:
    return GenerationEngine(columnar_schema())


@pytest.fixture(scope="module")
def col_block(col_engine):
    return col_engine.generate_columns("t")


# -- column containers --------------------------------------------------------


class TestColumns:
    def test_int_column_canonical_values(self):
        col = columnar.IntColumn(np.array([1, -2, 3], dtype=np.int64))
        assert col[1] == -2
        assert type(col[1]) is int
        assert col.to_pylist() == [1, -2, 3]
        assert all(type(v) is int for v in col.to_pylist())

    def test_null_mask_reads_as_none(self):
        col = columnar.IntColumn(np.array([1, 2, 3], dtype=np.int64))
        col.add_nulls(np.array([False, True, False]))
        assert col[0] == 1 and col[1] is None
        assert col.to_pylist() == [1, None, 3]

    def test_null_masks_or_combine(self):
        col = columnar.IntColumn(np.array([1, 2, 3], dtype=np.int64))
        col.add_nulls(np.array([True, False, False]))
        col.add_nulls(np.array([False, False, True]))
        assert col.to_pylist() == [None, 2, None]

    def test_date_column_memoizes_conversions(self):
        ordinal = datetime.date(1995, 6, 1).toordinal()
        cache: dict = {}
        col = columnar.DateColumn(
            np.array([ordinal, ordinal], dtype=np.int64), cache
        )
        values = col.to_pylist()
        assert values[0] is values[1]  # one date object per distinct day
        assert values[0] == datetime.date(1995, 6, 1)
        assert cache[ordinal] is values[0]

    def test_dict_column_indexes_entries(self):
        col = columnar.DictColumn(
            np.array([2, 0, 1], dtype=np.int64), ["a", "b", "c"]
        )
        assert col.to_pylist() == ["c", "a", "b"]
        assert col[0] == "c"

    def test_block_transpose_and_zero_columns(self):
        block = columnar.ColumnBlock(
            ["x", "y"],
            [
                columnar.IntColumn(np.array([1, 2], dtype=np.int64)),
                columnar.ObjectColumn(["a", "b"]),
            ],
            2,
        )
        assert block.to_rows() == [[1, "a"], [2, "b"]]
        empty = columnar.ColumnBlock([], [], 3)
        assert empty.to_rows() == [[], [], []]

    def test_int_column_from_u64_bounds(self):
        outs = np.array([0, 2**64 - 1, 12345], dtype=np.uint64)
        # Result range beyond int64: caller must fall back.
        assert columnar.int_column_from_u64(outs, 2**64, 0) is None
        assert columnar.int_column_from_u64(outs, 10, 2**63 - 5) is None
        # Span above 2**63 still exact when the result range fits.
        span = 2**63 + 11
        col = columnar.int_column_from_u64(outs, span, -(2**62))
        expected = [-(2**62) + int(v) % span for v in outs.tolist()]
        assert col.to_pylist() == expected


# -- engine columns -----------------------------------------------------------


class TestGenerateColumns:
    def test_typed_kinds(self, col_engine, col_block):
        kinds = dict(zip(col_block.names, (c.kind for c in col_block.columns)))
        assert kinds["c_id"] == "int"
        assert kinds["c_long"] == "int"
        assert kinds["c_money"] == "float"
        assert kinds["c_double"] == "float"
        assert kinds["c_flag"] == "bool"
        assert kinds["c_date"] == "date"
        assert kinds["c_dict"] == "dict"
        assert kinds["c_enum"] == "dict"
        assert kinds["c_phone"] == "str"
        assert kinds["c_rand"] == "str"
        assert kinds["c_null"] == "int"  # typed child column + null mask
        assert kinds["c_ts"] == "object"  # timestamps stay on the object path

    def test_null_wrapper_attaches_mask(self, col_block):
        col = col_block.columns[col_block.names.index("c_null")]
        values = col.to_pylist()
        assert any(v is None for v in values)
        assert any(v is not None for v in values)

    def test_pattern_charset_tagged(self, col_block):
        col = col_block.columns[col_block.names.index("c_phone")]
        assert col.charset is not None
        assert "-" in col.charset and "5" in col.charset

    def test_block_matches_per_row_path(self, col_engine, col_block):
        expected = [col_engine.generate_row("t", row) for row in range(ROWS)]
        assert col_block.to_rows() == expected

    def test_canonical_python_types(self, col_block):
        for row in col_block.to_rows()[:50]:
            for value in row:
                assert not isinstance(value, np.generic), repr(value)

    def test_engine_rows_are_the_transposed_block(self, col_engine, col_block):
        assert col_engine.generate_rows("t") == col_block.to_rows()


# -- vectorized CSV -----------------------------------------------------------


def _writers(**kwargs) -> CsvWriter:
    names = columnar_schema().tables[0].fields
    return CsvWriter("t", [f.name for f in names], **kwargs)


class TestCsvBlock:
    def test_block_equals_rows_default_dialect(self, col_block):
        writer = _writers()
        assert writer.write_block(col_block) == writer.write_rows(
            col_block.to_rows()
        )

    @pytest.mark.parametrize("delimiter", [",", ".", "-", "0"])
    def test_block_equals_rows_hostile_delimiters(self, col_block, delimiter):
        # "." defeats the float charset, "-" the pattern/int charsets,
        # "0" every numeric charset — all must fall back per value and
        # still match the row path byte for byte.
        writer = _writers(delimiter=delimiter)
        assert writer.write_block(col_block) == writer.write_rows(
            col_block.to_rows()
        )

    def test_block_equals_rows_date_format_clash(self, col_block):
        formatter = ValueFormatter(date_format="%Y|%m|%d", null_token="NULL")
        writer = _writers(formatter=formatter)
        text = writer.write_block(col_block)
        reference = _writers(
            formatter=ValueFormatter(date_format="%Y|%m|%d", null_token="NULL")
        )
        assert text == reference.write_rows(col_block.to_rows())
        assert '"1995|' in text  # dates really did get quoted

    def test_null_token_patched_into_typed_columns(self, col_block):
        formatter = ValueFormatter(null_token="\\N")
        writer = _writers(formatter=formatter)
        text = writer.write_block(col_block)
        assert "\\N" in text

    def test_format_csv_block_zero_rows(self, col_engine):
        block = col_engine.generate_columns("t", 0, 0)
        assert format_csv_block(block, _writers()) == ""


class TestCsvQuoting:
    """Satellite regression: quoting triggers on delimiter, quote, and
    terminator — in both the row path and the block fast path."""

    def _row(self, value, **kwargs):
        writer = CsvWriter("t", ["a"], **kwargs)
        return writer.write_row([value])

    def test_quote_char_triggers_quoting(self):
        assert self._row('he said "hi"') == '"he said ""hi"""\n'

    def test_terminator_triggers_quoting(self):
        assert self._row("two\nlines") == '"two\nlines"\n'

    def test_delimiter_triggers_quoting(self):
        assert self._row("a|b") == '"a|b"\n'

    def test_plain_text_unquoted(self):
        assert self._row("plain") == "plain\n"

    def test_block_path_shares_the_helper(self):
        writer = CsvWriter("t", ["a"])
        rows = [['he said "hi"'], ["two\nlines"], ["a|b"], ["plain"]]
        block = columnar.ColumnBlock(
            ["a"], [columnar.ObjectColumn([r[0] for r in rows])], len(rows)
        )
        assert writer.write_block(block) == writer.write_rows(rows)
        assert writer.write_rows(rows) == "".join(
            writer.write_row(row) for row in rows
        )

    def test_csv_escape_helper(self):
        specials = frozenset("|") | {'"'} | frozenset("\n")
        assert csv_escape("plain", specials) == "plain"
        assert csv_escape('a"b', specials) == '"a""b"'


# -- scheduler integration ----------------------------------------------------


def _run_memory(schema_engine, *, workers=1, fmt="csv"):
    output = OutputConfig(kind="memory", format=fmt)
    Scheduler(schema_engine, output, package_size=64, workers=workers).run()
    return {
        table: output.memory_output(table)
        for table in schema_engine.schema.sizes()
    }


class TestSchedulerColumnar:
    def test_inline_process_columnar_identical(self):
        inline = _run_memory(GenerationEngine(columnar_schema()), workers=1)
        processes = _run_memory(GenerationEngine(columnar_schema()), workers=2)
        assert inline == processes

    def test_crash_resume_columnar_byte_identical(self, tmp_path):
        ref_dir = tmp_path / "ref"
        ref_out = OutputConfig(kind="file", format="csv",
                               directory=str(ref_dir))
        Scheduler(
            GenerationEngine(columnar_schema()), ref_out, package_size=64,
        ).run()

        crash_dir = tmp_path / "crash"
        ckpt = str(tmp_path / "ckpt")
        faulty = FaultInjectingOutput(
            OutputConfig(kind="file", format="csv", directory=str(crash_dir)),
            crash_after_writes=2,
        )
        with pytest.raises(InjectedCrash):
            Scheduler(
                GenerationEngine(columnar_schema()), faulty,
                package_size=64, checkpoint=ckpt,
            ).run()
        report = Scheduler(
            GenerationEngine(columnar_schema()),
            OutputConfig(kind="file", format="csv", directory=str(crash_dir)),
            package_size=64, checkpoint=ckpt, resume_from=ckpt,
        ).run()
        assert report.resumed_packages > 0
        assert (crash_dir / "t.tbl").read_bytes() == (
            ref_dir / "t.tbl"
        ).read_bytes()


# -- binary formats without pyarrow -------------------------------------------


@pytest.mark.skipif(have_pyarrow(), reason="pyarrow installed")
class TestBinaryFormatsGated:
    @pytest.mark.parametrize("fmt", ["arrow", "parquet"])
    def test_config_raises_clear_error(self, fmt):
        with pytest.raises(OutputError, match="requires pyarrow"):
            OutputConfig(kind="file", format=fmt)

    def test_write_block_raises_clear_error(self, col_block):
        writer = ArrowWriter("t", list(col_block.names))
        with pytest.raises(OutputError, match="requires pyarrow"):
            writer.write_block(col_block, first=True)


class TestArrowWriterContract:
    def test_row_path_refused(self):
        writer = ArrowWriter("t", ["a"])
        with pytest.raises(OutputError, match="columnar-only"):
            writer.write_rows([[1]])
        with pytest.raises(OutputError, match="columnar-only"):
            writer.write_row([1])

    def test_modes_validated(self):
        with pytest.raises(OutputError, match="unknown arrow writer mode"):
            ArrowWriter("t", ["a"], mode="feather")

    def test_stream_footer_is_eos(self):
        from repro.output.arrow import ARROW_EOS

        assert ArrowWriter("t", ["a"], mode="stream").footer() == ARROW_EOS
        assert ArrowWriter("t", ["a"], mode="parquet").footer() == b""


# -- binary formats with pyarrow (CI arrow leg) -------------------------------


class TestArrowEndToEnd:
    @pytest.fixture(autouse=True)
    def _pa(self):
        self.pa = pytest.importorskip("pyarrow")

    def _expected_rows(self):
        return GenerationEngine(columnar_schema()).generate_rows("t")

    def _as_python(self, table):
        columns = [column.to_pylist() for column in table.columns]
        rows = [list(row) for row in zip(*columns)]
        # Arrow timestamps come back as datetimes already; floats/ints
        # round-trip exactly. Dates are datetime.date.
        return rows

    def test_arrow_stream_round_trip(self, tmp_path):
        output = OutputConfig(
            kind="file", format="arrow", directory=str(tmp_path)
        )
        Scheduler(
            GenerationEngine(columnar_schema()), output, package_size=64,
        ).run()
        with self.pa.ipc.open_stream((tmp_path / "t.arrow").read_bytes()) as r:
            table = r.read_all()
        assert table.num_rows == ROWS
        assert self._as_python(table) == self._expected_rows()

    def test_arrow_stream_multiworker_identical(self, tmp_path):
        for sub, workers in (("a", 1), ("b", 3), ("c", 2)):
            directory = tmp_path / sub
            output = OutputConfig(
                kind="file", format="arrow", directory=str(directory)
            )
            Scheduler(
                GenerationEngine(columnar_schema()), output,
                package_size=64, workers=workers,
            ).run()
        assert (tmp_path / "a" / "t.arrow").read_bytes() == (
            tmp_path / "b" / "t.arrow"
        ).read_bytes()
        assert (tmp_path / "a" / "t.arrow").read_bytes() == (
            tmp_path / "c" / "t.arrow"
        ).read_bytes()

    def test_parquet_row_groups_align_to_packages(self, tmp_path):
        pq = pytest.importorskip("pyarrow.parquet")
        output = OutputConfig(
            kind="file", format="parquet", directory=str(tmp_path)
        )
        Scheduler(
            GenerationEngine(columnar_schema()), output, package_size=64,
        ).run()
        source = pq.ParquetFile(str(tmp_path / "t.parquet"))
        assert source.metadata.num_row_groups == -(-ROWS // 64)
        table = source.read()
        assert table.num_rows == ROWS
        assert self._as_python(table) == self._expected_rows()

    def test_parquet_crash_resume(self, tmp_path):
        pq = pytest.importorskip("pyarrow.parquet")
        ref_dir = tmp_path / "ref"
        Scheduler(
            GenerationEngine(columnar_schema()),
            OutputConfig(kind="file", format="parquet",
                         directory=str(ref_dir)),
            package_size=64,
        ).run()

        crash_dir = tmp_path / "crash"
        ckpt = str(tmp_path / "ckpt")
        faulty = FaultInjectingOutput(
            OutputConfig(kind="file", format="parquet",
                         directory=str(crash_dir)),
            crash_after_writes=2,
        )
        with pytest.raises(InjectedCrash):
            Scheduler(
                GenerationEngine(columnar_schema()), faulty,
                package_size=64, checkpoint=ckpt,
            ).run()
        # row groups to keep = the watermark's rows over the package size
        from repro.resilience import RunManifest
        from repro.scheduler.work import package_count

        part = RunManifest.load(ckpt).parts["t.parquet"]
        vouched = package_count(part.start, part.stop, 64)
        report = Scheduler(
            GenerationEngine(columnar_schema()),
            OutputConfig(kind="file", format="parquet",
                         directory=str(crash_dir)),
            package_size=64, checkpoint=ckpt, resume_from=ckpt,
        ).run()
        assert report.resumed_packages == vouched > 0
        reference = pq.read_table(str(ref_dir / "t.parquet"))
        resumed = pq.read_table(str(crash_dir / "t.parquet"))
        assert resumed.equals(reference)
