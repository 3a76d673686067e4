"""Tests for the output system: formatting, writers, sinks, ordering."""

from __future__ import annotations

import datetime
import json
import os
import sqlite3
import xml.etree.ElementTree as ET

import pytest

from repro.exceptions import OutputError
from repro.output.config import OutputConfig
from repro.output.formats import FormatSpec, format_spec
from repro.output.rows import ValueFormatter
from repro.output.sinks import (
    CallbackSink,
    FileSink,
    InFlightWindow,
    MemorySink,
    OrderedSinkMux,
    Sink,
    SQLiteSink,
)
from repro.output.writers import (
    CsvWriter,
    JsonWriter,
    SqlWriter,
    XmlWriter,
)


class TestValueFormatter:
    def test_null_token(self):
        assert ValueFormatter(null_token="NULL").format(None) == "NULL"
        assert ValueFormatter().format(None) == ""

    def test_strings_pass_through(self):
        assert ValueFormatter().format("abc") == "abc"

    def test_integers(self):
        assert ValueFormatter().format(42) == "42"

    def test_booleans(self):
        fmt = ValueFormatter()
        assert fmt.format(True) == "true"
        assert fmt.format(False) == "false"

    def test_floats_default_repr(self):
        assert ValueFormatter().format(2.5) == "2.5"

    def test_float_places(self):
        assert ValueFormatter(float_places=2).format(2.5) == "2.50"

    def test_date_default_iso(self):
        assert ValueFormatter().format(datetime.date(2014, 11, 30)) == "2014-11-30"

    def test_date_paper_format(self):
        # The paper's Figure 9 example: "11/30/2014".
        fmt = ValueFormatter(date_format="%m/%d/%Y")
        assert fmt.format(datetime.date(2014, 11, 30)) == "11/30/2014"

    def test_timestamp(self):
        fmt = ValueFormatter()
        value = datetime.datetime(2014, 11, 30, 12, 34, 56)
        assert fmt.format(value) == "2014-11-30 12:34:56"

    def test_bytes_hex(self):
        assert ValueFormatter().format(b"\x01\x02") == "0102"


class TestCsvWriter:
    def test_row(self):
        writer = CsvWriter("t", ["a", "b"])
        assert writer.write_row([1, "x"]) == "1|x\n"

    def test_header_optional(self):
        assert CsvWriter("t", ["a", "b"]).header() == ""
        assert CsvWriter("t", ["a", "b"], include_header=True).header() == "a|b\n"

    def test_delimiter_escaping(self):
        writer = CsvWriter("t", ["a"])
        assert writer.write_row(["x|y"]) == '"x|y"\n'

    def test_quote_doubling(self):
        writer = CsvWriter("t", ["a"], delimiter=",")
        assert writer.write_row(['say "hi", now']) == '"say ""hi"", now"\n'

    def test_custom_delimiter(self):
        writer = CsvWriter("t", ["a", "b"], delimiter=",")
        assert writer.write_row([1, 2]) == "1,2\n"

    def test_rejects_multichar_delimiter(self):
        with pytest.raises(OutputError):
            CsvWriter("t", ["a"], delimiter="||")

    def test_null_empty(self):
        writer = CsvWriter("t", ["a", "b"])
        assert writer.write_row([None, 1]) == "|1\n"


class TestJsonWriter:
    def test_row_is_json_object(self):
        writer = JsonWriter("t", ["id", "name"])
        obj = json.loads(writer.write_row([1, "ann"]))
        assert obj == {"id": 1, "name": "ann"}

    def test_null_and_bool(self):
        writer = JsonWriter("t", ["a", "b"])
        obj = json.loads(writer.write_row([None, True]))
        assert obj == {"a": None, "b": True}

    def test_dates_formatted(self):
        writer = JsonWriter("t", ["d"])
        obj = json.loads(writer.write_row([datetime.date(2020, 5, 4)]))
        assert obj == {"d": "2020-05-04"}


class TestXmlWriter:
    def test_document_well_formed(self):
        writer = XmlWriter("t", ["a", "b"])
        document = writer.header() + writer.write_row([1, "x<y"]) + writer.footer()
        root = ET.fromstring(document)
        assert root.tag == "table"
        assert root.get("name") == "t"
        row = root.find("row")
        assert row.find("a").text == "1"
        assert row.find("b").text == "x<y"

    def test_null_as_empty_element(self):
        writer = XmlWriter("t", ["a"])
        assert "<a/>" in writer.write_row([None])

    def test_escaping(self):
        writer = XmlWriter("t", ["a"])
        assert "&amp;" in writer.write_row(["x&y"])


class TestSqlWriter:
    def test_insert_statement(self):
        writer = SqlWriter("t", ["id", "name"])
        statement = writer.write_row([1, "ann"])
        assert statement == "INSERT INTO t (id, name) VALUES (1, 'ann');\n"

    def test_quote_escaping(self):
        writer = SqlWriter("t", ["name"])
        assert "('o''brien')" in writer.write_row(["o'brien"])

    def test_null_and_bool(self):
        writer = SqlWriter("t", ["a", "b"])
        assert "(NULL, TRUE)" in writer.write_row([None, True])

    def test_executes_in_sqlite(self):
        conn = sqlite3.connect(":memory:")
        conn.execute("CREATE TABLE t (id INTEGER, name TEXT)")
        writer = SqlWriter("t", ["id", "name"])
        conn.executescript(writer.write_row([5, "it's"]))
        assert conn.execute("SELECT name FROM t").fetchone()[0] == "it's"


class TestWriterRegistry:
    def test_lookup(self):
        assert format_spec("csv").writer_class() is CsvWriter
        assert format_spec("JSON").writer_class() is JsonWriter

    def test_unknown(self):
        with pytest.raises(OutputError, match="unknown output format"):
            format_spec("feather")

    def test_binary_formats_resolve(self):
        from repro.output.arrow import ArrowWriter

        assert format_spec("arrow").writer_class() is ArrowWriter
        assert format_spec("parquet").writer_class() is ArrowWriter


class TestSinks:
    def test_memory_sink(self):
        sink = MemorySink()
        sink.write("a")
        sink.write("b")
        assert sink.getvalue() == "ab"

    def test_file_sink(self, tmp_path):
        path = str(tmp_path / "sub" / "out.tbl")
        with FileSink(path) as sink:
            sink.write("hello\n")
        with open(path) as handle:
            assert handle.read() == "hello\n"

    def test_file_sink_write_after_close(self, tmp_path):
        sink = FileSink(str(tmp_path / "x"))
        sink.close()
        with pytest.raises(OutputError):
            sink.write("late")

    def test_callback_sink(self):
        chunks = []
        sink = CallbackSink(chunks.append)
        sink.write("x")
        assert chunks == ["x"]

    def test_sqlite_sink(self, tmp_path):
        path = str(tmp_path / "db.sqlite")
        with SQLiteSink(path) as sink:
            sink.write("CREATE TABLE t (x INTEGER); INSERT INTO t VALUES (1);")
        conn = sqlite3.connect(path)
        assert conn.execute("SELECT x FROM t").fetchone() == (1,)

    def test_sqlite_sink_bad_sql(self, tmp_path):
        with SQLiteSink(str(tmp_path / "db2.sqlite")) as sink:
            with pytest.raises(OutputError):
                sink.write("NOT SQL AT ALL;")

    def test_sqlite_sink_chunk_is_one_transaction(self, tmp_path):
        """A chunk that fails in its middle leaves none of its rows; the
        chunks before it stay loaded, and the sink keeps working."""
        path = str(tmp_path / "db3.sqlite")
        with SQLiteSink(path) as sink:
            sink.write("CREATE TABLE t (x INTEGER PRIMARY KEY);")
            sink.write("INSERT INTO t VALUES (1);\nINSERT INTO t VALUES (2);\n")
            with pytest.raises(OutputError, match="SQL load failed"):
                sink.write(
                    "INSERT INTO t VALUES (3);\nINSERT INTO t VALUES (1);\n"
                    "INSERT INTO t VALUES (4);\n"
                )
            sink.write("INSERT INTO t VALUES (5); -- trailing comment")
        conn = sqlite3.connect(path)
        assert conn.execute("SELECT x FROM t ORDER BY x").fetchall() == [
            (1,), (2,), (5,)
        ]
        conn.close()


class TestOrderedSinkMux:
    def test_in_order_passthrough(self):
        sink = MemorySink()
        mux = OrderedSinkMux(sink)
        mux.submit(0, "a")
        mux.submit(1, "b")
        assert sink.getvalue() == "ab"

    def test_out_of_order_buffered(self):
        sink = MemorySink()
        mux = OrderedSinkMux(sink)
        mux.submit(2, "c")
        mux.submit(0, "a")
        assert sink.getvalue() == "a"
        mux.submit(1, "b")
        assert sink.getvalue() == "abc"
        mux.finish()

    def test_duplicate_rejected(self):
        mux = OrderedSinkMux(MemorySink())
        mux.submit(0, "a")
        with pytest.raises(OutputError, match="duplicate"):
            mux.submit(0, "again")

    def test_finish_detects_gap(self):
        mux = OrderedSinkMux(MemorySink())
        mux.submit(1, "b")
        with pytest.raises(OutputError, match="never arrived"):
            mux.finish()

    def test_stale_sequence_rejected(self):
        mux = OrderedSinkMux(MemorySink())
        mux.submit(0, "a")
        mux.submit(1, "b")
        with pytest.raises(OutputError, match="duplicate"):
            mux.submit(0, "late replay")

    def test_max_pending_watermark(self):
        mux = OrderedSinkMux(MemorySink())
        mux.submit(3, "d")
        mux.submit(2, "c")
        mux.submit(1, "b")
        assert mux.max_pending == 3
        mux.submit(0, "a")  # flushes all four
        mux.finish()
        assert mux.max_pending == 4


class _FlakySink(Sink):
    """Raises OutputError on the Nth write (disk-full simulation)."""

    def __init__(self, fail_on_call: int) -> None:
        self.calls = 0
        self.fail_on_call = fail_on_call
        self.written: list[str] = []

    def write(self, chunk: str) -> None:
        self.calls += 1
        if self.calls == self.fail_on_call:
            raise OutputError("disk full")
        self.written.append(chunk)


class TestOrderedSinkMuxFailure:
    """A sink failure must surface as the original error, not as a
    misleading duplicate/never-arrived complaint on later packages."""

    def test_original_error_propagates(self):
        mux = OrderedSinkMux(_FlakySink(fail_on_call=1))
        with pytest.raises(OutputError, match="disk full"):
            mux.submit(0, "a")

    def test_later_submits_reraise_first_failure(self):
        mux = OrderedSinkMux(_FlakySink(fail_on_call=1))
        with pytest.raises(OutputError, match="disk full"):
            mux.submit(0, "a")
        # Without failure recording this raised "duplicate work package".
        with pytest.raises(OutputError, match="disk full"):
            mux.submit(1, "b")

    def test_finish_reraises_first_failure(self):
        mux = OrderedSinkMux(_FlakySink(fail_on_call=1))
        with pytest.raises(OutputError, match="disk full"):
            mux.submit(0, "a")
        # Without failure recording this raised "never arrived".
        with pytest.raises(OutputError, match="disk full"):
            mux.finish()

    def test_failure_mid_flush_keeps_timing_and_counts(self):
        sink = _FlakySink(fail_on_call=2)
        mux = OrderedSinkMux(sink)
        mux.submit(1, "b")
        with pytest.raises(OutputError, match="disk full"):
            mux.submit(0, "a")  # flushes "a", dies on "b"
        assert sink.written == ["a"]
        assert mux.flushes == 1  # the successful write is still counted
        assert mux.write_seconds > 0  # elapsed time not lost on raise

    def test_window_slots_released_for_flushed_chunks_on_failure(self):
        window = InFlightWindow(4)
        sink = _FlakySink(fail_on_call=2)
        mux = OrderedSinkMux(sink, window=window)
        assert window.try_acquire() and window.try_acquire()
        with pytest.raises(OutputError, match="disk full"):
            mux.submit(1, "b")
            mux.submit(0, "a")
        # "a" flushed -> one slot back; "b" died holding its slot.
        assert window.in_flight == 1


class TestInFlightWindow:
    def test_limit_enforced(self):
        window = InFlightWindow(2)
        assert window.try_acquire()
        assert window.try_acquire()
        assert not window.try_acquire()
        window.release()
        assert window.try_acquire()
        assert window.max_in_flight == 2

    def test_release_clamps_at_limit(self):
        window = InFlightWindow(2)
        window.release(5)
        assert window.in_flight == 0
        assert window.try_acquire()
        assert window.in_flight == 1

    def test_invalid_limit(self):
        with pytest.raises(OutputError):
            InFlightWindow(0)

    def test_mux_releases_on_flush(self):
        window = InFlightWindow(3)
        mux = OrderedSinkMux(MemorySink(), window=window)
        for _ in range(3):
            assert window.try_acquire()
        mux.submit(2, "c")  # buffered: no release
        assert window.in_flight == 3
        mux.submit(0, "a")  # flushes just "a"
        assert window.in_flight == 2
        mux.submit(1, "b")  # flushes "b" then the buffered "c"
        assert window.in_flight == 0
        assert mux.max_pending <= window.limit


class TestOutputConfig:
    def test_validates_kind(self):
        with pytest.raises(OutputError):
            OutputConfig(kind="ftp")

    def test_validates_format(self):
        with pytest.raises(OutputError):
            OutputConfig(format="avro")

    def test_sqlite_requires_sql_format(self):
        with pytest.raises(OutputError):
            OutputConfig(kind="sqlite", format="csv")

    def test_format_left_out_is_derived_from_the_kind(self):
        from repro.config import format_xml

        assert OutputConfig(kind="sqlite").format == "sql"
        assert OutputConfig().format == OutputConfig(kind="file").format == "csv"
        assert format_xml.loads('<output kind="sqlite"/>').format == "sql"

    @pytest.mark.parametrize(
        "kind, given", [("sqlite", "SQL"), ("file", "PARQUET"), ("memory", "CSV")]
    )
    def test_format_name_stored_in_registry_form(self, kind, given, monkeypatch):
        # The sqlite format check, the parquet sink choice and the
        # checkpoint fingerprint all read ``config.format`` raw, so a
        # name accepted case-insensitively must be stored canonically.
        # Whether pyarrow is installed is beside the point here.
        monkeypatch.setattr(FormatSpec, "require_available", lambda self: None)
        config = OutputConfig(kind=kind, format=given, database="x.db")
        assert config.format == given.lower()
        assert config == OutputConfig(
            kind=kind, format=given.lower(), database="x.db"
        )

    def test_table_path_extension(self, tmp_path):
        config = OutputConfig(kind="file", format="csv", directory=str(tmp_path))
        assert config.table_path("orders").endswith(os.path.join(str(tmp_path), "orders.tbl"))
        config_json = OutputConfig(kind="file", format="json", directory=str(tmp_path))
        assert config_json.table_path("orders").endswith("orders.json")

    def test_memory_output_requires_run(self):
        config = OutputConfig(kind="memory")
        with pytest.raises(OutputError):
            config.memory_output("t")

    def test_new_writer_respects_delimiter(self):
        config = OutputConfig(kind="null", format="csv", delimiter=",")
        writer = config.new_writer("t", ["a", "b"])
        assert writer.write_row([1, 2]) == "1,2\n"


class TestGzipFileSink:
    def test_round_trip(self, tmp_path):
        import gzip

        from repro.output.sinks import GzipFileSink

        path = str(tmp_path / "data.tbl.gz")
        with GzipFileSink(path) as sink:
            sink.write("hello|world\n")
            sink.write("more|rows\n")
        with gzip.open(path, "rt") as handle:
            assert handle.read() == "hello|world\nmore|rows\n"

    def test_write_after_close(self, tmp_path):
        from repro.output.sinks import GzipFileSink

        sink = GzipFileSink(str(tmp_path / "x.gz"))
        sink.close()
        with pytest.raises(OutputError):
            sink.write("late")

    def test_config_kind_gzip(self, tmp_path):
        import gzip

        from repro.engine import GenerationEngine
        from repro.scheduler import generate
        from tests.conftest import demo_schema

        config = OutputConfig(kind="gzip", format="csv", directory=str(tmp_path))
        generate(GenerationEngine(demo_schema()), config, workers=2)
        with gzip.open(config.table_path("orders") + ".gz", "rt") as handle:
            assert len(handle.read().splitlines()) == 180

    def test_compressed_output_matches_plain(self, tmp_path):
        import gzip

        from repro.engine import GenerationEngine
        from repro.scheduler import generate
        from tests.conftest import demo_schema

        gz_config = OutputConfig(kind="gzip", format="csv",
                                 directory=str(tmp_path / "gz"))
        generate(GenerationEngine(demo_schema()), gz_config)
        plain_config = OutputConfig(kind="file", format="csv",
                                    directory=str(tmp_path / "plain"))
        generate(GenerationEngine(demo_schema()), plain_config)
        with gzip.open(gz_config.table_path("customer") + ".gz", "rt") as handle:
            compressed = handle.read()
        with open(plain_config.table_path("customer")) as handle:
            assert handle.read() == compressed
