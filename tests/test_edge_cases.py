"""Edge cases and stress tests across the stack."""

from __future__ import annotations

import pytest

from repro.engine import GenerationEngine
from repro.model.schema import Field, GeneratorSpec, Schema, Table
from repro.output.config import OutputConfig
from repro.scheduler import Scheduler, generate
from repro.update import UpdateBlackBox


def _schema_with_sizes(*sizes: int) -> Schema:
    schema = Schema("edges", seed=3)
    for index, size in enumerate(sizes):
        schema.add_table(Table(f"t{index}", str(size), [
            Field.of("id", "BIGINT", GeneratorSpec("IdGenerator"), primary=True),
            Field.of("v", "INTEGER", GeneratorSpec(
                "IntGenerator", {"min": 0, "max": 9}
            )),
        ]))
    return schema


class TestEmptyAndTinyTables:
    def test_zero_row_table_generates_nothing(self):
        engine = GenerationEngine(_schema_with_sizes(0, 10))
        assert list(engine.iter_rows("t0")) == []
        report = generate(engine, OutputConfig(kind="memory"))
        assert report.rows == 10

    def test_single_row_table(self):
        engine = GenerationEngine(_schema_with_sizes(1))
        rows = list(engine.iter_rows("t0"))
        assert rows == [[1, rows[0][1]]]

    def test_preview_of_empty_table(self):
        engine = GenerationEngine(_schema_with_sizes(0))
        assert engine.preview("t0", 10) == []

    def test_empty_schema_output_files_created(self, tmp_path):
        engine = GenerationEngine(_schema_with_sizes(0))
        config = OutputConfig(kind="file", directory=str(tmp_path))
        generate(engine, config)
        assert (tmp_path / "t0.tbl").read_text() == ""


class TestManyColumns:
    def test_fifty_column_table(self):
        schema = Schema("wide", seed=9)
        fields = [
            Field.of(f"c{i}", "INTEGER", GeneratorSpec(
                "IntGenerator", {"min": 0, "max": 100}
            ))
            for i in range(50)
        ]
        schema.add_table(Table("wide", "20", fields))
        engine = GenerationEngine(schema)
        rows = list(engine.iter_rows("wide"))
        assert len(rows) == 20
        assert all(len(row) == 50 for row in rows)
        # Columns are independent streams: no two identical columns.
        columns = list(zip(*rows))
        assert len(set(columns)) == 50


class TestSchedulerStress:
    def test_package_size_one(self):
        engine = GenerationEngine(_schema_with_sizes(64))
        serial = OutputConfig(kind="memory")
        generate(GenerationEngine(_schema_with_sizes(64)), serial)
        tiny = OutputConfig(kind="memory")
        Scheduler(engine, tiny, workers=8, package_size=1).run()
        assert tiny.memory_output("t0") == serial.memory_output("t0")

    def test_more_workers_than_packages(self):
        engine = GenerationEngine(_schema_with_sizes(5))
        report = generate(engine, OutputConfig(kind="null"), workers=16,
                          package_size=100)
        assert report.rows == 5

    def test_many_tables(self):
        schema = _schema_with_sizes(*([7] * 25))
        engine = GenerationEngine(schema)
        report = generate(engine, OutputConfig(kind="null"), workers=4,
                          package_size=3)
        assert report.rows == 175

    def test_sqlite_sink_under_concurrency(self, tmp_path):
        from repro.db.ddl import create_schema_sql
        from repro.db.sqlite_adapter import SQLiteAdapter

        schema = _schema_with_sizes(200)
        path = str(tmp_path / "conc.db")
        with SQLiteAdapter(path) as adapter:
            adapter.execute_script(create_schema_sql(schema, "sqlite"))
        config = OutputConfig(kind="sqlite", format="sql", database=path)
        engine = GenerationEngine(schema)
        generate(engine, config, workers=8, package_size=10)
        with SQLiteAdapter(path) as adapter:
            assert adapter.row_count("t0") == 200


class TestExtremeScaleFactors:
    def test_fractional_sf_floors_to_at_least_configured(self):
        from repro.suites.tpch import tpch_schema

        schema = tpch_schema(0.0000001)
        # max(1, ...) keeps every scalable table non-empty.
        for table, size in schema.sizes().items():
            assert size >= 1, table

    def test_large_sf_scales_linearly(self):
        from repro.suites.tpch import tpch_schema

        schema = tpch_schema(30)
        assert schema.table_size("lineitem") == 180_000_000
        assert schema.table_size("region") == 5

    def test_random_access_into_huge_virtual_table(self):
        # Seed-addressed generation: row 10^9 of a virtual 6B-row table
        # is computable without generating anything else.
        from repro.suites.tpch import tpch_artifacts, tpch_schema

        engine = GenerationEngine(tpch_schema(1000), tpch_artifacts())
        row = engine.generate_row("lineitem", 1_000_000_000)
        assert row[0] == 250_000_001  # l_orderkey = row // 4 + 1
        again = engine.generate_row("lineitem", 1_000_000_000)
        assert row == again


class TestUpdateEdgeCases:
    def test_zero_fractions_yield_empty_epochs(self):
        schema = _schema_with_sizes(50)
        blackbox = UpdateBlackBox(
            GenerationEngine(schema),
            insert_fraction=0.0, update_fraction=0.0, delete_fraction=0.0,
        )
        assert list(blackbox.epoch_events("t0", 1)) == []

    def test_update_fraction_larger_than_table(self):
        schema = _schema_with_sizes(10)
        blackbox = UpdateBlackBox(GenerationEngine(schema), update_fraction=5.0)
        updates = [e for e in blackbox.epoch_events("t0", 1) if e.kind == "update"]
        assert len(updates) == 10  # clamped to the table size

    def test_epoch_on_empty_table(self):
        schema = _schema_with_sizes(0)
        blackbox = UpdateBlackBox(GenerationEngine(schema))
        assert list(blackbox.epoch_events("t0", 1)) == []


class TestUnicodeData:
    def test_unicode_through_all_formats(self, tmp_path):
        schema = Schema("uni", seed=2)
        schema.add_table(Table("t", "5", [
            Field.of("s", "TEXT", GeneratorSpec(
                "DictListGenerator", {"values": ["café", "naïve", "日本語", "emoji🎉"]}
            )),
        ]))
        for fmt in ("csv", "json", "xml"):
            config = OutputConfig(kind="file", format=fmt,
                                  directory=str(tmp_path / fmt))
            generate(GenerationEngine(schema), config)
            text = open(config.table_path("t"), encoding="utf-8").read()
            assert any(token in text for token in ("café", "naïve", "日本語", "emoji🎉"))
