"""Tests for the DBSynth back half: translator, loader, fidelity, project."""

from __future__ import annotations

import os

import pytest

from repro.core.fidelity import (
    FidelityChecker,
    FidelityQuery,
    compare_query,
    default_queries,
)
from repro.core.loader import DataLoader
from repro.core.model_builder import build_model
from repro.core.project import DBSynthProject
from repro.core.translator import SchemaTranslator
from repro.db.sqlite_adapter import SQLiteAdapter
from repro.engine import GenerationEngine
from repro.exceptions import ExtractionError
from tests.conftest import demo_schema


class TestSchemaTranslator:
    def test_to_sql_contains_all_tables(self, schema):
        sql = SchemaTranslator().to_sql(schema)
        assert "CREATE TABLE customer" in sql
        assert "CREATE TABLE orders" in sql

    def test_apply_creates_tables(self, schema):
        target = SQLiteAdapter(":memory:")
        SchemaTranslator().apply(schema, target)
        assert target.table_names() == ["customer", "orders"]
        target.close()


class TestDataLoader:
    @pytest.fixture
    def target(self, schema):
        adapter = SQLiteAdapter(":memory:")
        SchemaTranslator().apply(schema, adapter)
        yield adapter
        adapter.close()

    def test_bulk_load_counts(self, engine, target):
        report = DataLoader(target).load(engine)
        assert report.rows_by_table == {"customer": 60, "orders": 180}
        assert report.total_rows == 240
        assert target.row_count("orders") == 180

    def test_sql_load_equals_bulk_load(self, schema, target):
        DataLoader(target).load(GenerationEngine(schema), bulk=True)
        bulk_rows = target.execute("SELECT * FROM orders ORDER BY o_id")

        other = SQLiteAdapter(":memory:")
        SchemaTranslator().apply(schema, other)
        DataLoader(other).load(GenerationEngine(schema), bulk=False)
        sql_rows = other.execute("SELECT * FROM orders ORDER BY o_id")
        assert bulk_rows == sql_rows
        other.close()

    def test_sql_load_of_tpch_equals_bulk_load(self):
        """The SQL path executes the column formatter's chunks; every
        table of the suite reads back as the parameterized load's rows."""
        from repro.suites import suite_model

        schema, artifacts = suite_model("tpch", 0.001)
        dumps = []
        for bulk in (True, False):
            adapter = SQLiteAdapter(":memory:")
            SchemaTranslator().apply(schema, adapter)
            report = DataLoader(adapter, batch_size=500).load(
                GenerationEngine(schema, artifacts), bulk=bulk
            )
            dumps.append({
                table: adapter.execute(f"SELECT * FROM {table} ORDER BY rowid")
                for table in report.rows_by_table
            })
            adapter.close()
        bulk_dump, sql_dump = dumps
        assert sum(map(len, sql_dump.values())) == sum(schema.sizes().values()) > 8000
        assert sql_dump == bulk_dump

    def test_load_respects_referential_order(self, engine, target):
        # Foreign keys are enforced during the load when enabled (outside
        # a script: a script is one transaction, where SQLite ignores it).
        target.execute("PRAGMA foreign_keys = ON")
        report = DataLoader(target).load(engine)
        assert report.total_rows == 240
        orphan = target.execute(
            "SELECT COUNT(*) FROM orders o LEFT JOIN customer c "
            "ON o.o_cust = c.c_id WHERE c.c_id IS NULL"
        )[0][0]
        assert orphan == 0

    def test_subset_load(self, engine, target):
        report = DataLoader(target).load(engine, tables=["customer"])
        assert report.rows_by_table == {"customer": 60}

    def test_small_batch_size(self, engine, target):
        report = DataLoader(target, batch_size=7).load(engine, tables=["customer"])
        assert report.rows_by_table["customer"] == 60

    def test_dates_stored_as_iso_text(self, engine, target):
        DataLoader(target).load(engine)
        value = target.execute("SELECT o_date FROM orders LIMIT 1")[0][0]
        assert isinstance(value, str) and value.startswith("2020-")


class TestFidelity:
    def test_identical_databases_pass(self, engine, schema):
        a = SQLiteAdapter(":memory:")
        SchemaTranslator().apply(schema, a)
        DataLoader(a).load(engine)
        b = SQLiteAdapter(":memory:")
        SchemaTranslator().apply(schema, b)
        DataLoader(b).load(GenerationEngine(schema))
        report = FidelityChecker(a, b).run_default(schema)
        assert report.passed
        assert report.pass_rate == 1.0
        a.close()
        b.close()

    def test_mismatched_count_fails(self, schema):
        a = SQLiteAdapter(":memory:")
        SchemaTranslator().apply(schema, a)
        DataLoader(a).load(GenerationEngine(schema))
        b = SQLiteAdapter(":memory:")
        SchemaTranslator().apply(schema, b)  # left empty
        report = FidelityChecker(a, b).run(
            [FidelityQuery("count", "SELECT COUNT(*) FROM customer", 0.01)]
        )
        assert not report.passed
        assert report.failures()
        a.close()
        b.close()

    def test_relative_error_computed(self):
        a = SQLiteAdapter(":memory:")
        b = SQLiteAdapter(":memory:")
        a.execute_script("CREATE TABLE t (x REAL); INSERT INTO t VALUES (100);")
        b.execute_script("CREATE TABLE t (x REAL); INSERT INTO t VALUES (110);")
        query = FidelityQuery("avg", "SELECT AVG(x) FROM t", tolerance=0.15)
        comparison = compare_query(query, a, b)
        assert comparison.relative_error == pytest.approx(0.10)
        assert comparison.passed
        strict = compare_query(
            FidelityQuery("avg", "SELECT AVG(x) FROM t", tolerance=0.05), a, b
        )
        assert not strict.passed
        a.close()
        b.close()

    def test_absolute_slack_for_small_counts(self):
        a = SQLiteAdapter(":memory:")
        b = SQLiteAdapter(":memory:")
        a.execute_script("CREATE TABLE t (x REAL); INSERT INTO t VALUES (3);")
        b.execute_script("CREATE TABLE t (x REAL); INSERT INTO t VALUES (5);")
        query = FidelityQuery(
            "small", "SELECT SUM(x) FROM t", tolerance=0.1, absolute_slack=3.0
        )
        assert compare_query(query, a, b).passed
        a.close()
        b.close()

    def test_non_numeric_compared_by_equality(self):
        a = SQLiteAdapter(":memory:")
        b = SQLiteAdapter(":memory:")
        a.execute_script("CREATE TABLE t (x TEXT); INSERT INTO t VALUES ('same');")
        b.execute_script("CREATE TABLE t (x TEXT); INSERT INTO t VALUES ('same');")
        query = FidelityQuery("text", "SELECT MAX(x) FROM t")
        assert compare_query(query, a, b).passed
        a.close()
        b.close()

    def test_default_queries_cover_tables_and_aggregates(self, schema):
        queries = default_queries(schema)
        names = [q.name for q in queries]
        assert "count(customer)" in names
        assert "avg(orders.o_quantity)" in names
        assert any(n.startswith("nulls(") for n in names)

    def test_empty_query_list_rejected(self, schema):
        a = SQLiteAdapter(":memory:")
        with pytest.raises(ExtractionError):
            FidelityChecker(a, a).run([])
        a.close()

    def test_summary_lines_format(self, schema):
        a = SQLiteAdapter(":memory:")
        SchemaTranslator().apply(schema, a)
        DataLoader(a).load(GenerationEngine(schema))
        report = FidelityChecker(a, a).run(
            [FidelityQuery("count", "SELECT COUNT(*) FROM customer")]
        )
        lines = report.summary_lines()
        assert len(lines) == 1
        assert "[ok ]" in lines[0]
        a.close()


class TestDBSynthProject:
    def test_full_pipeline(self, imdb_adapter, tmp_path):
        project = DBSynthProject(name="imdb", source=imdb_adapter)
        project.extract()
        project.profile()
        result = project.build_model()
        assert result.schema.name == "imdb"

        paths = project.save(str(tmp_path / "proj"))
        assert os.path.exists(paths.model_xml)
        assert os.path.exists(paths.ddl_sql)
        assert os.path.isdir(paths.artifact_dir)

        target = SQLiteAdapter(":memory:")
        report = project.load_into(target, project.engine())
        assert report.total_rows > 0

        fidelity = project.verify(target)
        assert fidelity.pass_rate > 0.8
        target.close()

    def test_steps_run_implicitly(self, imdb_adapter):
        project = DBSynthProject(name="imdb", source=imdb_adapter)
        # build_model without explicit extract/profile
        result = project.build_model()
        assert result is not None
        assert project.extracted is not None

    def test_scale_factor_override(self, imdb_adapter):
        project = DBSynthProject(name="imdb", source=imdb_adapter)
        engine = project.engine(scale_factor=0.5)
        assert engine.sizes["movies"] == 40

    def test_save_and_reload_round_trip(self, imdb_adapter, tmp_path):
        project = DBSynthProject(name="imdb", source=imdb_adapter)
        project.profile()
        project.build_model()
        directory = str(tmp_path / "saved")
        project.save(directory)

        schema, artifacts = DBSynthProject.load_saved(directory)
        engine = GenerationEngine(schema, artifacts)
        original_engine = project.engine()
        reloaded = [
            [str(v) for v in row] for row in engine.iter_rows("movies", 0, 10)
        ]
        original = [
            [str(v) for v in row]
            for row in original_engine.iter_rows("movies", 0, 10)
        ]
        assert reloaded == original

    def test_load_saved_missing_directory(self, tmp_path):
        with pytest.raises(ExtractionError, match="no saved model"):
            DBSynthProject.load_saved(str(tmp_path / "nope"))


class TestArtifactStorePersistence:
    def test_save_and_load_dir(self, imdb_adapter, tmp_path):
        result = build_model(imdb_adapter)
        directory = str(tmp_path / "artifacts")
        result.artifacts.save_dir(directory)

        from repro.generators.base import ArtifactStore

        restored = ArtifactStore.load_dir(directory)
        assert restored.names() == result.artifacts.names()

    def test_unknown_artifact_rejected(self, tmp_path):
        from repro.exceptions import GenerationError
        from repro.generators.base import ArtifactStore

        store = ArtifactStore()
        with pytest.raises(GenerationError, match="unknown model artifact"):
            store.get("missing")

    def test_unserializable_artifact(self, tmp_path):
        from repro.exceptions import GenerationError
        from repro.generators.base import ArtifactStore

        store = ArtifactStore()
        store.put("bad", object())
        with pytest.raises(GenerationError, match="not serializable"):
            store.save_dir(str(tmp_path / "x"))
