"""Tests for the DBSynth back half: schema DDL, load, fidelity, project."""

from __future__ import annotations

import os

import pytest

from repro.core.fidelity import (
    FidelityChecker,
    FidelityQuery,
    compare_query,
    default_queries,
)
from repro.core.loader import load
from repro.core.queries import Aggregate, Query
from repro.core.project import DBSynthProject
from repro.db.ddl import create_schema_sql
from repro.db.sqlite_adapter import SQLiteAdapter
from repro.engine import GenerationEngine
from repro.exceptions import ExtractionError
from tests.conftest import demo_schema


class TestSchemaTranslator:
    """The schema translator box of paper Figure 3: the model's DDL,
    applied to a target database."""

    def test_to_sql_contains_all_tables(self, schema):
        sql = create_schema_sql(schema, "sqlite")
        assert "CREATE TABLE customer" in sql
        assert "CREATE TABLE orders" in sql

    def test_apply_creates_tables(self, schema):
        target = SQLiteAdapter(":memory:")
        target.execute_script(create_schema_sql(schema, "sqlite"))
        assert target.table_names() == ["customer", "orders"]
        target.close()


def _dump(adapter, engine, table):
    """A table's rows with each value's SQLite storage class, as text:
    equal dumps mean equal values *and* equal types."""
    columns = engine.bound_table(table).column_names
    select = ", ".join(f"{c}, typeof({c})" for c in columns)
    return repr(adapter.execute(f"SELECT {select} FROM {table} ORDER BY rowid"))


class TestDataLoader:
    """``repro.core.load``: a ``generate()`` run into the SQLite sink."""

    @pytest.fixture
    def target(self, schema):
        adapter = SQLiteAdapter(":memory:")
        adapter.execute_script(create_schema_sql(schema, "sqlite"))
        yield adapter
        adapter.close()

    def test_load_counts(self, engine, target):
        report = load(engine, target)
        assert {t.name: t.rows for t in report.tables} == {"customer": 60, "orders": 180}
        assert report.rows == 240
        assert target.row_count("orders") == 180

    @pytest.mark.parametrize("suite", ["tpch", "ssb", "bigbench"])
    def test_load_equals_parameterized_inserts(self, suite):
        """The oracle: every table reads back — value and storage class —
        as the driver's parameterized insert of the engine's rows, with
        foreign keys enforced on both sides."""
        from repro.model.validation import topological_load_order
        from repro.suites import suite_model
        from repro.update.blackbox import _to_db

        schema, artifacts = suite_model(suite, 0.002)
        engine = GenerationEngine(schema, artifacts)
        loaded, reference = SQLiteAdapter(":memory:"), SQLiteAdapter(":memory:")
        for adapter in (loaded, reference):
            adapter.execute_script(create_schema_sql(schema, "sqlite"))
            adapter.execute("PRAGMA foreign_keys = ON")
        report = load(engine, loaded)
        for table in topological_load_order(schema):
            columns = engine.bound_table(table).column_names
            reference.insert_rows(table, columns, map(_to_db, engine.iter_rows(table)))
        assert report.rows == sum(schema.sizes().values()) > 10_000
        for table in schema.sizes():
            assert _dump(loaded, engine, table) == _dump(reference, engine, table), table
        assert loaded.execute("PRAGMA foreign_key_check") == []
        loaded.close()
        reference.close()

    def test_load_respects_referential_order(self, engine, target):
        # Foreign keys are enforced during the load when enabled (outside
        # a script: a script is one transaction, where SQLite ignores it).
        target.execute("PRAGMA foreign_keys = ON")
        report = load(engine, target)
        assert report.rows == 240
        orphan = target.execute(
            "SELECT COUNT(*) FROM orders o LEFT JOIN customer c "
            "ON o.o_cust = c.c_id WHERE c.c_id IS NULL"
        )[0][0]
        assert orphan == 0

    def test_subset_load(self, engine, target):
        report = load(engine, target, tables=["customer"])
        assert [(t.name, t.rows) for t in report.tables] == [("customer", 60)]
        assert target.row_count("orders") == 0

    def test_borrowed_adapter_stays_open(self, engine, target):
        load(engine, target, tables=["customer"])
        load(engine, target, tables=["orders"])
        assert target.row_count("customer") == 60
        target.execute_script("DELETE FROM orders;")
        assert target.row_count("orders") == 0

    def test_load_into_a_path(self, schema, engine, tmp_path):
        path = str(tmp_path / "target.db")
        with SQLiteAdapter(path) as adapter:
            adapter.execute_script(create_schema_sql(schema, "sqlite"))
        assert load(engine, path).rows == 240
        with SQLiteAdapter(path) as adapter:
            assert adapter.row_count("orders") == 180

    def test_dates_stored_as_iso_text(self, engine, target):
        load(engine, target)
        value = target.execute("SELECT o_date FROM orders LIMIT 1")[0][0]
        assert isinstance(value, str) and value.startswith("2020-")


def _check(name, table, *aggregates, **grading):
    """A check reading *aggregates* of a one-query suite: one is its
    value, two their difference."""
    query = Query(table, list(aggregates))
    reads = tuple(a.to_sql() for a in aggregates)
    return FidelityQuery(name, query, reads, **grading)


class TestFidelity:
    def test_identical_databases_pass(self, engine, schema):
        a = SQLiteAdapter(":memory:")
        a.execute_script(create_schema_sql(schema, "sqlite"))
        load(engine, a)
        b = SQLiteAdapter(":memory:")
        b.execute_script(create_schema_sql(schema, "sqlite"))
        load(GenerationEngine(schema), b)
        report = FidelityChecker(a, b).run(default_queries(schema))
        assert report.passed
        assert report.pass_rate == 1.0
        a.close()
        b.close()

    def test_mismatched_count_fails(self, schema):
        a = SQLiteAdapter(":memory:")
        a.execute_script(create_schema_sql(schema, "sqlite"))
        load(GenerationEngine(schema), a)
        b = SQLiteAdapter(":memory:")
        b.execute_script(create_schema_sql(schema, "sqlite"))  # left empty
        report = FidelityChecker(a, b).run(
            [_check("count", "customer", Aggregate("count"), tolerance=0.01)]
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
        query = _check("avg", "t", Aggregate("avg", "x"), tolerance=0.15)
        comparison = compare_query(query, a, b)
        assert comparison.relative_error == pytest.approx(0.10)
        assert comparison.passed
        strict = compare_query(
            _check("avg", "t", Aggregate("avg", "x"), tolerance=0.05), a, b
        )
        assert not strict.passed
        a.close()
        b.close()

    def test_absolute_slack_for_small_counts(self):
        a = SQLiteAdapter(":memory:")
        b = SQLiteAdapter(":memory:")
        a.execute_script("CREATE TABLE t (x REAL); INSERT INTO t VALUES (3);")
        b.execute_script("CREATE TABLE t (x REAL); INSERT INTO t VALUES (5);")
        query = _check(
            "small", "t", Aggregate("sum", "x"), tolerance=0.1, absolute_slack=3.0
        )
        assert compare_query(query, a, b).passed
        a.close()
        b.close()

    def test_non_numeric_compared_by_equality(self):
        a = SQLiteAdapter(":memory:")
        b = SQLiteAdapter(":memory:")
        a.execute_script("CREATE TABLE t (x TEXT); INSERT INTO t VALUES ('same');")
        b.execute_script("CREATE TABLE t (x TEXT); INSERT INTO t VALUES ('same');")
        query = _check("text", "t", Aggregate("max", "x"))
        assert compare_query(query, a, b).passed
        # a difference with a side that is not a number is the pair
        ranged = _check("range", "t", Aggregate("max", "x"), Aggregate("min", "x"))
        comparison = compare_query(ranged, a, b)
        assert comparison.original == ("same", "same") and comparison.passed
        assert comparison.relative_error is None
        a.close()
        b.close()

    def test_default_queries_cover_tables_and_aggregates(self, schema):
        queries = default_queries(schema)
        names = [q.name for q in queries]
        assert "count(customer)" in names
        assert "avg(orders.o_quantity)" in names
        assert any(n.startswith("nulls(") for n in names)
        # one query per table, which every check of the table reads
        tables = {q.query.table: q.query.to_sql() for q in queries}
        assert sorted(tables) == ["customer", "orders"]
        assert all(q.query.to_sql() == tables[q.query.table] for q in queries)

    def test_one_statement_per_table(self, engine, schema):
        a = SQLiteAdapter(":memory:")
        a.execute_script(create_schema_sql(schema, "sqlite"))
        load(engine, a)
        statements = []
        a._conn.set_trace_callback(statements.append)
        report = FidelityChecker(a, a).run(default_queries(schema))
        a._conn.set_trace_callback(None)
        assert len(report.comparisons) > len(schema.tables)
        assert len(statements) == 2 * len(schema.tables)  # once per side
        a.close()

    def test_empty_query_list_rejected(self, schema):
        a = SQLiteAdapter(":memory:")
        with pytest.raises(ExtractionError):
            FidelityChecker(a, a).run([])
        a.close()

    def test_summary_lines_format(self, schema):
        a = SQLiteAdapter(":memory:")
        a.execute_script(create_schema_sql(schema, "sqlite"))
        load(GenerationEngine(schema), a)
        report = FidelityChecker(a, a).run(
            [_check("count", "customer", Aggregate("count"))]
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
        assert report.rows > 0

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
        project = DBSynthProject(name="dbsynth_model", source=imdb_adapter)
        project.profile()
        result = project.build_model()
        directory = str(tmp_path / "artifacts")
        result.artifacts.save_dir(directory)

        from repro.model.artifacts import ArtifactStore

        restored = ArtifactStore.load_dir(directory)
        assert restored.names() == result.artifacts.names()

    def test_unknown_artifact_rejected(self, tmp_path):
        from repro.exceptions import GenerationError
        from repro.model.artifacts import ArtifactStore

        store = ArtifactStore()
        with pytest.raises(GenerationError, match="unknown model artifact"):
            store.get("missing")

    def test_unserializable_artifact(self, tmp_path):
        from repro.exceptions import GenerationError
        from repro.model.artifacts import ArtifactStore

        store = ArtifactStore()
        store.put("bad", object())
        with pytest.raises(GenerationError, match="not serializable"):
            store.save_dir(str(tmp_path / "x"))
