"""Tests for the database substrate: SQLite adapter and DDL builder."""

from __future__ import annotations

import pytest

from repro.db.adapter import ColumnInfo
from repro.db.ddl import create_schema_sql, create_table_sql, render_type
from repro.db.sqlite_adapter import SQLiteAdapter, sample_hash_sql
from repro.exceptions import AdapterError, ModelError
from repro.model.datatypes import parse_type


@pytest.fixture
def adapter() -> SQLiteAdapter:
    db = SQLiteAdapter(":memory:")
    db.execute_script(
        """
        CREATE TABLE dept (
          dept_id INTEGER NOT NULL PRIMARY KEY,
          dept_name VARCHAR(30) NOT NULL
        );
        CREATE TABLE emp (
          emp_id INTEGER NOT NULL PRIMARY KEY,
          name VARCHAR(50) NOT NULL,
          salary DECIMAL(10,2),
          dept_id INTEGER REFERENCES dept (dept_id),
          note TEXT
        );
        INSERT INTO dept VALUES (1, 'eng'), (2, 'sales');
        INSERT INTO emp VALUES
          (1, 'ann', 100.5, 1, 'works on compilers'),
          (2, 'bob', 90.25, 1, NULL),
          (3, 'cyd', 120.75, 2, 'top seller'),
          (4, 'dee', NULL, 2, NULL);
        """
    )
    yield db
    db.close()


class TestCatalog:
    def test_table_names(self, adapter):
        assert adapter.table_names() == ["dept", "emp"]

    def test_columns(self, adapter):
        columns = adapter.columns("emp")
        names = [c.name for c in columns]
        assert names == ["emp_id", "name", "salary", "dept_id", "note"]
        emp_id = columns[0]
        assert emp_id.primary
        assert not emp_id.nullable
        salary = columns[2]
        assert salary.nullable
        assert parse_type(salary.type_text).scale == 2

    def test_columns_of_missing_table(self, adapter):
        with pytest.raises(AdapterError, match="no such table"):
            adapter.columns("ghost")

    def test_foreign_keys(self, adapter):
        keys = adapter.foreign_keys("emp")
        assert len(keys) == 1
        assert keys[0].column == "dept_id"
        assert keys[0].ref_table == "dept"
        assert keys[0].ref_column == "dept_id"

    def test_foreign_keys_shorthand_resolved(self):
        db = SQLiteAdapter(":memory:")
        db.execute_script(
            "CREATE TABLE a (id INTEGER PRIMARY KEY);"
            "CREATE TABLE b (x INTEGER, a_ref INTEGER REFERENCES a);"
        )
        keys = db.foreign_keys("b")
        assert keys[0].ref_column == "id"
        db.close()

    def test_invalid_identifier_rejected(self, adapter):
        with pytest.raises(AdapterError, match="invalid identifier"):
            adapter.columns("x; DROP TABLE emp")


class TestStatistics:
    def test_row_count(self, adapter):
        assert adapter.row_count("emp") == 4

    def test_min_max(self, adapter):
        assert adapter.min_max("emp", "salary") == (90.25, 120.75)

    def test_min_max_all_null(self, adapter):
        adapter.execute_script("CREATE TABLE n (x INTEGER); INSERT INTO n VALUES (NULL);")
        assert adapter.min_max("n", "x") == (None, None)

    def test_null_fraction(self, adapter):
        assert adapter.null_fraction("emp", "salary") == 0.25
        assert adapter.null_fraction("emp", "note") == 0.5
        assert adapter.null_fraction("emp", "name") == 0.0

    def test_null_fraction_empty_table(self, adapter):
        adapter.execute_script("CREATE TABLE empty (x INTEGER);")
        assert adapter.null_fraction("empty", "x") == 0.0

    def test_distinct_count(self, adapter):
        assert adapter.distinct_count("emp", "dept_id") == 2

    def test_histogram(self, adapter):
        histogram = adapter.histogram("emp", "dept_id")
        assert histogram == [(1, 2), (2, 2)]

    def test_histogram_respects_buckets(self, adapter):
        assert len(adapter.histogram("emp", "name", buckets=2)) == 2


class TestSampling:
    def test_full_sample(self, adapter):
        values = adapter.sample_column("emp", "note", fraction=1.0)
        assert sorted(values) == ["top seller", "works on compilers"]

    def test_first_strategy(self, adapter):
        values = adapter.sample_column("emp", "name", fraction=0.5, strategy="first")
        assert values == ["ann", "bob"]

    def test_systematic_strategy(self, adapter):
        values = adapter.sample_column(
            "emp", "name", fraction=0.5, strategy="systematic"
        )
        assert len(values) == 2

    def test_bernoulli_draw_is_a_function_of_seed_and_row(self, adapter):
        # WITHOUT ROWID: the draw hashes the scan-order row number, not
        # ``rowid``, which such a table does not have.
        adapter.execute_script(
            "CREATE TABLE big (k INTEGER PRIMARY KEY, v TEXT) WITHOUT ROWID"
        )
        adapter.insert_rows("big", ["k", "v"], ((k, f"v{k}") for k in range(4000)))

        def sample(seed):
            return adapter.sample_column("big", "v", fraction=0.1, seed=seed)

        assert sample(7) == sample(7)
        assert sample(7) != sample(8)
        assert 300 < len(sample(7)) < 500
        # SQLite turns an overflowing integer product into REAL without
        # an error; a seed at the edge of its signed 64 bits must still
        # hash, and so select, in integers.
        for seed in (2**63 - 1, 2**63, 2**64 - 1):
            types = adapter.execute(
                f"SELECT DISTINCT typeof({sample_hash_sql(seed)}) FROM "
                "(SELECT ROW_NUMBER() OVER () AS rn FROM big)"
            )
            assert types == [("integer",)]
            assert 300 < len(sample(seed)) < 500

    def test_bernoulli_fraction_bounds(self, adapter):
        with pytest.raises(AdapterError):
            adapter.sample_column("emp", "name", fraction=0.0)
        with pytest.raises(AdapterError):
            adapter.sample_column("emp", "name", fraction=1.5)

    def test_unknown_strategy(self, adapter):
        with pytest.raises(AdapterError, match="unknown sampling strategy"):
            adapter.sample_column("emp", "name", strategy="magic")


class TestExecution:
    def test_execute_with_parameters(self, adapter):
        rows = adapter.execute("SELECT name FROM emp WHERE salary > ?", (95,))
        assert {r[0] for r in rows} == {"ann", "cyd"}

    def test_execute_error_wrapped(self, adapter):
        with pytest.raises(AdapterError, match="query failed"):
            adapter.execute("SELECT * FROM nowhere")

    def test_insert_rows(self, adapter):
        inserted = adapter.insert_rows(
            "dept", ["dept_id", "dept_name"], [(3, "hr"), (4, "ops")]
        )
        assert inserted == 2
        assert adapter.row_count("dept") == 4

    def test_insert_rows_error(self, adapter):
        with pytest.raises(AdapterError, match="bulk load"):
            adapter.insert_rows("dept", ["dept_id", "dept_name"], [(1, "dupe")])

    def test_script_error(self, adapter):
        with pytest.raises(AdapterError, match="script failed"):
            adapter.execute_script("CREATE BANANA;")

    def test_cannot_open_bad_path(self):
        with pytest.raises(AdapterError):
            SQLiteAdapter("/nonexistent-dir-xyz/db.sqlite")

    def test_context_manager(self):
        with SQLiteAdapter(":memory:") as db:
            db.execute_script("CREATE TABLE t (x INTEGER);")
            assert db.table_names() == ["t"]


class TestRenderType:
    def test_ansi_passthrough(self):
        assert render_type(parse_type("VARCHAR(10)")) == "VARCHAR(10)"

    def test_sqlite_overrides(self):
        assert render_type(parse_type("BOOLEAN"), "sqlite") == "INTEGER"
        assert render_type(parse_type("DATE"), "sqlite") == "TEXT"
        assert render_type(parse_type("DECIMAL(10,2)"), "sqlite") == "REAL"

    def test_mysql_overrides(self):
        assert render_type(parse_type("TEXT"), "mysql") == "LONGTEXT"

    def test_postgres_overrides(self):
        assert render_type(parse_type("BLOB"), "postgres") == "BYTEA"

    def test_unknown_dialect(self):
        with pytest.raises(ModelError):
            render_type(parse_type("TEXT"), "oracle")


class TestCreateTableSql:
    def test_columns_and_pk(self, schema):
        sql = create_table_sql(schema.table_by_name("customer"))
        assert "CREATE TABLE customer" in sql
        assert "c_id BIGINT NOT NULL" not in sql  # nullable defaults to true
        assert "PRIMARY KEY (c_id)" in sql

    def test_foreign_keys_emitted(self, schema):
        sql = create_table_sql(schema.table_by_name("orders"))
        assert "FOREIGN KEY (o_cust) REFERENCES customer (c_id)" in sql

    def test_foreign_keys_can_be_suppressed(self, schema):
        sql = create_table_sql(
            schema.table_by_name("orders"), include_foreign_keys=False
        )
        assert "FOREIGN KEY" not in sql

    def test_composite_primary_key(self):
        from repro.suites.tpch import tpch_schema

        sql = create_table_sql(tpch_schema(0.001).table_by_name("partsupp"))
        assert "PRIMARY KEY (ps_partkey, ps_suppkey)" in sql


class TestCreateSchemaSql:
    def test_dependency_order(self, schema):
        sql = create_schema_sql(schema)
        assert sql.index("CREATE TABLE customer") < sql.index("CREATE TABLE orders")

    def test_executes_on_sqlite(self, schema):
        db = SQLiteAdapter(":memory:")
        db.execute_script(create_schema_sql(schema, "sqlite"))
        assert db.table_names() == ["customer", "orders"]
        db.close()

    def test_tpch_executes_on_sqlite(self):
        from repro.suites.tpch import tpch_schema

        db = SQLiteAdapter(":memory:")
        db.execute_script(create_schema_sql(tpch_schema(0.001), "sqlite"))
        assert len(db.table_names()) == 8
        db.close()


def test_column_info_frozen():
    info = ColumnInfo("x", "TEXT", True, False, 0)
    with pytest.raises(AttributeError):
        info.name = "y"  # type: ignore[misc]
