"""Hand-written SQLite sources that the shipped suites never produce.

Two things are checked on sources written directly with ``sqlite3``:

* the profiler's per-table statistics equal the per-column statements
  they replaced (kept here as the oracle) on 0- and 1-row tables,
  all-NULL and NOT NULL columns, columns that mix INTEGER, REAL, TEXT
  and BLOB values, keyword names and tables wider than one statement's
  column chunk, on both sides of the distinct-count limit;
* verify's default checks, read from one query per table, equal the
  per-check statements they replaced (kept here as the oracle) on the
  same sources, under a small result-column limit;
* a source whose table and column names are SQL keywords goes through
  ``extract``, ``generate --kind sqlite``, an update epoch, ``verify``
  and a replayed query workload;
* a source whose column names are not plain identifiers extracts and
  loads.
"""

from __future__ import annotations

import sqlite3
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cli.main import main
from repro.config.saved_model import load_saved
from repro.core import profiling
from repro.core.extraction import SchemaExtractor
from repro.core.fidelity import FidelityChecker, default_queries
from repro.core.profiling import ColumnProfile, DataProfiler
from repro.db import sqlite_adapter
from repro.db.ddl import create_table_sql
from repro.db.sqlite_adapter import SQLiteAdapter
from repro.engine import GenerationEngine
from repro.model.datatypes import parse_type
from repro.model.schema import Field, GeneratorSpec, Schema, Table
from repro.model.sqlnames import SQLITE_KEYWORDS, sql_name
from repro.output.writers import SqlWriter
from repro.update import UpdateBlackBox

#: table and column names: plain ones and SQLite keywords
TABLE_NAMES = ("t", "u", "order", "group", "values", "select")
COLUMN_NAMES = ("a", "b", "c_1", "x", "order", "group", "select", "key",
                "from", "where", "table", "limit")
DECLARED_TYPES = ("INTEGER", "REAL", "TEXT", "BLOB", "")
#: small domains, so a column's distinct count lands on either side of
#: the limit the oracle patches in
CELLS = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([0.5, -1.25, 2.0, 1e300]),
    st.text(alphabet="ab", max_size=2),
    st.binary(max_size=2),
)
#: the limits the oracle runs under: a distinct count stops past 3 values,
#: and a statement returns at most 4 columns (3 NULL counts beside
#: COUNT(*), 2 columns' MIN/MAX)
DISTINCT_LIMIT = 3
RESULT_COLUMNS = 4


def _quoted(name: str) -> str:
    return '"' + name + '"'


@st.composite
def sources(draw):
    """``[(table, [(column, type, not_null)], rows)]`` of one source."""
    tables = []
    for table in draw(st.lists(st.sampled_from(TABLE_NAMES), min_size=1,
                               max_size=3, unique=True)):
        names = draw(st.lists(st.sampled_from(COLUMN_NAMES), min_size=1,
                              max_size=7, unique=True))
        columns = [
            (name, draw(st.sampled_from(DECLARED_TYPES)), draw(st.booleans()))
            for name in names
        ]
        all_null = [not not_null and draw(st.booleans()) for _, _, not_null in columns]
        count = draw(st.sampled_from([0, 1, 1, 2, 5, 9]))
        rows = [
            tuple(
                None if empty else draw(CELLS if not_null else st.none() | CELLS)
                for (_, _, not_null), empty in zip(columns, all_null)
            )
            for _ in range(count)
        ]
        tables.append((table, columns, rows))
    return tables


def _write(path: str, tables) -> None:
    conn = sqlite3.connect(path)
    for table, columns, rows in tables:
        body = ", ".join(
            f"{_quoted(name)} {kind}{' NOT NULL' if not_null else ''}"
            for name, kind, not_null in columns
        )
        conn.execute(f"CREATE TABLE {_quoted(table)} ({body})")
        marks = ", ".join("?" for _ in columns)
        conn.executemany(f"INSERT INTO {_quoted(table)} VALUES ({marks})", rows)
    conn.commit()
    conn.close()


def _oracle(adapter: SQLiteAdapter, table: str, column: str) -> ColumnProfile:
    """The per-column statements profiling ran before it went per
    table: three full scans, and an uncapped distinct count."""
    col, tbl = f"[{column}]", f"[{table}]"
    total, nulls = adapter.execute(f"SELECT COUNT(*), SUM({col} IS NULL) FROM {tbl}")[0]
    low, high = adapter.execute(f"SELECT MIN({col}), MAX({col}) FROM {tbl}")[0]
    distinct = adapter.execute(f"SELECT COUNT(DISTINCT {col}) FROM {tbl}")[0][0]
    return ColumnProfile(
        table, column,
        null_fraction=(nulls or 0) / total if total else 0.0,
        min_value=low, max_value=high,
        distinct_count=min(distinct, profiling.DICTIONARY_MAX_DISTINCT + 1),
    )


def _profile(path: str):
    adapter = SQLiteAdapter(path)
    try:
        extracted = SchemaExtractor(adapter).extract()
        profile = DataProfiler(adapter).profile(extracted)
        expected = {key: _oracle(adapter, *key) for key in profile.columns}
    finally:
        adapter.close()
    return profile, expected


class TestProfilerOracle:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(sources())
    def test_profile_equals_per_column_sql(self, tmp_path_factory, tables):
        path = str(tmp_path_factory.mktemp("source") / "source.db")
        _write(path, tables)
        with mock.patch.object(profiling, "DICTIONARY_MAX_DISTINCT", DISTINCT_LIMIT), \
                mock.patch.object(sqlite_adapter, "RESULT_COLUMNS", RESULT_COLUMNS):
            profile, expected = _profile(path)
        assert len(profile.columns) == sum(len(columns) for _, columns, _ in tables)
        assert profile.columns == expected

    def test_wider_than_one_statement_at_the_real_limit(self, tmp_path):
        """2 000 columns, the most a SQLite table has: the NULL counts
        and MIN/MAX take two statements each, and no statement passes
        SQLite's 2 000 result columns."""
        width = 2000
        columns = [(f"c{i}", "INTEGER", False) for i in range(width)]
        rows = [tuple(range(r, r + width)) for r in range(3)] + [(None,) * width]
        path = str(tmp_path / "wide.db")
        _write(path, [("wide", columns, rows)])
        profile, expected = _profile(path)
        assert profile.columns == expected
        assert profile.get("wide", "c1999").null_fraction == 0.25
        assert profile.get("wide", "c1999").max_value == 2001

    def test_counts_stop_one_past_the_limit(self, tmp_path):
        limit = profiling.DICTIONARY_MAX_DISTINCT
        columns = [("few", "INTEGER", False), ("many", "INTEGER", False)]
        rows = [(i % limit, i) for i in range(limit + 50)]
        path = str(tmp_path / "limit.db")
        _write(path, [("t", columns, rows)])
        profile, _ = _profile(path)
        assert profile.get("t", "few").distinct_count == limit
        assert profile.get("t", "many").distinct_count == limit + 1

    def test_two_statements_per_table_and_one_per_column(self, imdb_adapter):
        statements = []
        imdb_adapter._conn.set_trace_callback(statements.append)
        extracted = SchemaExtractor(imdb_adapter).extract()
        del statements[:]
        DataProfiler(imdb_adapter).profile(extracted)
        imdb_adapter._conn.set_trace_callback(None)
        tables = len(extracted.tables)
        columns = sum(len(table.columns) for table in extracted.tables)
        assert len(statements) == 2 * tables + columns
        assert not [s for s in statements if "COUNT(DISTINCT" in s.upper()]


#: each default check's own statement before verify read one query per
#: table, and the two values a range that is not a number is made of
OLD_CHECKS = {
    "count": "SELECT COUNT(*) FROM {table}",
    "avg": "SELECT AVG({column}) FROM {table}",
    "range": "SELECT MAX({column}) - MIN({column}) FROM {table}",
    "nulls": "SELECT SUM({column} IS NULL) FROM {table}",
    "pair": "SELECT MAX({column}), MIN({column}) FROM {table}",
}


def _old_check(adapter: SQLiteAdapter, name: str, kind: str | None = None) -> tuple:
    """The result row of check *name*'s (``avg(t.c)``) old statement,
    or of the *kind* statement over its column."""
    own, _, label = name[:-1].partition("(")
    table, _, column = label.partition(".")
    sql = OLD_CHECKS[kind or own].format(table=f"[{table}]", column=f"[{column}]")
    return adapter.execute(sql)[0]


def _model(tables) -> Schema:
    """The model of a drawn source: each column's declared type (TEXT
    when none), nullable unless declared NOT NULL."""
    schema = Schema("source")
    for table, columns, rows in tables:
        schema.add_table(Table(table, str(len(rows)), [
            Field.of(name, kind or "TEXT", GeneratorSpec("NullGenerator"),
                     nullable=not not_null)
            for name, kind, not_null in columns
        ]))
    return schema


class TestVerifyOracle:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(sources())
    @example([("t", [("a", "INTEGER", False), ("b", "REAL", False)], [])])
    @example([("t", [("a", "INTEGER", True), ("b", "REAL", False)],
               [("ab", None), (1, b"x"), (2, 0.5)])])
    def test_checks_equal_per_check_sql(self, tmp_path_factory, tables):
        """Source and target (every other source row) values of every
        check are its old statement's, but for two: an empty table's
        NULL count is 0, not NULL (the same grade); and a range whose MIN
        or MAX is not a number is the (MAX, MIN) pair, graded by
        equality, where SQLite subtracted the texts' numeric prefixes."""
        directory = tmp_path_factory.mktemp("verify")
        source, target = str(directory / "source.db"), str(directory / "target.db")
        _write(source, tables)
        _write(target, [(table, columns, rows[1::2]) for table, columns, rows in tables])
        with mock.patch.object(sqlite_adapter, "RESULT_COLUMNS", RESULT_COLUMNS):
            checks = default_queries(_model(tables))
        assert max(len(check.query.aggregates) for check in checks) <= RESULT_COLUMNS
        with SQLiteAdapter(source) as original, SQLiteAdapter(target) as synthetic:
            report = FidelityChecker(original, synthetic).run(checks)
            for c in report.comparisons:
                name = c.query.name
                for value, adapter in ((c.original, original), (c.synthetic, synthetic)):
                    old = _old_check(adapter, name)[0]
                    if name.startswith("nulls(") and old is None:
                        old = 0
                    if isinstance(value, tuple):  # a MIN or MAX that is not a number
                        assert name.startswith("range(")
                        old = _old_check(adapter, name, "pair")
                        assert not all(isinstance(v, (int, float)) for v in old)
                    assert value == old, (name, value, old)
                if isinstance(c.original, tuple) or isinstance(c.synthetic, tuple):
                    assert c.relative_error is None
                    assert c.passed == (c.original == c.synthetic)

    def test_wider_than_one_statement_at_the_real_limit(self, tmp_path):
        """500 nullable INTEGER columns are 2 001 aggregates: two
        statements per database, none past SQLite's 2 000 columns."""
        width = 500
        columns = [(f"c{i}", "INTEGER", False) for i in range(width)]
        rows = [tuple(range(r, r + width)) for r in range(3)] + [(None,) * width]
        tables = [("wide", columns, rows)]
        path = str(tmp_path / "wide.db")
        _write(path, tables)
        checks = default_queries(_model(tables))
        assert len(checks) == 1 + 3 * width
        statements = []
        with SQLiteAdapter(path) as adapter:
            adapter._conn.set_trace_callback(statements.append)
            report = FidelityChecker(adapter, adapter).run(checks)
            adapter._conn.set_trace_callback(None)
            assert report.passed
            for comparison in report.comparisons:
                if comparison.query.name.endswith(("(wide)", ".c0)", f".c{width - 1})")):
                    old = _old_check(adapter, comparison.query.name)[0]
                    assert comparison.original == old
        queries = {id(check.query): check.query for check in checks}
        assert len(queries) == 2 and len(statements) == 4
        assert max(len(q.aggregates) for q in queries.values()) <= sqlite_adapter.RESULT_COLUMNS


class TestSqlName:
    def test_plain_names_are_unchanged(self):
        for name in ("movies", "movie_id", "_x", "L_ORDERKEY", "c1"):
            assert sql_name(name) == name

    def test_keywords_and_odd_names_are_quoted(self):
        assert sql_name("order") == '"order"'
        assert sql_name("Group") == '"Group"'
        assert sql_name("my col") == '"my col"'
        assert sql_name("1st") == '"1st"'
        assert sql_name('a"b') == '"a""b"'

    def test_every_keyword_quoted_is_a_table_and_a_column(self):
        conn = sqlite3.connect(":memory:")
        for word in sorted(SQLITE_KEYWORDS):
            name = sql_name(word.lower())
            conn.execute(f"CREATE TABLE {name} ({name} INTEGER)")
            conn.execute(f"INSERT INTO {name} ({name}) VALUES (1)")
        conn.close()

    def test_ddl_and_sql_writer_quote_keywords(self):
        table = Table("order", "1", fields=[
            Field("group", parse_type("INTEGER"), GeneratorSpec("IdGenerator"),
                  primary=True, nullable=False),
            Field("select", parse_type("VARCHAR(5)"), GeneratorSpec("IdGenerator")),
        ])
        writer = SqlWriter("order", ["group", "select"])
        conn = sqlite3.connect(":memory:")
        conn.execute(create_table_sql(table, "sqlite"))
        conn.execute(writer.write_row([1, "a"]))
        assert conn.execute('SELECT "group", "select" FROM "order"').fetchall() == [
            (1, "a")
        ]
        conn.close()


class TestKeywordRoundTrip:
    """A table ``order`` with columns ``group`` and ``select``, referenced
    by a table ``values`` with a column ``key``."""

    ORDERS, VALUES = 200, 400

    @pytest.fixture
    def source(self, tmp_path):
        path = str(tmp_path / "source.db")
        conn = sqlite3.connect(path)
        conn.executescript(
            'CREATE TABLE "order" (id INTEGER PRIMARY KEY, "group" TEXT, '
            '"select" INTEGER, amount REAL);'
            'CREATE TABLE "values" (v_id INTEGER PRIMARY KEY, '
            'order_id INTEGER REFERENCES "order" (id), "key" TEXT);'
        )
        conn.executemany(
            'INSERT INTO "order" VALUES (?, ?, ?, ?)',
            [(i, "abc"[i % 3], i % 7, i * 1.5) for i in range(1, self.ORDERS + 1)],
        )
        conn.executemany(
            'INSERT INTO "values" VALUES (?, ?, ?)',
            [(i, 1 + i % self.ORDERS, f"k{i % 5}") for i in range(1, self.VALUES + 1)],
        )
        conn.commit()
        conn.close()
        return path

    def test_extract_generate_update_verify(self, source, tmp_path):
        model = str(tmp_path / "model")
        target = str(tmp_path / "target.db")
        assert main(["extract", source, "-o", model]) == 0
        assert main(["generate", "--model", model, "--kind", "sqlite",
                     "--format", "sql", "--database", target, "-q"]) == 0
        assert main(["verify", "--model", model, "--source", source,
                     "--target", target]) == 0
        adapter = SQLiteAdapter(target)
        try:
            assert adapter.row_count("order") == self.ORDERS
            assert adapter.row_count("values") == self.VALUES
            box = UpdateBlackBox(GenerationEngine(*load_saved(model)))
            plan = box.plan("order", 1)
            counts = box.apply_epoch(adapter, "order", 1, "id")
            assert counts == {
                "insert": plan.inserts, "update": plan.updates, "delete": plan.deletes
            }
            assert counts["update"] > 0
            assert adapter.row_count("order") == (
                self.ORDERS + plan.inserts - plan.deletes
            )
        finally:
            adapter.close()

    def test_workload_replays_on_keyword_names(self, source, tmp_path, capsys):
        model = str(tmp_path / "model")
        target = str(tmp_path / "target.db")
        assert main(["extract", source, "-o", model]) == 0
        assert main(["generate", "--model", model, "--kind", "sqlite",
                     "--format", "sql", "--database", target, "-q"]) == 0
        capsys.readouterr()
        assert main(["workload", "--model", model, "--queries", "5", "--replay",
                     "--database", target, "--max-speedup", "0"]) == 0
        out = capsys.readouterr().out
        assert "replayed 5 queries" in out and "; 0 failed" in out, out


class TestNamesThatAreNotIdentifiers:
    """Columns ``my col``, ``a]b`` and ``q`t``: extraction reads them
    through backtick-quoted names, their bound properties get names a
    ``${...}`` reference can hold, and the model loads and verifies."""

    def test_extract_generate_verify(self, tmp_path):
        source = str(tmp_path / "source.db")
        conn = sqlite3.connect(source)
        conn.execute(
            'CREATE TABLE t (id INTEGER PRIMARY KEY, "my col" TEXT, "a]b" INTEGER, "q`t" REAL)'
        )
        conn.executemany(
            "INSERT INTO t VALUES (?, ?, ?, ?)",
            [(i, "xyz"[i % 3], i % 7, i * 0.5) for i in range(1, 101)],
        )
        conn.commit()
        conn.close()
        model = str(tmp_path / "model")
        target = str(tmp_path / "target.db")
        assert main(["extract", source, "-o", model]) == 0
        assert main(["generate", "--model", model, "--kind", "sqlite",
                     "--format", "sql", "--database", target, "-q"]) == 0
        assert main(["verify", "--model", model, "--source", source,
                     "--target", target]) == 0
        adapter = SQLiteAdapter(target)
        try:
            assert [column.name for column in adapter.columns("t")] == [
                "id", "my col", "a]b", "q`t"
            ]
            assert adapter.row_count("t") == 100
        finally:
            adapter.close()
