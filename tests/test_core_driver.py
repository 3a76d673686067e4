"""Tests for the benchmark driver (§7 benchmarking automation)."""

from __future__ import annotations

import pytest

from repro.core.driver import BenchmarkDriver, DriverReport, QueryExecution
from repro.core.loader import load
from repro.core.queries import Aggregate, Op, Predicate, Query
from repro.db.ddl import create_schema_sql
from repro.db.sqlite_adapter import SQLiteAdapter
from repro.engine import GenerationEngine
from repro.suites.tpch import tpch_artifacts, tpch_schema
from repro.suites.tpch.workload import PREDICTED_QUERIES
from tests.conftest import demo_schema


@pytest.fixture(scope="module")
def demo_setup():
    engine = GenerationEngine(demo_schema())
    adapter = SQLiteAdapter(":memory:")
    adapter.execute_script(create_schema_sql(engine.schema, "sqlite"))
    load(engine, adapter)
    yield engine, adapter
    adapter.close()


class TestRunQuery:
    def test_timed_and_graded(self, demo_setup):
        engine, adapter = demo_setup
        driver = BenchmarkDriver(engine, adapter)
        execution = driver.run_query(
            "count", Query("customer", [Aggregate("count")])
        )
        assert execution.succeeded
        assert execution.seconds >= 0
        assert execution.rows == 1
        assert execution.first_row == (60,)
        assert execution.check_ok is True

    def test_prediction_grading_catches_wrong_data(self, demo_setup):
        engine, _adapter = demo_setup
        empty = SQLiteAdapter(":memory:")
        empty.execute_script(create_schema_sql(engine.schema, "sqlite"))
        empty.insert_rows("customer", ["c_id"], [(1,)])  # 1 row, model says 60
        driver = BenchmarkDriver(engine, empty)
        execution = driver.run_query(
            "count", Query("customer", [Aggregate("count")])
        )
        assert execution.check_ok is False
        empty.close()

    def test_unpredictable_query_still_timed(self, demo_setup):
        # c_name is a PersonNameGenerator: an equality on it is graded
        # against the exact answer like any other check.
        engine, adapter = demo_setup
        name = adapter.execute("SELECT c_name FROM customer WHERE c_id = 7")[0][0]
        driver = BenchmarkDriver(engine, adapter)
        execution = driver.run_query(
            "names", Query("customer", [Aggregate("count")],
                           [Predicate("c_name", Op.EQ, name)])
        )
        assert execution.succeeded
        assert execution.first_row[0] >= 1
        assert execution.expected == {"COUNT(*)": execution.first_row[0]}
        assert execution.check_ok is True

    def test_a_query_the_model_cannot_answer_is_timed_only(self, demo_setup):
        engine, adapter = demo_setup
        driver = BenchmarkDriver(engine, adapter)
        # SQLite sums text; the model answers SUM over numbers only
        execution = driver.run_query(
            "text_sum", Query("customer", [Aggregate("sum", "c_name")])
        )
        assert execution.succeeded
        assert execution.check_ok is None

    def test_a_date_compared_with_an_int_is_timed_only(self, demo_setup):
        # SQLite compares the loaded ISO text with the number's text
        # (every row is less); the model's day ordinals would say none,
        # so the query is timed and not graded
        engine, adapter = demo_setup
        driver = BenchmarkDriver(engine, adapter)
        execution = driver.run_query(
            "date_vs_int", Query("orders", [Aggregate("count")],
                                 [Predicate("o_date", Op.LT, 300_000)])
        )
        assert execution.succeeded
        assert execution.first_row[0] > 0
        assert execution.check_ok is None

    def test_duplicate_aggregates_graded_positionally(self, demo_setup):
        # Regression: two COUNT(*) entries render identically; keying
        # answers by SQL text alone collapsed them, shifting every
        # later answer onto the wrong result column (the AVG below
        # was graded against a COUNT and always failed).
        engine, adapter = demo_setup
        driver = BenchmarkDriver(engine, adapter)
        execution = driver.run_query(
            "dups",
            Query("orders", [
                Aggregate("count"),
                Aggregate("count"),
                Aggregate("avg", "o_quantity"),
            ]),
        )
        assert execution.succeeded
        assert execution.expected is not None
        assert list(execution.expected) == [
            "COUNT(*)", "COUNT(*)#2", "AVG(o_quantity)",
        ]
        assert execution.first_row[0] == execution.first_row[1] == 180
        assert execution.check_ok is True

    def test_sql_error_captured_not_raised(self, demo_setup):
        engine, adapter = demo_setup
        driver = BenchmarkDriver(engine, adapter)
        execution = driver.run_sql("bad", "SELECT * FROM nowhere")
        assert not execution.succeeded
        assert "nowhere" in (execution.error or "")


class TestDriverReport:
    def test_summary_counts(self, demo_setup):
        engine, adapter = demo_setup
        driver = BenchmarkDriver(engine, adapter)
        report = DriverReport([
            driver.run_sql("probe#0", "SELECT COUNT(*) FROM orders"),
            driver.run_sql("probe#1", "SELECT COUNT(*) FROM customer"),
            driver.run_query("count", Query("customer", [Aggregate("count")])),
        ])
        assert len(report.executions) == 3
        assert report.failed == 0
        assert report.checks_graded == 1
        assert report.checks_passed == 1
        summary = report.summary_lines()
        assert summary[-1].startswith("total: 3 queries")

    def test_failed_counted(self):
        report = DriverReport([
            QueryExecution("a", "SELECT 1", 0.0, 1),
            QueryExecution("b", "bad", 0.0, 0, error="boom"),
        ])
        assert report.failed == 1
        assert report.succeeded == 1


class TestTpchWorkload:
    @pytest.fixture(scope="class")
    def tpch_setup(self):
        engine = GenerationEngine(tpch_schema(0.001), tpch_artifacts())
        adapter = SQLiteAdapter(":memory:")
        adapter.execute_script(create_schema_sql(engine.schema, "sqlite"))
        load(engine, adapter)
        yield engine, adapter
        adapter.close()

    def test_default_workload_runs_clean(self, tpch_setup):
        engine, adapter = tpch_setup
        driver = BenchmarkDriver(engine, adapter)
        report = DriverReport([
            driver.run_query(name, query) for name, query in PREDICTED_QUERIES
        ])
        assert report.failed == 0, "\n".join(report.summary_lines())
        assert report.checks_graded == len(PREDICTED_QUERIES)
        assert report.checks_passed == report.checks_graded
