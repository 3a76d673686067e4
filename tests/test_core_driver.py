"""Tests for the benchmark driver (§7 benchmarking automation)."""

from __future__ import annotations

import pytest

from repro.core.driver import BenchmarkDriver, DriverReport, QueryExecution
from repro.core.loader import DataLoader
from repro.core.queries import Aggregate, Op, Predicate, Query
from repro.core.translator import SchemaTranslator
from repro.db.sqlite_adapter import SQLiteAdapter
from repro.engine import GenerationEngine
from repro.suites.tpch import tpch_artifacts, tpch_schema
from repro.suites.tpch.workload import PREDICTED_QUERIES
from tests.conftest import demo_schema


@pytest.fixture(scope="module")
def demo_setup():
    schema = demo_schema()
    adapter = SQLiteAdapter(":memory:")
    SchemaTranslator().apply(schema, adapter)
    DataLoader(adapter).load(GenerationEngine(schema))
    yield schema, adapter
    adapter.close()


class TestRunQuery:
    def test_timed_and_graded(self, demo_setup):
        schema, adapter = demo_setup
        driver = BenchmarkDriver(schema, adapter)
        execution = driver.run_query(
            "count", Query("customer", [Aggregate("count")])
        )
        assert execution.succeeded
        assert execution.seconds >= 0
        assert execution.rows == 1
        assert execution.first_row == (60,)
        assert execution.prediction_ok is True

    def test_prediction_grading_catches_wrong_data(self, demo_setup):
        schema, _adapter = demo_setup
        empty = SQLiteAdapter(":memory:")
        SchemaTranslator().apply(schema, empty)
        empty.insert_rows("customer", ["c_id"], [(1,)])  # 1 row, model says 60
        driver = BenchmarkDriver(schema, empty)
        execution = driver.run_query(
            "count", Query("customer", [Aggregate("count")])
        )
        assert execution.prediction_ok is False
        empty.close()

    def test_unpredictable_query_still_timed(self, demo_setup):
        schema, adapter = demo_setup
        driver = BenchmarkDriver(schema, adapter)
        # c_name is a PersonNameGenerator: no analytic model → no grading.
        execution = driver.run_query(
            "names", Query("customer", [Aggregate("count")],
                           [Predicate("c_name", Op.EQ, "Ann Smith")])
        )
        assert execution.succeeded
        assert execution.prediction_ok is None

    def test_duplicate_aggregates_graded_positionally(self, demo_setup):
        # Regression: two COUNT(*) entries render identically; keying
        # predictions by SQL text alone collapsed them, shifting every
        # later prediction onto the wrong result column (the AVG below
        # was graded against a COUNT and always failed).
        schema, adapter = demo_setup
        driver = BenchmarkDriver(schema, adapter)
        execution = driver.run_query(
            "dups",
            Query("orders", [
                Aggregate("count"),
                Aggregate("count"),
                Aggregate("avg", "o_quantity"),
            ]),
        )
        assert execution.succeeded
        assert execution.predictions is not None
        assert list(execution.predictions) == [
            "COUNT(*)", "COUNT(*)#2", "AVG(o_quantity)",
        ]
        assert execution.first_row[0] == execution.first_row[1] == 180
        assert execution.prediction_ok is True

    def test_sql_error_captured_not_raised(self, demo_setup):
        schema, adapter = demo_setup
        driver = BenchmarkDriver(schema, adapter)
        execution = driver.run_sql("bad", "SELECT * FROM nowhere")
        assert not execution.succeeded
        assert "nowhere" in (execution.error or "")


class TestDriverReport:
    def test_summary_counts(self, demo_setup):
        schema, adapter = demo_setup
        driver = BenchmarkDriver(schema, adapter)
        report = DriverReport([
            driver.run_sql("probe#0", "SELECT COUNT(*) FROM orders"),
            driver.run_sql("probe#1", "SELECT COUNT(*) FROM customer"),
            driver.run_query("count", Query("customer", [Aggregate("count")])),
        ])
        assert len(report.executions) == 3
        assert report.failed == 0
        assert report.predictions_checked == 1
        assert report.predictions_passed == 1
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
        schema = tpch_schema(0.001)
        artifacts = tpch_artifacts()
        adapter = SQLiteAdapter(":memory:")
        SchemaTranslator().apply(schema, adapter)
        DataLoader(adapter).load(GenerationEngine(schema, artifacts))
        yield schema, artifacts, adapter
        adapter.close()

    def test_default_workload_runs_clean(self, tpch_setup):
        schema, artifacts, adapter = tpch_setup
        driver = BenchmarkDriver(schema, adapter, artifacts)
        report = DriverReport([
            driver.run_query(name, query) for name, query in PREDICTED_QUERIES
        ])
        assert report.failed == 0, "\n".join(report.summary_lines())
        assert report.predictions_checked == len(PREDICTED_QUERIES)
        assert report.predictions_passed >= report.predictions_checked - 1
