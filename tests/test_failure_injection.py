"""Failure injection: errors must surface, not corrupt output."""

from __future__ import annotations

import pytest

from repro.engine import GenerationEngine
from repro.exceptions import GenerationError, OutputError
from repro.generators.base import GenerationContext, Generator
from repro.generators.registry import register
from repro.model.schema import Field, GeneratorSpec, Schema, Table
from repro.output.config import OutputConfig
from repro.output.sinks import Sink
from repro.scheduler.scheduler import Scheduler
from tests.conftest import demo_schema


@register("FailingGenerator")
class FailingGenerator(Generator):
    """Raises after ``after`` values (test fixture)."""

    def bind(self, ctx) -> None:
        self._after = int(self.spec.params.get("after", 10))

    def generate(self, ctx: GenerationContext) -> object:
        if ctx.row >= self._after:
            raise GenerationError(f"synthetic failure at row {ctx.row}")
        return ctx.row


class FailingSink(Sink):
    """Raises on the nth write."""

    def __init__(self, fail_at: int = 2) -> None:
        self._writes = 0
        self._fail_at = fail_at

    def write(self, chunk: str) -> None:
        self._writes += 1
        if self._writes >= self._fail_at:
            raise OutputError("synthetic sink failure")


class TestGeneratorFailures:
    def _schema(self, after: int) -> Schema:
        schema = Schema("fail", seed=1)
        schema.add_table(Table("t", "100", [
            Field.of("x", "BIGINT", GeneratorSpec("FailingGenerator",
                                                  {"after": after})),
        ]))
        return schema

    def test_failure_propagates_serial(self):
        engine = GenerationEngine(self._schema(after=10))
        with pytest.raises(GenerationError, match="synthetic failure"):
            list(engine.iter_rows("t"))

    def test_failure_propagates_from_worker_processes(self):
        engine = GenerationEngine(self._schema(after=10))
        scheduler = Scheduler(engine, OutputConfig(kind="null"), workers=4,
                              package_size=5)
        with pytest.raises(GenerationError, match="synthetic failure"):
            scheduler.run()

    def test_failure_in_one_table_does_not_mask_error(self):
        schema = self._schema(after=0)
        engine = GenerationEngine(schema)
        with pytest.raises(GenerationError):
            Scheduler(engine, OutputConfig(kind="null"), workers=2).run()


class TestSinkFailures:
    def test_sink_write_failure_propagates(self, monkeypatch):
        schema = demo_schema()
        engine = GenerationEngine(schema)
        config = OutputConfig(kind="null")
        failing = FailingSink(fail_at=1)
        monkeypatch.setattr(config, "new_sink", lambda table: failing)
        scheduler = Scheduler(engine, config, workers=2, package_size=10)
        with pytest.raises(OutputError, match="synthetic sink failure"):
            scheduler.run()

    def test_file_sink_to_unwritable_path(self):
        from repro.output.sinks import FileSink

        with pytest.raises(OutputError):
            FileSink("/proc/definitely/not/writable/file.tbl")


class TestRecoveryAfterFailure:
    def test_engine_usable_after_failed_run(self):
        # A failure in one run must not poison the engine for the next.
        schema = Schema("fail2", seed=1)
        schema.add_table(Table("bad", "20", [
            Field.of("x", "BIGINT", GeneratorSpec("FailingGenerator",
                                                  {"after": 5})),
        ]))
        schema.add_table(Table("good", "20", [
            Field.of("y", "BIGINT", GeneratorSpec("IdGenerator")),
        ]))
        engine = GenerationEngine(schema)
        with pytest.raises(GenerationError):
            list(engine.iter_rows("bad"))
        assert len(list(engine.iter_rows("good"))) == 20


class TestQueryAggregateRegression:
    def test_sum_and_avg_over_same_column(self):
        """Regression: two aggregates over one column must not
        double-count (SUM accumulated once per aggregate per row)."""
        from repro.core.queries import Aggregate, Query, VirtualExecutor

        schema = Schema("agg", seed=2)
        schema.add_table(Table("t", "100", [
            Field.of("v", "INTEGER", GeneratorSpec(
                "IntGenerator", {"min": 1, "max": 10}
            )),
        ]))
        executor = VirtualExecutor(schema)
        result = executor.execute(Query("t", [
            Aggregate("count"),
            Aggregate("sum", "v"),
            Aggregate("avg", "v"),
            Aggregate("min", "v"),
            Aggregate("max", "v"),
        ]))
        assert result["COUNT(*)"] == 100
        assert result["AVG(v)"] == pytest.approx(result["SUM(v)"] / 100)
        engine = GenerationEngine(schema)
        true_sum = sum(row[0] for row in engine.iter_rows("t"))
        assert result["SUM(v)"] == true_sum
