"""End-to-end telemetry: a full pipeline run with tracing and metrics
enabled must produce a consistent span tree and metrics that exactly
match the RunReport (the acceptance criterion of the telemetry work)."""

from __future__ import annotations

import pytest

from repro import obs
from repro.core.extraction import SchemaExtractor
from repro.core.model_builder import ModelBuilder
from repro.core.profiling import DataProfiler
from repro.core.project import DBSynthProject
from repro.engine import GenerationEngine
from repro.output.config import OutputConfig
from repro.scheduler.scheduler import Scheduler
from repro.suites.imdb import build_imdb_database
from tests.conftest import demo_schema


@pytest.fixture(autouse=True)
def _clean_obs_state():
    obs.reset()
    yield
    obs.reset()


class TestSchedulerTelemetry:
    def _run(self, workers: int):
        tracer = obs.enable_tracing()
        registry = obs.enable_metrics()
        engine = GenerationEngine(demo_schema())
        report = Scheduler(
            engine, OutputConfig(kind="null"), workers=workers, package_size=50
        ).run()
        return tracer, registry, report

    @pytest.mark.parametrize("workers", [1, 4])
    def test_metrics_match_run_report(self, workers):
        _, registry, report = self._run(workers)
        rows = registry.counter("rows_generated_total")
        bytes_counter = registry.counter("bytes_written_total")
        assert rows.total() == report.rows
        assert bytes_counter.total() == report.bytes_written
        for table in report.tables:
            assert rows.value(table=table.name) == table.rows
            assert bytes_counter.value(table=table.name) == table.bytes_written

    def test_package_counter_matches_partitioning(self):
        _, registry, report = self._run(1)
        packages = registry.counter("packages_completed_total")
        # 60 customer rows / 50 per package = 2; 180 orders / 50 = 4
        assert packages.value(table="customer") == 2
        assert packages.value(table="orders") == 4

    def test_span_tree_nests_run_package_sink(self):
        # inline: the package that flushes a chunk is open in this thread
        # (the pool's tree is test_obs_distributed's: its parent writes)
        tracer, _, _ = self._run(1)
        spans = tracer.spans()
        by_id = {s.span_id: s for s in spans}
        runs = [s for s in spans if s.name == "scheduler.run"]
        assert len(runs) == 1
        packages = [s for s in spans if s.name == "scheduler.package"]
        assert len(packages) == 6
        assert all(p.parent_id == runs[0].span_id for p in packages)
        sink_writes = [s for s in spans if s.name == "sink.write"]
        assert sink_writes, "expected sink.write spans"
        for record in sink_writes:
            assert by_id[record.parent_id].name == "scheduler.package"

    def test_run_report_table_breakdown(self):
        _, _, report = self._run(2)
        assert {t.name for t in report.tables} == {"customer", "orders"}
        assert sum(t.rows for t in report.tables) == report.rows
        assert sum(t.bytes_written for t in report.tables) == report.bytes_written
        customer = report.table("customer")
        assert customer.rows == 60
        assert customer.seconds > 0
        assert customer.mb_per_second >= 0

    def test_value_latency_histogram_sampled(self):
        _, registry, report = self._run(1)
        histogram = registry.get("value_latency_ns")
        assert histogram is not None
        total = sum(
            histogram.snapshot(**dict(key))["count"]
            for key in histogram.label_sets()
        )
        assert total == 6  # one sample per package

    def test_disabled_telemetry_still_fills_table_reports(self):
        engine = GenerationEngine(demo_schema())
        report = Scheduler(engine, OutputConfig(kind="null"), package_size=50).run()
        assert {t.name for t in report.tables} == {"customer", "orders"}
        assert report.table("orders").rows == 180


class TestExtractionTelemetry:
    def test_extraction_and_model_spans(self, tmp_path):
        path = str(tmp_path / "source.db")
        adapter = build_imdb_database(path, movies=20, people=30, seed=3)
        tracer = obs.enable_tracing()
        extracted = SchemaExtractor(adapter).extract()
        profile = DataProfiler(adapter).profile(extracted)
        ModelBuilder(adapter).build(extracted, profile, name="m")
        adapter.close()
        names = {s.name for s in tracer.spans()}
        assert {"extraction.schema", "extraction.sizes",
                "profiling.null_fractions", "profiling.min_max",
                "profiling.distinct_counts", "model.build",
                "model.table"} <= names
        assert profile is not None

    def test_phase_timings_match_spans(self, tmp_path):
        path = str(tmp_path / "source.db")
        adapter = build_imdb_database(path, movies=20, people=30, seed=3)
        tracer = obs.enable_tracing()
        extracted = SchemaExtractor(adapter).extract()
        adapter.close()
        spans = {s.name: s for s in tracer.spans()}
        assert extracted.timings.schema_seconds == pytest.approx(
            spans["extraction.schema"].duration
        )
        assert extracted.timings.sizes_seconds == pytest.approx(
            spans["extraction.sizes"].duration
        )

    def test_distinct_counts_are_a_timed_phase(self, tmp_path):
        path = str(tmp_path / "source.db")
        adapter = build_imdb_database(path, movies=20, people=30, seed=3)
        tracer = obs.enable_tracing()
        extracted = SchemaExtractor(adapter).extract()
        DataProfiler(adapter).profile(extracted)
        adapter.close()
        spans = {s.name: s for s in tracer.spans()}
        timings = extracted.timings
        assert timings.distinct_seconds == pytest.approx(
            spans["profiling.distinct_counts"].duration
        )
        assert timings.total() == pytest.approx(
            timings.schema_seconds + timings.sizes_seconds + timings.null_seconds
            + timings.minmax_seconds + timings.distinct_seconds
            + timings.sampling_seconds
        )

    def test_text_probe_reads_at_most_200_values(self, imdb_adapter):
        # cast_members has 289 rows: the dictionary-vs-text probe must
        # stop at 200 of them, not read the column whole
        tracer = obs.enable_tracing()
        project = DBSynthProject(name="m", source=imdb_adapter)
        project.profile()
        result = project.build_model()
        probes = {
            (s.attrs["table"], s.attrs["column"]): s.attrs["values"]
            for s in tracer.spans() if s.name == "model.classify"
        }
        sampled = {
            (d.table, d.column) for d in result.decisions
            if d.generator in ("DictListGenerator", "MarkovChainGenerator")
        }
        assert sampled and sampled <= set(probes)
        assert all(values <= 200 for values in probes.values())
        assert probes[("cast_members", "role")] == 200

    def test_timings_work_without_tracer(self, tmp_path):
        path = str(tmp_path / "source.db")
        adapter = build_imdb_database(path, movies=10, people=10, seed=3)
        extracted = SchemaExtractor(adapter).extract()
        DataProfiler(adapter).profile(extracted)
        adapter.close()
        assert extracted.timings.schema_seconds > 0
        assert extracted.timings.total() > 0

    def test_model_column_metrics(self, tmp_path):
        path = str(tmp_path / "source.db")
        adapter = build_imdb_database(path, movies=20, people=30, seed=3)
        registry = obs.enable_metrics()
        project = DBSynthProject(name="m", source=adapter)
        project.profile()
        result = project.build_model()
        adapter.close()
        chosen = registry.counter("model_columns_total")
        assert chosen.total() == len(result.decisions)


class TestEngineTelemetry:
    def test_recompute_counter_and_depth(self):
        from repro.model.schema import Field, GeneratorSpec, Schema, Table

        schema = Schema("t", seed=7)
        schema.add_table(Table("colors", "10", [
            Field.of("c_id", "BIGINT", GeneratorSpec("IdGenerator"), primary=True),
            Field.of("c_name", "VARCHAR(10)",
                     GeneratorSpec("RandomStringGenerator", {"min": 3, "max": 6})),
        ]))
        schema.add_table(Table("items", "50", [
            Field.of("i_id", "BIGINT", GeneratorSpec("IdGenerator"), primary=True),
            Field.of("i_color", "VARCHAR(10)", GeneratorSpec(
                "DefaultReferenceGenerator",
                {"table": "colors", "field": "c_name"})),
        ]))
        registry = obs.enable_metrics()
        engine = GenerationEngine(schema)
        list(engine.iter_rows("items"))
        assert registry.counter("engine_recomputes_total").total() == 50
        assert registry.counter("engine_recomputes_total").value(table="colors") == 50
        assert registry.gauge("engine_recompute_depth_max").value() == 1

    def test_no_metrics_no_counting(self):
        engine = GenerationEngine(demo_schema())
        list(engine.iter_rows("orders"))
        assert obs.active_metrics() is None

    def test_registry_swap_rebinds_instruments(self):
        engine = GenerationEngine(demo_schema())
        first = obs.enable_metrics()
        engine.compute_value("customer", "c_name", 0)
        second = obs.enable_metrics()
        engine.compute_value("customer", "c_name", 1)
        assert first.counter("engine_recomputes_total").total() == 1
        assert second.counter("engine_recomputes_total").total() == 1


class TestMuxTelemetry:
    def test_mux_accumulates_write_stats(self):
        from repro.output.sinks import MemorySink, OrderedSinkMux

        sink = MemorySink()
        mux = OrderedSinkMux(sink, "t")
        mux.submit(1, "b")  # buffered: nothing flushed yet
        assert mux.flushes == 0
        mux.submit(0, "a")  # flushes both in order
        assert mux.flushes == 2
        assert mux.write_seconds >= 0
        assert sink.getvalue() == "ab"
