"""Tests for query-workload synthesis (repro.workload)."""

from __future__ import annotations

import io

import pytest

from repro import obs
from repro.core.loader import DataLoader
from repro.core.queries import Aggregate, ParameterSpec, Query, QueryTemplate
from repro.core.translator import SchemaTranslator
from repro.db.sqlite_adapter import SQLiteAdapter
from repro.engine import GenerationEngine
from repro.exceptions import WorkloadError
from repro.update.blackbox import UpdateBlackBox
from repro.workload import (
    ARRIVAL_PROCESSES,
    ArrivalSpec,
    CdcInterleave,
    ScheduledQuery,
    WeightedTemplate,
    WorkloadReplayer,
    WorkloadSpec,
    WorkloadStream,
    auto_spec,
    key_column,
    read_jsonl,
)
from tests.conftest import demo_schema

COUNT_CUSTOMERS = QueryTemplate(
    "count_customers",
    "SELECT COUNT(*) FROM customer WHERE c_balance <= :cap",
    [ParameterSpec("cap", "customer", "c_balance", "numeric")],
)
COUNT_ORDERS = QueryTemplate(
    "count_orders",
    "SELECT COUNT(*) FROM orders WHERE o_quantity < :q",
    [ParameterSpec("q", "orders", "o_quantity", "numeric")],
)


def demo_spec(**kwargs) -> WorkloadSpec:
    defaults = dict(name="demo", count=40, repetition=0.0)
    defaults.update(kwargs)
    return WorkloadSpec(
        templates=[
            WeightedTemplate(COUNT_CUSTOMERS, 1.0),
            WeightedTemplate(COUNT_ORDERS, 3.0),
        ],
        **defaults,
    )


class TestSpec:
    def test_validate_accepts_default(self):
        demo_spec().validate()

    @pytest.mark.parametrize("bad", [
        dict(count=-1),
        dict(repetition=1.5),
        dict(pool_size=-2),
        dict(arrival=ArrivalSpec(process="lunar")),
        dict(arrival=ArrivalSpec(rate=0.0)),
        dict(arrival=ArrivalSpec(process="diurnal", amplitude=1.0)),
    ])
    def test_validate_rejects(self, bad):
        with pytest.raises(WorkloadError):
            demo_spec(**bad).validate()

    def test_rejects_duplicate_template_names(self):
        spec = WorkloadSpec("dup", [
            WeightedTemplate(COUNT_ORDERS), WeightedTemplate(COUNT_ORDERS),
        ])
        with pytest.raises(WorkloadError):
            spec.validate()

    def test_uniform_weights(self):
        spec = WorkloadSpec.uniform("u", [COUNT_CUSTOMERS, COUNT_ORDERS])
        assert [w.weight for w in spec.templates] == [1.0, 1.0]

    def test_effective_pool_size(self):
        assert demo_spec(count=40, repetition=0.5).effective_pool_size() == 10
        assert demo_spec(pool_size=7).effective_pool_size() == 7
        assert demo_spec(count=1, repetition=1.0).effective_pool_size() == 1

    def test_arrival_processes_exported(self):
        assert ARRIVAL_PROCESSES == ("steady", "poisson", "diurnal")

    def test_auto_spec_covers_every_table(self):
        spec = auto_spec(demo_schema())
        spec.validate()
        assert {w.template.name for w in spec.templates} == {
            "scan_customer", "scan_orders",
        }
        # Non-id columns become parameters; SQL stays instantiable.
        for weighted in spec.templates:
            assert "COUNT(*)" in weighted.template.sql


class TestStream:
    def test_same_seed_same_bytes(self):
        dumps = []
        for _ in range(2):
            stream = WorkloadStream(demo_schema(), demo_spec())
            buffer = io.StringIO()
            assert stream.dump_jsonl(buffer) == 40
            dumps.append(buffer.getvalue())
        assert dumps[0] == dumps[1]

    def test_different_seed_differs(self):
        a = WorkloadStream(demo_schema(seed=1), demo_spec()).events()
        b = WorkloadStream(demo_schema(seed=2), demo_spec()).events()
        assert [e.sql for e in a] != [e.sql for e in b]

    def test_slices_compose_to_full_stream(self):
        stream = WorkloadStream(demo_schema(), demo_spec())
        whole = stream.events()
        sliced = stream.events(0, 13) + stream.events(13, 29) + stream.events(29)
        assert whole == sliced

    def test_bad_slice_rejected(self):
        stream = WorkloadStream(demo_schema(), demo_spec())
        with pytest.raises(WorkloadError):
            stream.events(5, 2)

    def test_weighted_mix_leans_to_heavy_template(self):
        events = WorkloadStream(demo_schema(), demo_spec(count=200)).events()
        orders = sum(1 for e in events if e.template == "count_orders")
        assert orders > len(events) / 2

    def test_zero_repetition_is_all_unique(self):
        stream = WorkloadStream(demo_schema(), demo_spec(repetition=0.0))
        pool = stream.spec.effective_pool_size()
        indices = [e.index for e in stream.events()]
        assert len(set(indices)) == len(indices)
        assert all(index >= pool for index in indices)

    def test_high_repetition_reuses_pool(self):
        stream = WorkloadStream(
            demo_schema(), demo_spec(count=60, repetition=0.9, pool_size=3)
        )
        events = stream.events()
        pooled = [e for e in events if e.index < 3]
        assert len(pooled) > len(events) / 2
        # Repeated instances render identical SQL within a template.
        rendered = {}
        for event in pooled:
            key = (event.template, event.index)
            assert rendered.setdefault(key, event.sql) == event.sql

    @pytest.mark.parametrize("process", ARRIVAL_PROCESSES)
    def test_arrivals_deterministic_and_monotonic(self, process):
        spec = demo_spec(arrival=ArrivalSpec(process=process, rate=50.0))
        stream = WorkloadStream(demo_schema(), spec)
        first, second = stream.arrivals(), stream.arrivals()
        assert first == second
        assert first[0] == 0.0
        assert all(b >= a for a, b in zip(first, first[1:]))

    def test_steady_arrivals_evenly_spaced(self):
        spec = demo_spec(arrival=ArrivalSpec(process="steady", rate=4.0))
        timestamps = WorkloadStream(demo_schema(), spec).arrivals(5)
        assert timestamps == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_poisson_arrivals_irregular(self):
        spec = demo_spec(arrival=ArrivalSpec(process="poisson", rate=4.0))
        timestamps = WorkloadStream(demo_schema(), spec).arrivals(20)
        gaps = {round(b - a, 6) for a, b in zip(timestamps, timestamps[1:])}
        assert len(gaps) > 1

    def test_jsonl_round_trip(self):
        stream = WorkloadStream(demo_schema(), demo_spec())
        buffer = io.StringIO()
        stream.dump_jsonl(buffer)
        buffer.seek(0)
        assert read_jsonl(buffer) == stream.events()

    def test_read_jsonl_skips_blank_lines(self):
        event = ScheduledQuery(0.5, "t", 3, "SELECT 1")
        assert read_jsonl(["", event.to_json(), "  "]) == [event]

    def test_bad_line_raises(self):
        with pytest.raises(WorkloadError):
            ScheduledQuery.from_json('{"ts": "late"}')


@pytest.fixture(scope="module")
def demo_database():
    schema = demo_schema()
    adapter = SQLiteAdapter(":memory:")
    SchemaTranslator().apply(schema, adapter)
    DataLoader(adapter).load(GenerationEngine(schema))
    yield schema, adapter
    adapter.close()


class TestReplay:
    def test_replay_runs_and_reports(self, demo_database):
        schema, adapter = demo_database
        stream = WorkloadStream(schema, demo_spec(count=12))
        replayer = WorkloadReplayer(schema, adapter)
        report = replayer.replay(stream.events())
        assert len(report.executions) == 12
        assert report.failed == 0
        assert report.ok
        assert set(report.per_template) <= {"count_customers", "count_orders"}
        stats = next(iter(report.per_template.values()))
        assert stats.count == len(stats.seconds)
        assert stats.quantile(0.5) >= 0.0
        assert any("replayed 12 queries" in line for line in report.summary_lines())

    def test_failed_query_counted_not_raised(self, demo_database):
        schema, adapter = demo_database
        replayer = WorkloadReplayer(schema, adapter)
        report = replayer.replay([ScheduledQuery(0.0, "bad", 0, "SELECT * FROM no")])
        assert report.failed == 1
        assert not report.ok
        assert report.per_template["bad"].errors == 1

    def test_check_grading_gates_ok(self, demo_database):
        schema, adapter = demo_database
        replayer = WorkloadReplayer(schema, adapter)
        good = ("count", Query("customer", [Aggregate("count")]))
        report = replayer.replay([], checks=[good])
        assert report.checks is not None
        assert report.prediction_failures == 0
        assert report.ok

        with SQLiteAdapter(":memory:") as sparse:
            SchemaTranslator().apply(schema, sparse)
            sparse.insert_rows("customer", ["c_id"], [(1,)])
            lying = WorkloadReplayer(schema, sparse).replay([], checks=[good])
        assert lying.prediction_failures == 1
        assert not lying.ok

    def test_latency_histogram_labeled_by_template(self, demo_database):
        schema, adapter = demo_database
        stream = WorkloadStream(schema, demo_spec(count=8))
        registry = obs.enable_metrics()
        try:
            WorkloadReplayer(schema, adapter).replay(stream.events())
        finally:
            obs.disable_metrics()
        text = obs.render_prometheus(registry)
        assert 'workload_query_seconds_count{template="count_orders"}' in text
        assert 'workload_query_seconds_bucket{le="+Inf",template="count_orders"}' in text
        assert 'workload_queries_total{status="ok",template="count_orders"}' in text

    def test_no_metrics_without_registry(self, demo_database):
        schema, adapter = demo_database
        assert obs.active_metrics() is None
        stream = WorkloadStream(schema, demo_spec(count=2))
        report = WorkloadReplayer(schema, adapter).replay(stream.events())
        assert report.ok  # silently skips observation, still reports

    def test_pacing_honors_timestamps(self, demo_database):
        schema, adapter = demo_database
        waits: list[float] = []
        clock_value = [0.0]

        def clock() -> float:
            return clock_value[0]

        def sleep(seconds: float) -> None:
            waits.append(round(seconds, 6))
            clock_value[0] += seconds

        events = [
            ScheduledQuery(0.0, "t", 0, "SELECT 1"),
            ScheduledQuery(2.0, "t", 1, "SELECT 1"),
            ScheduledQuery(6.0, "t", 2, "SELECT 1"),
        ]
        replayer = WorkloadReplayer(
            schema, adapter, max_speedup=2.0, clock=clock, sleep=sleep
        )
        report = replayer.replay(events)
        assert report.failed == 0
        # Workload time compressed 2x: arrivals at wall 0, 1, 3 seconds.
        assert waits == [1.0, 2.0]

    def test_unpaced_replay_never_sleeps(self, demo_database):
        schema, adapter = demo_database

        def explode(_seconds: float) -> None:  # pragma: no cover
            raise AssertionError("sleep called in unpaced replay")

        events = [ScheduledQuery(9999.0, "t", 0, "SELECT 1")]
        replayer = WorkloadReplayer(schema, adapter, max_speedup=0.0, sleep=explode)
        assert replayer.replay(events).failed == 0


class TestCdcInterleave:
    def test_key_column_detection(self):
        schema = demo_schema()
        assert key_column(schema, "customer") == "c_id"
        assert key_column(schema, "orders") == "o_id"

    def test_epochs_applied_at_boundaries(self):
        schema = demo_schema()
        with SQLiteAdapter(":memory:") as adapter:
            SchemaTranslator().apply(schema, adapter)
            DataLoader(adapter).load(GenerationEngine(schema))
            before = adapter.row_count("customer")
            blackbox = UpdateBlackBox(
                schema, insert_fraction=0.1, update_fraction=0.1,
                delete_fraction=0.05,
            )
            stream = WorkloadStream(schema, demo_spec(count=10))
            replayer = WorkloadReplayer(schema, adapter)
            report = replayer.replay(
                stream.events(),
                cdc=CdcInterleave(blackbox, epochs=2, tables=("customer",)),
            )
            after = adapter.row_count("customer")
        assert report.failed == 0
        assert [(e, t) for e, t, _ in report.cdc_applied] == [
            (1, "customer"), (2, "customer"),
        ]
        # Epoch 1 runs against the pristine base: affected == emitted.
        assert report.cdc_applied[0][2] == {"insert": 6, "update": 6, "delete": 3}
        # Counts are affected rows, so they reconcile with the database
        # even when a later epoch touches an already-deleted row.
        inserted = sum(c["insert"] for _, _, c in report.cdc_applied)
        deleted = sum(c["delete"] for _, _, c in report.cdc_applied)
        assert inserted == 12
        assert after == before + inserted - deleted

    def test_explicit_keyless_table_rejected(self):
        schema = demo_schema()
        cdc = CdcInterleave(UpdateBlackBox(schema), tables=("customer",))
        assert cdc.resolved_tables(schema) == [("customer", "c_id")]
        schema.table_by_name("customer").field_by_name("c_id").primary = False
        with pytest.raises(WorkloadError):
            CdcInterleave(UpdateBlackBox(schema), tables=("customer",)
                          ).resolved_tables(schema)


class TestWorkloadCli:
    @pytest.fixture(scope="class")
    def tpch_db(self, tmp_path_factory):
        from repro.suites.tpch import tpch_artifacts, tpch_schema

        schema = tpch_schema(0.001)
        artifacts = tpch_artifacts()
        path = str(tmp_path_factory.mktemp("wl") / "tpch.db")
        with SQLiteAdapter(path) as adapter:
            SchemaTranslator().apply(schema, adapter)
            DataLoader(adapter).load(GenerationEngine(schema, artifacts))
        return path

    def run(self, argv):
        from repro.cli.main import main

        return main(argv)

    def test_neither_dump_nor_replay_is_an_error(self, capsys):
        # the pre-2.1 template pass that used to run here is gone: the
        # seeded stream is the one way to drive a database
        code = self.run([
            "workload", "--suite", "tpch", "--sf", "0.001", "--database", "any.db",
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert "--dump" in err and "--replay" in err

    def test_dump_is_byte_reproducible(self, tmp_path):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            code = self.run([
                "workload", "--suite", "tpch", "--sf", "0.001",
                "--queries", "10", "--dump", str(path),
            ])
            assert code == 0
        first, second = (p.read_bytes() for p in paths)
        assert first == second
        assert first.count(b"\n") == 10

    def test_replay_dumped_stream(self, tpch_db, tmp_path, capsys):
        stream_path = tmp_path / "stream.jsonl"
        code = self.run([
            "workload", "--suite", "tpch", "--sf", "0.001",
            "--queries", "6", "--dump", str(stream_path),
        ])
        assert code == 0
        code = self.run([
            "workload", "--suite", "tpch", "--sf", "0.001",
            "--queries", "6", "--replay", "--stream", str(stream_path),
            "--database", tpch_db, "--max-speedup", "0",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "replayed 6 queries" in out
        assert "predictions ok" in out

    def test_replay_with_cdc(self, tpch_db, tmp_path, capsys):
        import shutil

        mutated = str(tmp_path / "mutated.db")
        shutil.copy(tpch_db, mutated)
        code = self.run([
            "workload", "--suite", "tpch", "--sf", "0.001",
            "--queries", "4", "--replay", "--database", mutated,
            "--max-speedup", "0", "--cdc-epochs", "1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "cdc epoch 1" in out
