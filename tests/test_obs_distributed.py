"""Distributed observability: cross-process trace stitching, metric
delta propagation, and cluster node subtraces.

The acceptance bar mirrors the byte-identity bar of the resilience
tests: whatever backend (or cluster) ran, the stitched trace must tell
one coherent story — worker spans under the parent run span, per-table
totals identical across backends, deterministic counters byte-for-byte
equal — and a kill/respawn run must show the redo spans (attempt=2).
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.engine import GenerationEngine
from repro.obs import span_payload, stitch_spans, table_totals
from repro.obs.trace import Tracer
from repro.output.config import OutputConfig
from repro.resilience import FaultPlan
from repro.scheduler import ClusterScheduler, Scheduler
from tests.conftest import demo_schema


@pytest.fixture(autouse=True)
def _clean_obs_state():
    obs.reset()
    yield
    obs.reset()


def _engine(seed: int = 42) -> GenerationEngine:
    return GenerationEngine(demo_schema(seed=seed))


#: deterministic counters that must agree across backends; latency
#: histograms and engine recompute counts are timing/cache dependent.
DETERMINISTIC_COUNTERS = (
    "rows_generated_total",
    "bytes_written_total",
    "packages_completed_total",
)


def _counter_values(registry, name: str) -> dict[tuple, float]:
    metric = registry.get(name)
    if metric is None:
        return {}
    return {
        key: metric.value(**dict(key)) for key in metric.label_sets()
    }


class TestStitchSpans:
    def test_remaps_ids_and_links_roots(self):
        worker = Tracer()
        with worker.span("scheduler.package", table="t"):
            with worker.span("package.generate", table="t"):
                pass
        payload = span_payload(worker)

        parent = Tracer()
        with parent.span("scheduler.run") as run:
            pass
        adopted = stitch_spans(parent, payload, parent_id=run.span_id)
        assert adopted == 2

        by_name = {r.name: r for r in parent.spans()}
        package = by_name["scheduler.package"]
        generate = by_name["package.generate"]
        assert package.parent_id == run.span_id
        assert generate.parent_id == package.span_id
        # remapped ids never collide with the parent's own
        ids = [r.span_id for r in parent.spans()]
        assert len(ids) == len(set(ids))
        assert "pid" in package.attrs

    def test_clock_reanchored_to_parent_epoch(self):
        worker = Tracer()
        with worker.span("w"):
            pass
        payload = span_payload(worker)
        parent = Tracer()
        stitch_spans(parent, payload)
        (record,) = parent.spans()
        expected = payload["epoch_wall"] - parent.epoch_wall
        assert record.start >= expected - 1e-6

    def test_none_and_empty_payloads_are_noops(self):
        parent = Tracer()
        assert stitch_spans(parent, None) == 0
        assert stitch_spans(parent, {"spans": []}) == 0
        assert parent.spans() == []

    def test_extra_attrs_tag_every_span(self):
        worker = Tracer()
        with worker.span("a"):
            pass
        parent = Tracer()
        stitch_spans(parent, span_payload(worker), extra_attrs={"node": 3})
        (record,) = parent.spans()
        assert record.attrs["node"] == 3

    def test_drain_empties_worker_buffer(self):
        worker = Tracer()
        with worker.span("once"):
            pass
        span_payload(worker)
        assert worker.spans() == []


class TestProcessBackendStitching:
    def test_worker_spans_under_run_span(self):
        tracer = obs.enable_tracing()
        Scheduler(
            _engine(), OutputConfig(kind="null"), workers=2,
            package_size=20,
        ).run()
        records = tracer.drain()
        run = next(r for r in records if r.name == "scheduler.run")
        packages = [r for r in records if r.name == "scheduler.package"]
        assert packages, "no worker package spans stitched"
        assert all(r.parent_id == run.span_id for r in packages)
        assert all("pid" in r.attrs for r in packages)
        assert all(r.attrs.get("attempt") == 1 for r in packages)
        generate = [r for r in records if r.name == "package.generate"]
        package_ids = {r.span_id for r in packages}
        assert all(r.parent_id in package_ids for r in generate)

    def test_per_table_totals_match_inline_run(self):
        def run_with(workers: int):
            tracer = obs.enable_tracing()
            Scheduler(
                _engine(), OutputConfig(kind="null"), workers=workers,
                package_size=25,
            ).run()
            totals = table_totals(tracer.drain())
            obs.reset()
            return totals

        assert run_with(2) == run_with(1)

    def test_deterministic_counters_equal_inline_run(self):
        def run_with(workers: int):
            registry = obs.enable_metrics()
            Scheduler(
                _engine(), OutputConfig(kind="null"), workers=workers,
                package_size=25,
            ).run()
            values = {
                name: _counter_values(registry, name)
                for name in DETERMINISTIC_COUNTERS
            }
            obs.reset()
            return values

        assert run_with(2) == run_with(1)

    def test_telemetry_off_ships_no_payloads(self):
        report = Scheduler(
            _engine(), OutputConfig(kind="null"), workers=2,
            package_size=25,
        ).run()
        assert report.rows == 240
        assert obs.active_tracer() is None


class TestKillRespawnTrace:
    @pytest.mark.parametrize("runtime", ["-w 2", "--nodes 2"])
    def test_requeued_package_spans_carry_attempt_two(self, tmp_path, runtime):
        """A redone package is attempt 2, also through the ``--nodes``
        alias (``ClusterScheduler``), which runs the same pool."""
        tracer = obs.enable_tracing()
        plan = FaultPlan(kill_at=("orders", 50), latch_dir=str(tmp_path / "latch"))
        output = OutputConfig(
            kind="file", format="csv", directory=str(tmp_path / "out")
        )
        if runtime == "-w 2":
            report = Scheduler(
                _engine(), output, workers=2, package_size=25, faults=plan,
            ).run()
            assert report.worker_restarts == 1
        else:
            report = ClusterScheduler(
                demo_schema(seed=42), output=output, package_size=25, faults=plan,
            ).run(2)
            assert report.worker_restarts == 1
        records = tracer.drain()
        redo = [
            r for r in records
            if r.name == "scheduler.package" and r.attrs.get("attempt") == 2
        ]
        assert redo, "respawned worker's redo spans missing from trace"
        assert ("orders", 2) in {
            (r.attrs["table"], r.attrs["sequence"]) for r in redo
        }
        run = next(r for r in records if r.name == "scheduler.run")
        assert all(r.parent_id == run.span_id for r in redo)

    def test_trace_totals_unaffected_by_requeue(self, tmp_path):
        """Redo spans appear, but per-table totals count completed
        packages once (duplicate results are deduplicated downstream of
        stitching — the trace records work done, totals record data)."""
        tracer = obs.enable_tracing()
        plan = FaultPlan(kill_at=("orders", 25), latch_dir=str(tmp_path / "latch"))
        report = Scheduler(
            _engine(),
            OutputConfig(kind="file", format="csv",
                         directory=str(tmp_path / "out")),
            workers=2, package_size=25, faults=plan,
        ).run()
        records = tracer.drain()
        totals = table_totals(records)
        by_table = {t.name: t for t in report.tables}
        # package-stream rows match exactly; bytes exclude header/footer
        # framing, which the report includes
        for name, (rows, _bytes) in totals.items():
            assert rows == by_table[name].rows


class TestExecutorStitching:
    def test_executor_subtraces_carry_their_node(self):
        """``scheduler.run`` is the one root: every executor's packages
        hang under it, each span tagged with its executor's ``node`` id,
        and the executors' metric deltas merge into the parent."""
        tracer = obs.enable_tracing()
        registry = obs.enable_metrics()
        Scheduler(
            _engine(), OutputConfig(kind="null"), workers=3, package_size=30,
        ).run()
        records = tracer.drain()
        (run,) = [r for r in records if r.parent_id is None]
        assert run.name == "scheduler.run"
        packages = [r for r in records if r.name == "scheduler.package"]
        assert all(r.parent_id == run.span_id for r in packages)
        # least-loaded dispatch: the first window's packages reach all three
        assert {r.attrs["node"] for r in packages} == {0, 1, 2}
        package_ids = {r.span_id for r in packages}
        children = [r for r in records if r.parent_id in package_ids]
        assert children and all("node" in r.attrs for r in children)
        rows = _counter_values(registry, "rows_generated_total")
        assert sum(rows.values()) == 240


class TestEmergencyTracePreservation:
    @pytest.mark.parametrize("runtime", ["-w 2", "--nodes 3"])
    def test_partial_trace_written_on_crash(self, tmp_path, monkeypatch, runtime):
        """An un-latched kill is a crash loop: the run stops at the cap
        and, on either runtime, the manifest is marked interrupted and
        the trace gathered so far is kept next to it."""
        from repro.exceptions import SchedulingError
        from repro.scheduler import executor

        monkeypatch.setattr(executor, "POLL_SECONDS", 0.02)  # reap fast
        tracer = obs.enable_tracing()
        ckpt = tmp_path / "ckpt"
        output = OutputConfig(kind="file", format="csv",
                              directory=str(tmp_path / "out"))
        plan = FaultPlan(kill_at=("orders", 50))
        if runtime == "-w 2":
            run = Scheduler(
                _engine(), output, workers=2, package_size=25,
                checkpoint=str(ckpt), faults=plan,
            ).run
        else:
            scheduler = ClusterScheduler(
                demo_schema(), output=output, package_size=25,
                checkpoint=str(ckpt), faults=plan,
            )
            run = lambda: scheduler.run(3)  # noqa: E731
        with pytest.raises(SchedulingError, match="crash loop"):
            run()
        manifest = (ckpt / "manifest.jsonl").read_text().splitlines()
        assert '"type": "interrupted"' in manifest[-1]
        records = obs.read_trace_jsonl(str(ckpt / "trace.partial.jsonl"))
        assert any(r.name == "scheduler.package" for r in records)
        assert tracer is obs.active_tracer()
