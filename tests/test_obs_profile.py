"""The sampling profiler: collapsed stacks, stage attribution, merge
across processes, and the module-level enable/disable lifecycle."""

from __future__ import annotations

import time

import pytest

from repro import obs
from repro.exceptions import ReproError
from repro.obs.profile import SamplingProfiler, _stage_of


@pytest.fixture(autouse=True)
def _clean_obs_state():
    obs.reset()
    yield
    obs.reset()


def _busy(seconds: float) -> None:
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        sum(range(200))


class TestSamplingProfiler:
    def test_samples_running_code(self):
        profiler = SamplingProfiler(hz=200)
        with profiler:
            _busy(0.3)
        assert profiler.samples > 0
        lines = profiler.collapsed_lines()
        assert lines
        stack, count = lines[0].rsplit(" ", 1)
        assert int(count) >= 1
        assert ";" in stack
        assert any("_busy" in line for line in lines)

    def test_write_collapsed(self, tmp_path):
        profiler = SamplingProfiler(hz=200)
        with profiler:
            _busy(0.2)
        path = tmp_path / "out.folded"
        samples = profiler.write_collapsed(str(path))
        assert samples == profiler.samples
        content = path.read_text()
        for line in content.splitlines():
            stack, count = line.rsplit(" ", 1)
            assert int(count) >= 1

    def test_merge_counts_round_trip(self):
        a = SamplingProfiler(hz=200)
        with a:
            _busy(0.15)
        b = SamplingProfiler(hz=200)
        exported = a.export_counts()
        before = b.samples
        b.merge_counts(exported)
        assert b.samples == before + sum(exported.values())
        b.merge_counts(None)  # no-op
        b.merge_counts({})  # no-op
        assert b.samples == before + sum(exported.values())

    def test_stage_attribution_sums_to_one(self):
        profiler = SamplingProfiler(hz=200)
        with profiler:
            _busy(0.3)
        stages = profiler.stage_attribution()
        assert stages
        assert abs(sum(s.fraction for s in stages) - 1.0) < 1e-6
        assert stages == sorted(stages, key=lambda s: s.samples, reverse=True)
        assert all(s.wall_seconds >= 0 and s.cpu_seconds >= 0 for s in stages)

    def test_stage_of_picks_leafmost_repro_frame(self):
        stack = (
            "repro.scheduler.scheduler.run",
            "repro.generators.basic.next_value",
            "builtins.sum",
        )
        assert _stage_of(stack) == "generators"
        assert _stage_of(("threading.run", "builtins.sum")) == "other"
        assert _stage_of(()) == "other"

    def test_invalid_rate_rejected(self):
        with pytest.raises(ReproError):
            SamplingProfiler(hz=0)

    def test_double_start_rejected(self):
        profiler = SamplingProfiler(hz=100).start()
        try:
            with pytest.raises(ReproError):
                profiler.start()
        finally:
            profiler.stop()

    def test_stop_is_idempotent(self):
        profiler = SamplingProfiler(hz=100).start()
        profiler.stop()
        profiler.stop()


class TestModuleLifecycle:
    def test_enable_returns_existing(self):
        first = obs.enable_profiling(hz=50)
        second = obs.enable_profiling(hz=200)
        assert first is second
        assert obs.active_profiler() is first

    def test_reset_stops_profiler(self):
        profiler = obs.enable_profiling()
        obs.reset()
        assert obs.active_profiler() is None
        assert profiler._thread is None


class TestRunReportProfile:
    def test_profile_attached_when_sampling(self):
        from repro.engine import GenerationEngine
        from repro.output.config import OutputConfig
        from repro.scheduler import Scheduler
        from tests.conftest import demo_schema

        obs.enable_profiling(hz=300)
        _busy(0.1)  # guarantee samples even if the tiny run outpaces the sampler
        report = Scheduler(
            GenerationEngine(demo_schema()), OutputConfig(kind="null"),
            package_size=10,
        ).run()
        assert report.profile, "run report missing stage attribution"
        assert all(hasattr(s, "stage") for s in report.profile)

    def test_profile_empty_when_disabled(self):
        from repro.engine import GenerationEngine
        from repro.output.config import OutputConfig
        from repro.scheduler import Scheduler
        from tests.conftest import demo_schema

        report = Scheduler(
            GenerationEngine(demo_schema()), OutputConfig(kind="null"),
            package_size=50,
        ).run()
        assert report.profile == ()

    def test_process_backend_merges_worker_samples(self):
        from repro.engine import GenerationEngine
        from repro.output.config import OutputConfig
        from repro.scheduler import Scheduler
        from tests.conftest import demo_schema

        profiler = obs.enable_profiling(hz=400)
        report = Scheduler(
            GenerationEngine(demo_schema()), OutputConfig(kind="null"),
            workers=2, package_size=10,
        ).run()
        assert report.rows == 240
        # parent + two workers sampled; merged counts land in one place
        assert profiler.samples > 0
