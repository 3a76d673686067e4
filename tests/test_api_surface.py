"""The public API surface.

3.0 leaves one generate→format path: ``Generator`` has two generation
methods (``generate``, ``generate_block``) and ``OutputConfig`` has no
``columnar`` selector. 2.0 finished the 1.1 deprecation cycle:
scheduler configuration is keyword-only (the positional shim is gone —
positionals now raise ``TypeError``), ``repro.metrics`` no longer exists
(timing helpers live in ``repro.obs``), and the ``Dataset`` facade plus
the format registry are promoted to the top-level package.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys

import pytest

import repro
from repro.engine import GenerationEngine
from repro.output.config import OutputConfig
from repro.scheduler import Scheduler, generate

from tests.conftest import demo_schema


@pytest.fixture
def engine() -> GenerationEngine:
    return GenerationEngine(demo_schema())


class TestSchedulerKeywordOnly:
    def test_positional_config_raises(self, engine):
        with pytest.raises(TypeError):
            Scheduler(engine, OutputConfig(kind="null"), 2, 50)

    def test_keyword_form_works(self, engine):
        scheduler = Scheduler(
            engine, OutputConfig(kind="null"), workers=2, package_size=50,
            backend="thread", inflight_extra=3,
        )
        assert scheduler.workers == 2
        report = scheduler.run()
        assert report.rows == engine.total_rows()

    def test_generate_positional_config_raises(self, engine):
        with pytest.raises(TypeError):
            generate(engine, OutputConfig(kind="null"), 2, 50)

    def test_generate_keyword_form_works(self, engine):
        report = generate(
            engine, OutputConfig(kind="null"), workers=1, tables=["customer"]
        )
        assert report.rows == engine.sizes["customer"]


class TestMetricsModuleRemoved:
    def test_import_fails(self):
        sys.modules.pop("repro.metrics", None)
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.metrics")

    def test_timing_helpers_live_in_obs(self):
        from repro.obs import Timer, per_value_latency, throughput_mb_per_s

        assert callable(throughput_mb_per_s)
        assert callable(per_value_latency)
        assert Timer is not None


class TestTopLevelSurface:
    def test_version_is_4(self):
        assert repro.__version__.startswith("4.")

    def test_dataset_promoted(self):
        for name in (
            "Dataset",
            "bound_engine",
            "engine_cache_info",
            "clear_engine_cache",
        ):
            assert name in repro.__all__
            assert getattr(repro, name) is not None

    def test_format_registry_promoted(self):
        for name in ("FormatSpec", "format_spec", "known_formats", "register_format"):
            assert name in repro.__all__
        assert set(repro.known_formats()) >= {"csv", "json", "xml", "sql", "arrow"}

    def test_quickstart_mentions_dataset(self):
        assert "Dataset" in repro.__doc__


class TestOneGeneratePath:
    def test_generator_contract_is_two_methods(self):
        public = {
            name for name in vars(repro.Generator)
            if not name.startswith("_") and callable(getattr(repro.Generator, name))
        }
        assert public == {"bind", "generate", "generate_block", "describe"}
        assert repro.Generator.__abstractmethods__ == {"generate"}

    def test_output_config_has_no_columnar_field(self):
        names = {field.name for field in dataclasses.fields(OutputConfig)}
        assert "columnar" not in names
        with pytest.raises(TypeError):
            OutputConfig(columnar=False)

    def test_slice_rejects_columnar_option(self):
        dataset = repro.Dataset(demo_schema())
        with pytest.raises(repro.OutputError, match="columnar"):
            dataset.slice("customer", 0, 2, format="csv", columnar=False)

    def test_cli_rejects_no_columnar(self, capsys):
        from repro.cli.main import main

        with pytest.raises(SystemExit) as exit_info:
            main(["generate", "--suite", "tpch", "--no-columnar"])
        assert exit_info.value.code == 2
        assert "--no-columnar" in capsys.readouterr().err


class TestOneMultiNodeRuntime:
    def test_meta_scheduler_is_gone(self):
        import importlib

        import repro.scheduler

        assert "MetaScheduler" not in repro.__all__
        assert not hasattr(repro, "MetaScheduler")
        assert not hasattr(repro.scheduler, "MetaScheduler")
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.scheduler.meta")

    def test_cluster_scheduler_has_no_steal_protocol_knobs(self):
        import inspect

        parameters = inspect.signature(repro.ClusterScheduler.__init__).parameters
        assert "min_steal_packages" not in parameters
        assert "keep_parts" not in parameters
        assert set(inspect.signature(repro.ClusterScheduler.run).parameters) == {
            "self", "nodes",
        }
