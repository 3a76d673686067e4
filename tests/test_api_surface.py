"""The public API surface.

7.0 records what is durable once: the part watermark is the manifest's
one progress record and the cluster ledger's part, journaled by one
writer per run; ``--nodes N --resume`` works and ``--no-steal`` is gone.
6.2 leaves no second way off the hot path: one workload pass (the seeded
stream), no oracle self-timing in the program, one stopwatch, one CSV
row loop, one model bind per cluster run, one preview.
6.0 leaves the worker count as the only thing a caller says: no thread
pool, no ``--backend``, no blocking half of the delivery window.
5.3 leaves one script per paper artefact under ``benchmarks/``, each
named by EXPERIMENTS.md and DESIGN §4 and none timing the scalar oracle.
5.2 deletes what 3.0-5.1 orphaned: the per-sink ``bytes_written``
counter, three output options nothing set, six names nothing called.
5.1 leaves one HTTP server — the stdlib's — under ``dbsynth serve`` and
``--obs-port``, loaded only by the commands that serve. 5.0 leaves one package body, one accounting and one report under every
runtime (``ClusterReport`` is gone). 3.0 leaves one generate→format
path: ``Generator`` has two generation methods (``generate``,
``generate_block``) and ``OutputConfig`` has no ``columnar`` selector.
2.0 finished the 1.1 deprecation cycle: scheduler configuration is
keyword-only (the positional shim is gone — positionals now raise
``TypeError``), ``repro.metrics`` no longer exists (timing helpers live
in ``repro.obs``), and the ``Dataset`` facade plus the format registry
are promoted to the top-level package.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import os
import pathlib
import re
import subprocess
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


def _long_options(command: str) -> set[str]:
    """Every ``--option`` of one ``dbsynth`` sub-command's parser."""
    from repro.cli.main import build_parser

    commands = next(
        action for action in build_parser()._actions
        if isinstance(action.choices, dict)
    )
    return {
        flag for action in commands.choices[command]._actions
        for flag in action.option_strings if flag.startswith("--")
    }


class TestSchedulerKeywordOnly:
    def test_positional_config_raises(self, engine):
        with pytest.raises(TypeError):
            Scheduler(engine, OutputConfig(kind="null"), 2, 50)

    def test_keyword_form_works(self, engine):
        scheduler = Scheduler(
            engine, OutputConfig(kind="null"), workers=2, package_size=50,
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
        from repro.obs import Stopwatch, throughput_mb_per_s, timed

        assert callable(throughput_mb_per_s)
        assert isinstance(timed("anything"), Stopwatch)  # tracing is off


class TestTopLevelSurface:
    def test_version_is_7(self):
        assert repro.__version__.startswith("7.")

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
        parameters = inspect.signature(repro.ClusterScheduler.__init__).parameters
        assert "min_steal_packages" not in parameters
        assert "keep_parts" not in parameters
        assert set(inspect.signature(repro.ClusterScheduler.run).parameters) == {
            "self", "nodes",
        }


class TestOneBodyOneAccountingOneReport:
    """Structural guard: the copies PR 17 collapsed cannot grow back."""

    SRC = pathlib.Path(repro.__file__).parent

    def _occurrences(self, needle: str, directory: str) -> list[str]:
        return [
            f"{path.name}:{number}"
            for path in sorted((self.SRC / directory).rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if needle in line
        ]

    def test_cluster_report_is_gone(self):
        import repro.scheduler

        assert "ClusterReport" not in repro.__all__
        assert not hasattr(repro, "ClusterReport")
        assert not hasattr(repro.scheduler, "ClusterReport")
        assert repro.scheduler.NodeReport is not None

    def test_run_report_carries_the_cluster_rollup(self):
        report = repro.RunReport(rows=1, bytes_written=2, seconds=0.5, workers=1)
        assert (
            report.nodes, report.steals, report.stolen_rows,
            report.node_failures, report.reassigned_ranges,
        ) == ((), 0, 0, 0, 0)
        assert inspect.signature(repro.ClusterScheduler.run).return_annotation in (
            repro.RunReport, "RunReport",
        )

    def test_one_package_body_under_the_scheduler(self):
        assert len(self._occurrences("format_package(", "scheduler")) == 1
        assert len(self._occurrences('"scheduler.package"', "scheduler")) == 1

    def test_one_accounting_call_site(self):
        assert len(self._occurrences("instrument.record_package(", "")) == 1
        assert len(self._occurrences("progress.add(", "")) == 1

    def test_one_header_footer_probe(self):
        from repro.output.formats import table_frame

        lines, first = inspect.getsourcelines(table_frame)
        inside = {f"formats.py:{first + offset}" for offset in range(len(lines))}
        probes = self._occurrences(".header()", "") + self._occurrences(
            ".footer()", ""
        )
        assert len(probes) == 2 and set(probes) <= inside

    def test_constructors_gained_no_parameter(self):
        def keywords(function):
            return list(inspect.signature(function).parameters)[1:]

        assert keywords(repro.Scheduler.__init__) == [
            "engine", "output", "workers", "package_size", "progress",
            "backend", "checkpoint", "resume_from", "retry", "faults",
        ]
        assert list(inspect.signature(repro.generate).parameters) == [
            "engine", "output", "workers", "package_size", "tables", "progress",
            "backend", "checkpoint", "resume_from", "retry",
        ]
        # 7.0: lost steal= / max_node_failures=; progress= and
        # resume_from= are Scheduler's, now honoured by the third runtime
        assert keywords(repro.ClusterScheduler.__init__) == [
            "schema", "artifacts", "output", "package_size", "progress",
            "checkpoint", "resume_from", "faults",
        ]

    @pytest.mark.parametrize("name", [
        "ClusterReport", "frame_bytes", "makespan", "_TableStats",
        "_count_frame_bytes", "stats_lock", "durable_bytes",
        "_output_extension", "maybe_kill_worker",
        # orphans of PRs 11-19: no caller under src/ at the time they went
        "format_row", "binary_formats", "reference_spec", "ReferenceError_",
        "plan_node", "writer_for",
        # 6.0: -w N means processes
        "ThreadPoolExecutor", "_run_thread_pool", "BACKENDS", "inflight_extra",
        "retry_backoff",
    ])
    def test_deleted_names_stay_deleted(self, name):
        assert not self._occurrences(name, "")


class TestSinksCountNothingAndTakeNoTuning:
    """Structural guard: the per-sink counter nothing read (it counted
    characters) and the three options nothing set cannot grow back."""

    def test_no_sink_class_defines_bytes_written(self):
        import repro.output.arrow  # noqa: F401 - defines ParquetSink
        import repro.resilience.faults  # noqa: F401 - the fault wrappers
        from repro.output.sinks import Sink

        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        sinks = [
            cls for cls in subclasses(Sink) if cls.__module__.startswith("repro.")
        ]
        assert len(sinks) >= 9
        for cls in [Sink, *sinks]:
            assert "bytes_written" not in inspect.getsource(cls), cls

    def test_sink_constructors_lost_their_tuning_parameters(self):
        from repro.output.sinks import FileSink, GzipFileSink

        def parameters(cls):
            return list(inspect.signature(cls.__init__).parameters)[1:]

        assert parameters(FileSink) == ["path", "resume_at", "binary"]
        assert parameters(GzipFileSink) == ["path"]

    def test_output_config_has_no_extension_field(self):
        from repro.config import format_xml

        names = {field.name for field in dataclasses.fields(OutputConfig)}
        assert "extension" not in names
        with pytest.raises(repro.ConfigError, match="<extension>"):
            format_xml.loads(
                '<output kind="file"><extension>.dat</extension></output>'
            )


class TestOneHttpServer:
    """Structural guard: the hand-rolled asyncio HTTP/1.1 server PR 19
    replaced with the stdlib's cannot be forked back in."""

    SRC = TestOneBodyOneAccountingOneReport.SRC
    _occurrences = TestOneBodyOneAccountingOneReport._occurrences

    def _importers(self, module: str) -> set[str]:
        """Files under ``src/repro`` importing *module* (or a submodule)."""
        found = set()
        for path in sorted(self.SRC.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                if any(n == module or n.startswith(module + ".") for n in names):
                    found.add(path.relative_to(self.SRC).as_posix())
        return found

    def test_nothing_imports_asyncio(self):
        assert self._importers("asyncio") == set()

    def test_one_module_imports_http_server(self):
        assert self._importers("http.server") == {"obs/serve.py"}
        assert self._importers("socketserver") == set()

    def test_serve_package_writes_no_wire_protocol_of_its_own(self):
        assert not self._occurrences("Connection: close", "serve")
        # ... and has no Prometheus route of its own: /metrics renders
        # through ServiceHandler.send_metrics on both servers
        assert not self._occurrences("render_prometheus", "serve")
        assert not self._occurrences("version=0.0.4", "serve")
        assert len(self._occurrences("send_metrics(", "serve")) == 1

    def test_batch_cli_loads_no_web_server(self):
        probe = (
            "import sys; from repro.cli.main import main; "
            "print(sorted({'http.server', 'email', 'html', 'socketserver', "
            "'asyncio', 'repro.serve', 'repro.obs.serve'} & set(sys.modules)))"
        )
        env = dict(os.environ, PYTHONPATH=str(self.SRC.parent))
        result = subprocess.run(
            [sys.executable, "-c", probe], env=env, timeout=60,
            capture_output=True, text=True, check=True,
        )
        assert result.stdout.strip() == "[]"

    def test_obs_server_still_resolves_lazily(self):
        from repro import obs
        from repro.obs.serve import ObsServer

        assert obs.ObsServer is ObsServer
        assert "ObsServer" in obs.__all__
        with pytest.raises(AttributeError):
            obs.NoSuchThing

    def test_server_constructors_gained_no_parameter(self):
        from repro.obs.serve import ObsServer
        from repro.serve import DataServer

        def signature(cls):
            return [
                (p.name, p.kind.name, p.default)
                for p in inspect.signature(cls.__init__).parameters.values()
            ][1:]

        assert signature(DataServer) == [
            ("dataset", "POSITIONAL_OR_KEYWORD", inspect.Parameter.empty),
            ("host", "KEYWORD_ONLY", "127.0.0.1"),
            ("port", "KEYWORD_ONLY", 0),
            ("workers", "KEYWORD_ONLY", 4),
            ("registry", "KEYWORD_ONLY", None),
        ]
        assert signature(ObsServer) == [
            ("port", "POSITIONAL_OR_KEYWORD", 0),
            ("host", "POSITIONAL_OR_KEYWORD", "127.0.0.1"),
            ("progress", "POSITIONAL_OR_KEYWORD", None),
        ]


class TestWorkersMeanProcesses:
    """Structural guard: the thread pool, the switch that chose it and
    the blocking half of the delivery window cannot grow back."""

    SRC = TestOneHttpServer.SRC
    _importers = TestOneHttpServer._importers

    def test_no_thread_pool_under_scheduler_or_output(self):
        assert not {
            path for path in self._importers("concurrent.futures")
            if path.startswith(("scheduler/", "output/"))
        }

    def test_generate_lost_three_flags(self):
        flags = _long_options("generate")
        assert "--workers" in flags
        assert not flags & {"--backend", "--inflight-extra", "--retry-backoff"}

    def test_window_only_polls(self):
        from repro.output.sinks import InFlightWindow

        assert not hasattr(InFlightWindow, "acquire")
        assert not hasattr(InFlightWindow, "abort")
        assert "Condition" not in inspect.getsource(InFlightWindow)

    def test_thread_backend_raises(self, engine):
        with pytest.raises(repro.SchedulingError, match="-w N"):
            generate(engine, OutputConfig(kind="null"), backend="thread")


class TestNoSecondWayOffTheHotPath:
    """Structural guard: the old sides PR 26 deleted — the classic
    workload pass, the program timing its own scalar oracle, two spare
    stopwatches, a second CSV row loop, a model bind per cluster node,
    the ``<suite>_engine`` trio, a second preview — cannot grow back."""

    SRC = TestOneBodyOneAccountingOneReport.SRC
    _occurrences = TestOneBodyOneAccountingOneReport._occurrences

    #: every long option of the three parsers this PR touched: they lost
    #: ``workload --count``, ``stats --latency`` and ``stats
    #: --latency-rows``, and a new one has to be added here on purpose
    MODEL = {"--model", "--suite", "--scale-factor", "--sf", "--property"}
    TELEMETRY = {"--trace", "--metrics", "--summary", "--obs-port", "--profile"}
    OPTIONS = {
        "generate": MODEL | TELEMETRY | {
            "--kind", "--format", "--directory", "--database", "--delimiter",
            "--header", "--workers", "--nodes", "--distributed",
            "--checkpoint", "--resume", "--max-attempts", "--quiet",
        },
        "workload": MODEL | TELEMETRY | {
            "--database", "--queries", "--arrival", "--rate", "--period",
            "--amplitude", "--repetition", "--dump", "--replay", "--stream",
            "--max-speedup", "--cdc-epochs",
        },
        "stats": MODEL | {"--trace", "--tree", "--table"},
    }

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_parsers_lost_three_options_and_gained_none(self, command):
        assert _long_options(command) - {"--help"} == self.OPTIONS[command]

    @pytest.mark.parametrize("name", [
        "run_workload", "run_template", "DEFAULT_TEMPLATES",
        "per_value_latency", "LatencyStats", "speedup_series", "time_call",
        "_sample_generator_latency", "latency_rows",
        "_NodeConfig", "tpch_engine", "ssb_engine", "bigbench_engine",
    ])
    def test_deleted_names_stay_deleted(self, name):
        assert not self._occurrences(name, "")

    def test_obs_keeps_one_stopwatch(self):
        from repro import obs
        from repro.obs import timing

        assert not {"Timer", "LatencyStats", "time_call"} & set(obs.__all__)
        assert not hasattr(obs, "Timer")
        assert {"timed", "Stopwatch", "throughput_mb_per_s"} <= set(obs.__all__)
        assert [
            name for name, value in vars(timing).items()
            if inspect.isfunction(value) or inspect.isclass(value)
        ] == ["throughput_mb_per_s"]

    def test_one_row_loop_under_every_writer(self):
        import repro.output.writers as writers

        overriding = [
            cls.__name__ for cls in vars(writers).values()
            if inspect.isclass(cls) and issubclass(cls, writers.RowWriter)
            and cls is not writers.RowWriter and "write_rows" in vars(cls)
        ]
        assert overriding == []

    def test_cli_preview_is_the_engine_preview(self):
        cli = importlib.import_module("repro.cli.main")
        assert "engine.preview(" in inspect.getsource(cli._cmd_preview)
        assert not self._occurrences("ValueFormatter", "cli")

    def test_fidelity_query_lost_its_unread_field(self):
        from repro.core.fidelity import FidelityQuery

        names = [field.name for field in dataclasses.fields(FidelityQuery)]
        assert names == ["name", "sql", "tolerance", "absolute_slack"]

    def test_cluster_run_binds_the_model_once_per_process(
        self, tmp_path, monkeypatch, capsys
    ):
        """``generate --nodes 2``: the parent binds once, and the nodes
        it forks inherit that engine as pool workers do (a patched
        ``__init__`` is inherited too, so a node that bound would log)."""
        from repro.cli.main import main
        from repro.scheduler.executor import mp_context

        if mp_context().get_start_method() != "fork":
            pytest.skip("spawned nodes rebuild the engine from its model")
        log = tmp_path / "binds"
        bind = GenerationEngine.__init__

        def logged_bind(self, *args, **kwargs):
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()}\n")
            bind(self, *args, **kwargs)

        monkeypatch.setattr(GenerationEngine, "__init__", logged_bind)
        assert main([
            "generate", "--suite", "tpch", "--sf", "0.001", "--kind", "null",
            "--nodes", "2", "-q",
        ]) == 0
        assert "2 distributed nodes" in capsys.readouterr().out
        assert log.read_text().split() == [str(os.getpid())]


class TestOneDurableProgressRecord:
    """Structural guard: the position of a run — which bytes of which
    file are durable — has one representation (the ``part`` watermark),
    one writer per run (in the process that owns the bookkeeping) and
    one reader on every runtime; the per-package records, the per-node
    journals and the three cluster options nothing set cannot grow back."""

    SRC = TestOneBodyOneAccountingOneReport.SRC
    _occurrences = TestOneBodyOneAccountingOneReport._occurrences

    def test_no_journal_inside_an_executor_process(self):
        from repro.scheduler import cluster, executor, scheduler

        for body in (
            cluster._cluster_node, scheduler._pool_worker, executor._executor_main
        ):
            source = inspect.getsource(body)
            assert "CheckpointWriter" not in source and "journal" not in source
            assert "checkpoint" not in inspect.signature(body).parameters
        # both parents open theirs through the one helper
        assert not self._occurrences("CheckpointWriter(", "scheduler")
        assert len(self._occurrences("open_checkpoint(", "scheduler")) == 2

    def test_one_method_appends_progress_records(self):
        from repro.resilience import CheckpointWriter

        assert {
            name for name, value in vars(CheckpointWriter).items()
            if inspect.isfunction(value) and not name.startswith("_")
        } == {"record_part", "table_done", "run_done", "interrupted", "close"}
        assert len(self._occurrences('"type": "part"', "")) == 1

    def test_record_types_are_six(self):
        from repro.resilience import checkpoint

        literals = re.findall(
            r'"type": (?:"(\w+)" if \w+ else )?"(\w+)"',
            inspect.getsource(checkpoint.CheckpointWriter),
        )
        assert {name for pair in literals for name in pair if name} == {
            "run", "resume", "part", "table_done", "run_done", "interrupted",
        }
        assert checkpoint.MANIFEST_VERSION == 2

    def test_the_ledger_part_is_the_manifest_record(self):
        from repro.resilience import Part
        from repro.scheduler.cluster import _Part

        assert issubclass(_Part, Part)
        assert Part.__slots__ == (
            "file", "table", "start", "stop", "bytes", "tail_bytes", "sha256",
        )

    def test_generate_lost_no_steal_and_resume_applies_to_nodes(self):
        cli = importlib.import_module("repro.cli.main")
        assert "--no-steal" not in _long_options("generate")
        assert [flag for flag, *_ in cli._SINGLE_NODE_ONLY_FLAGS] == [
            "--workers", "--max-attempts",
        ]

    @pytest.mark.parametrize("name", [
        "PackageRecord", "durable_prefix", "table_start", "header_bytes",
        "TableState", "record_package(package", "_validate_prefix",
        "_resilience_setup", "node_checkpoint_dir", "max_node_failures",
        "no_steal", "steal=",
    ])
    def test_deleted_names_stay_deleted(self, name):
        assert not self._occurrences(name, "")


class TestOneScriptPerPaperArtefact:
    """The result sheet and the experiment index name exactly the
    scripts that exist: a script nobody reports, or a reported number
    nothing reproduces, is how EXPERIMENTS.md drifted from the code."""

    REPO = pathlib.Path(__file__).resolve().parent.parent

    @pytest.mark.parametrize("document", ["EXPERIMENTS.md", "DESIGN.md"])
    def test_documents_name_the_scripts_on_disk(self, document):
        text = (self.REPO / document).read_text(encoding="utf-8")
        named = set(re.findall(r"benchmarks/(bench_\w+\.py)", text))
        on_disk = {p.name for p in (self.REPO / "benchmarks").glob("bench_*.py")}
        assert named == on_disk
