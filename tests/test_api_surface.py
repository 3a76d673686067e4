"""The public API surface.

19.0 profiles a source per table: ``DatabaseAdapter.null_fraction``,
``min_max`` and ``distinct_count`` (one column each) are
``null_fractions``, ``bounds`` and ``distinct_counts`` (a table and its
columns; the distinct count stops one past a limit).
18.0 drops ``auto_spec``'s unused ``artifacts`` argument.
17.0 reads the model once for query workloads: a ``ParameterSpec`` is
``(name, table, column)`` and names a cell the engine generates, so its
``kind`` and the second reader of generator specs behind it are gone.
15.0 has one query answer: ``VirtualExecutor.execute`` answers exactly
from projected column blocks, so ``predict``, ``verification_result``,
``PredictedValue`` and the closed forms behind them are gone, and the
driver grades against the exact answer (``QueryExecution.expected`` /
``check_ok``, ``DriverReport.checks_graded`` / ``checks_passed``).
14.0 has one runtime front: ``--nodes N`` and ``ClusterScheduler(...).run(N)``
are ``-w N`` (kept as residue for the frozen benchmark), so the part
files, the merge, ``repro.scheduler.cluster``, ``NodeReport`` and
``RunReport.nodes`` / ``node_failures`` are gone, and ``PackagePool`` is
one class.
12.0 has one multi-process runtime: ``-w N`` and ``--nodes N`` drain one
ledger through one executor pool and differ only in where the bytes
land, so ``plan_shards``, the steal counters and the reassigned-range
count are gone (``RunReport.steals`` stays, always 0).
10.0 has one package grid and one dispatcher: package ``k`` is rows
``[k·P, (k+1)·P)`` on every runtime, ``partition_rows`` lost ``offset=``,
and inline, ``-w N`` and ``--nodes N`` all take their packages from
``repro.scheduler.work.ShardLedger``.
9.0 has one formatter per format and one render cache: XML and the SQL
loader format column blocks, ``ValueFormatter`` is a pure function (no
memo, no ``cache_limit=``, no hit counters), ``format_package`` returns
the chunk alone, ``PackageResult`` and the metrics lost the formatter
counters, and ``repro.obs.SpanContext`` is gone (a package carries its
attempt number).
8.0 handles a failure one way: a sink write is attempted once and a
failed one is a typed ``OutputError`` that ``--resume`` finishes
(``RetryPolicy``, ``TransientError``, ``--max-attempts`` are gone); a
dead executor is always recovered, by one crash-loop cap on every
runtime; ``FaultPlan`` has one kill key.
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
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import repro
from repro.engine import GenerationEngine
from repro.model.schema import Field, GeneratorSpec, Schema, Table
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
    def test_version_is_23(self):
        assert repro.__version__.startswith("23.")

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
        dataset = repro.Dataset(GenerationEngine(demo_schema()))
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

    def test_the_part_file_runtime_is_gone(self):
        from repro.scheduler import executor, scheduler

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.scheduler.cluster")
        assert executor.PackagePool.__bases__ == (object,)
        assert not hasattr(executor, "ExecutorPool")
        # the residue is a name for -w N, nothing of its own
        assert repro.ClusterScheduler is scheduler.ClusterScheduler
        assert "Scheduler(" in inspect.getsource(scheduler.ClusterScheduler.run)


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
        # 14.0: and the per-node rollup went with the part-file runtime
        assert not hasattr(repro.scheduler, "NodeReport")

    def test_run_report_has_one_death_counter(self):
        report = repro.RunReport(rows=1, bytes_written=2, seconds=0.5, workers=1)
        assert (report.worker_restarts, report.steals) == (0, 0)
        # 12.0: one package front, nothing to steal or reassign; 14.0: one
        # runtime, so one death counter and no per-node rollup
        names = {field.name for field in dataclasses.fields(repro.RunReport)}
        assert not {
            "stolen_rows", "reassigned_ranges", "nodes", "node_failures",
        } & names
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
            "backend", "checkpoint", "resume_from", "faults",
        ]
        assert list(inspect.signature(repro.generate).parameters) == [
            "engine", "output", "workers", "package_size", "tables", "progress",
            "backend", "checkpoint", "resume_from",
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
        assert len(sinks) >= 8
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

    #: Packages the short commands never run: extraction, databases, the
    #: update black box, query workloads, serving.
    NOT_ON_THE_START_UP_PATH = (
        "repro.core", "repro.db", "repro.update", "repro.workload",
        "repro.serve", "sqlite3",
    )

    def _loaded_by(self, argv: list[str], watched) -> list[str]:
        """The *watched* packages (or their submodules) a fresh
        interpreter has loaded after ``main(argv)``."""
        probe = (
            "import contextlib, io, json, sys\n"
            "from repro.cli.main import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(json.loads(sys.argv[1])) == 0\n"
            "watched = json.loads(sys.argv[2])\n"
            "print(json.dumps(sorted(m for m in sys.modules if any("
            "m == w or m.startswith(w + '.') for w in watched))))"
        )
        env = dict(os.environ, PYTHONPATH=str(self.SRC.parent))
        result = subprocess.run(
            [sys.executable, "-c", probe, json.dumps(argv), json.dumps(watched)],
            env=env, timeout=120, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        return json.loads(result.stdout)

    #: What a run without telemetry flags or a process pool never runs:
    #: the trace and metrics exporters, the stitching of executor
    #: telemetry, the sampling profiler, the pool — and ``numpy.ma``,
    #: which a plain ``numpy.unique`` imports on first use.
    NOT_ON_A_PLAIN_RUN = (
        "repro.obs.export", "repro.obs.stitch", "repro.obs.profile",
        "multiprocessing", "numpy.ma",
    )

    #: What extraction and DDL translation never run: numpy, the
    #: generators and their block kernels, the engine.
    NOT_ON_THE_EXTRACT_PATH = (
        "numpy", "repro.generators", "repro.prng.blocks", "repro.columnar",
        "repro.engine",
    )

    def test_preview_loads_only_what_it_runs(self):
        """The paper's "instant" preview (§4) pays for the engine and
        the model, not for extraction, loading, updates, workloads,
        clusters, serving — or a process pool."""
        watched = [*self.NOT_ON_THE_START_UP_PATH, *self.NOT_ON_A_PLAIN_RUN]
        argv = ["preview", "--suite", "tpch", "-n", "1"]
        assert self._loaded_by(argv, watched) == []

    def test_single_node_generate_loads_only_what_it_runs(self, tmp_path):
        watched = [*self.NOT_ON_THE_START_UP_PATH, *self.NOT_ON_A_PLAIN_RUN]
        for kind in (["--kind", "null"], ["-d", str(tmp_path / "out")]):
            argv = ["generate", "--suite", "tpch", "--sf", "0.001", *kind, "-q"]
            assert self._loaded_by(argv, watched) == [], kind

    def test_telemetry_flags_and_workers_load_what_they_use(self, tmp_path):
        """The modules a plain run leaves out still load, and work, when
        a flag asks for them."""
        argv = [
            "generate", "--suite", "tpch", "--sf", "0.001", "--kind", "null", "-q",
            "-w", "2", "--trace", str(tmp_path / "t.jsonl"),
            "--metrics", str(tmp_path / "m.prom"), "--summary",
        ]
        loaded = self._loaded_by(argv, ["repro.obs.export", "repro.obs.stitch"])
        assert loaded == ["repro.obs.export", "repro.obs.stitch"]
        assert (tmp_path / "t.jsonl").stat().st_size > 0
        assert "rows_generated_total" in (tmp_path / "m.prom").read_text()

    def test_extract_loads_only_what_it_runs(self, tmp_path):
        """The paper's "interactive" model generation (§4) pays for
        extraction, not for the engine, the output system, schedulers,
        loading, query generation or the benchmark driver."""
        from repro.suites.imdb import build_imdb_database

        source = str(tmp_path / "source.db")
        build_imdb_database(source, movies=20, people=30, seed=5).close()
        watched = [
            "repro.engine", "repro.scheduler", "repro.output",
            "repro.core.queries", "repro.core.driver", "repro.core.loader",
        ]
        argv = ["extract", source, "-o", str(tmp_path / "model")]
        assert self._loaded_by(argv, watched) == []

    def test_extract_and_translate_load_no_numpy(self, tmp_path):
        """Extraction samples, counts and trains in plain Python, and
        translation prints DDL — of a saved model or of a suite's
        schema: neither imports numpy or a kernel."""
        from repro.suites.imdb import build_imdb_database

        source = str(tmp_path / "source.db")
        build_imdb_database(source, movies=20, people=30, seed=5).close()
        model = str(tmp_path / "model")
        watched = list(self.NOT_ON_THE_EXTRACT_PATH)
        assert self._loaded_by(["extract", source, "-o", model], watched) == []
        assert self._loaded_by(["translate", "--model", model], watched) == []
        for suite in ("tpch", "ssb", "bigbench"):
            argv = ["translate", "--suite", suite]
            assert self._loaded_by(argv, watched) == [], suite

    def test_verify_loads_no_numpy(self, tmp_path):
        """``verify`` renders its checks' queries to SQL and reads the
        model XML alone: no numpy, no column blocks, no engine, and no
        artifact (no dictionary or Markov chain is read)."""
        from repro.cli.main import main
        from repro.suites.imdb import build_imdb_database

        source = str(tmp_path / "source.db")
        build_imdb_database(source, movies=20, people=30, seed=5).close()
        model = str(tmp_path / "model")
        assert main(["extract", source, "-o", model]) == 0
        argv = ["verify", "--model", model, "--source", source, "--target", source]
        loaded = self._loaded_by(argv, ["numpy", "repro"])
        unrun = ("numpy", "repro.columnar", "repro.engine", "repro.text")
        assert not [m for m in loaded if m.startswith(unrun)]
        assert len(loaded) <= 35  # the repro modules verify loaded in 22.0

    #: What a short preview never runs: arrays and the writers that
    #: format them.
    NOT_ON_A_SHORT_PREVIEW = (
        "numpy", "repro.prng.blocks", "repro.columnar", "repro.output.columnar",
        "repro.output.writers", "repro.output.sinks",
    )

    def test_a_short_preview_loads_no_numpy(self, tmp_path):
        """The paper's "instant" preview (§4) renders a few rows through
        the scalar oracle: of a suite or of a saved typed model, it
        builds no array and imports no numpy, no kernel and no writer.
        A preview of ``SCALAR_ROWS`` rows or more runs blocks."""
        from repro.config import schema_xml

        schema = Schema("typed", seed=11)
        schema.add_table(Table("w", "1000", [
            Field.of("w_id", "BIGINT", GeneratorSpec("IdGenerator")),
            Field.of("w_qty", "BIGINT", GeneratorSpec("LongGenerator", {"min": 1, "max": 50})),
            Field.of("w_money", "DECIMAL(12,2)", GeneratorSpec(
                "DoubleGenerator", {"min": 0.0, "max": 1000.0, "places": 2}
            )),
            Field.of("w_bool", "BOOLEAN", GeneratorSpec("BooleanGenerator")),
            Field.of("w_date", "DATE", GeneratorSpec("DateGenerator")),
            Field.of("w_dict", "VARCHAR(10)", GeneratorSpec(
                "DictListGenerator", {"values": ["alpha", "beta"], "weights": [2, 1]}
            )),
        ]))
        model = tmp_path / "typed"
        model.mkdir()
        schema_xml.dump(schema, str(model / "model.xml"))
        watched = list(self.NOT_ON_A_SHORT_PREVIEW)
        for source in (["--suite", "tpch"], ["--suite", "ssb"], ["--model", str(model)]):
            argv = ["preview", *source, "-n", "1"]
            assert self._loaded_by(argv, watched) == [], source
        argv = ["preview", "--model", str(model), "-n", "100"]
        assert "numpy" in self._loaded_by(argv, watched)

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


class TestLazyNamespaces:
    """The package namespaces that resolve their public names on first
    use are still complete: each ``__all__`` name is the object its
    defining module holds, ``import *`` and ``dir()`` see every one,
    and an unknown name is still an ``AttributeError`` (so the
    ``not hasattr(repro, name)`` guards above keep their meaning).
    Each runs in a fresh interpreter, where nothing was imported first."""

    SRC = TestOneHttpServer.SRC
    #: namespace -> the modules importing it must not load
    LAZY = {
        "repro": ["repro.api", "repro.engine", "repro.scheduler", "repro.output"],
        # nothing lazy since 14.0 (ClusterScheduler is a residue class in
        # repro.scheduler.scheduler); the namespace must still be complete
        "repro.scheduler": [],
        "repro.config": ["repro.config.schema_xml", "repro.config.format_xml"],
        "repro.obs": [
            "repro.obs.serve", "repro.obs.export", "repro.obs.stitch",
            "repro.obs.profile",
        ],
        "repro.prng": [
            "repro.prng.xorshift", "repro.prng.seeding", "repro.prng.blocks",
            "repro.prng.distributions",
        ],
        "repro.core": [
            "repro.core.loader", "repro.core.driver", "repro.core.queries",
            "repro.core.fidelity", "repro.engine", "repro.scheduler",
        ],
        "repro.suites.tpch": ["repro.suites.tpch.dbgen", "repro.suites.tpch.queries"],
        "repro.output": [
            "repro.output.formats", "repro.output.rows", "repro.output.sinks",
            "repro.output.writers", "repro.output.columnar",
        ],
    }
    #: values that carry no ``__module__`` and the module defining them
    CONSTANTS = {
        "DEFAULT_GENERATION_BLOCK": "repro.engine",
        "HISTOGRAM_QUANTILES": "repro.obs.export",
        "MASK64": "repro.prng.xorshift",
        "DEFAULT_INFLIGHT_EXTRA": "repro.scheduler.scheduler",
        "DEFAULT_PACKAGE_SIZE": "repro.scheduler.work",
        "BASE_CARDINALITIES": "repro.suites.tpch.data",
        "ALL_QUERIES": "repro.suites.tpch.queries",
    }
    PROBE = """
import importlib, json, sys, types
name, constants = sys.argv[1], json.loads(sys.argv[2])
module = importlib.import_module(name)
eager = sorted(m for m in sys.modules if m.startswith("repro"))
wrong = []
for public in module.__all__:
    if public == "__version__":
        continue
    value = getattr(module, public)
    if isinstance(value, types.ModuleType):
        home, held = value.__name__, value
    else:
        home = constants.get(public) or value.__module__
        held = getattr(importlib.import_module(home), public)
    if held is not value:
        wrong.append(public)
star = {}
exec(f"from {name} import *", star)
try:
    getattr(module, "NoSuchName")
    unknown = "resolved"
except AttributeError:
    unknown = "AttributeError"
print(json.dumps({
    "eager": eager, "wrong": wrong,
    "unstarred": sorted(set(module.__all__) - set(star)),
    "undir": sorted(set(module.__all__) - set(dir(module))),
    "unknown": unknown, "hasattr": hasattr(module, "NoSuchName"),
}))
"""

    @pytest.mark.parametrize("name", sorted(LAZY))
    def test_namespace_is_complete_and_lazy(self, name):
        env = dict(os.environ, PYTHONPATH=str(self.SRC.parent))
        result = subprocess.run(
            [sys.executable, "-c", self.PROBE, name, json.dumps(self.CONSTANTS)],
            env=env, timeout=120, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        found = json.loads(result.stdout)
        assert not set(found["eager"]) & set(self.LAZY[name])
        assert found["wrong"] == []
        assert found["unstarred"] == [] and found["undir"] == []
        assert found["unknown"] == "AttributeError" and not found["hasattr"]

    def test_resolved_name_is_cached(self):
        repro.__dict__.pop("Dataset", None)
        first = repro.Dataset
        assert repro.__dict__["Dataset"] is first is repro.Dataset


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
            "--checkpoint", "--resume", "--quiet",
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
        # 13.0: one loader, the generate() run into the SQLite sink
        "DataLoader", "LoadReport", "_db_value", "execute_atomic",
        # 16.0: one DBSynth pipeline, the project steps
        "ProfileOptions", "SchemaTranslator", "DictionaryBuilder",
        "MarkovBuilder", "MarkovBuildResult",
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

        # 23.0: a check holds the table's Query it reads, not SQL text
        names = [field.name for field in dataclasses.fields(FidelityQuery)]
        assert names == ["name", "query", "reads", "tolerance", "absolute_slack"]

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
        assert "2 process workers" in capsys.readouterr().out  # -w 2
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
        from repro.scheduler import executor

        for body in (executor._execute, executor._executor_main):
            source = inspect.getsource(body)
            assert "CheckpointWriter" not in source and "journal" not in source
            assert "checkpoint" not in inspect.signature(body).parameters
        # the one parent opens it through the one helper
        assert not self._occurrences("CheckpointWriter(", "scheduler")
        assert len(self._occurrences("open_checkpoint(", "scheduler")) == 1

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

        # 14.0: no part-file extent grows it any more; the scheduler's
        # table watermark is the record itself
        assert Part.__subclasses__() == []
        assert Part.__slots__ == (
            "file", "table", "start", "stop", "bytes", "tail_bytes", "sha256",
        )

    def test_generate_lost_no_steal_and_resume_applies_to_nodes(self):
        cli = importlib.import_module("repro.cli.main")
        assert "--no-steal" not in _long_options("generate")
        # the one flag a multi-node run refuses
        assert re.findall(
            r'"(--[a-z-]+) does not apply', inspect.getsource(cli._cmd_generate)
        ) == ["--workers"]

    @pytest.mark.parametrize("name", [
        "PackageRecord", "durable_prefix", "table_start", "header_bytes",
        "TableState", "record_package(package", "_validate_prefix",
        "_resilience_setup", "node_checkpoint_dir", "max_node_failures",
        "no_steal", "steal=", "schema_fingerprint",
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


class TestOneFailurePolicy:
    """Structural guard: in-process sink retry and the per-runtime
    recovery rules cannot grow back — a write is attempted once, a dead
    executor is recovered by one rule with one cap on every runtime."""

    SRC = TestOneBodyOneAccountingOneReport.SRC
    _occurrences = TestOneBodyOneAccountingOneReport._occurrences

    def test_retry_names_are_gone(self):
        import repro.resilience
        from repro import exceptions

        for name in ("RetryPolicy", "TransientError"):
            assert name not in repro.__all__ and not hasattr(repro, name)
        assert not hasattr(exceptions, "TransientError")
        assert not hasattr(repro.resilience, "FlakySink")
        assert not hasattr(repro.resilience, "DEFAULT_RETRYABLE")
        sys.modules.pop("repro.resilience.retry", None)
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.resilience.retry")

    def test_generate_lost_exactly_max_attempts(self):
        expected = TestNoSecondWayOffTheHotPath.OPTIONS["generate"]
        assert _long_options("generate") - {"--help"} == expected
        assert "--max-attempts" not in _long_options("generate")

    def test_no_entry_point_takes_retry(self):
        from repro.output.sinks import OrderedSinkMux
        from repro.scheduler import run_node

        for function in (
            repro.Scheduler.__init__, repro.generate, run_node,
            OrderedSinkMux.__init__,
        ):
            assert "retry" not in inspect.signature(function).parameters

    def test_run_report_has_no_retries(self):
        names = {field.name for field in dataclasses.fields(repro.RunReport)}
        assert "retries" not in names
        assert "worker_restarts" in names and "node_failures" not in names

    def test_one_kill_key(self):
        from repro.resilience import FaultPlan

        names = [field.name for field in dataclasses.fields(FaultPlan)]
        assert names == ["kill_at", "latch_dir", "kill_exit_code", "slow_nodes"]
        assert [name for name in vars(FaultPlan) if name.startswith("should_")] == [
            "should_kill",
        ]

    def test_one_crash_loop_cap(self):
        (refusal,) = self._occurrences("refusing to respawn a crash loop", "")
        assert refusal.startswith("executor.py:")
        from repro.scheduler.executor import PackagePool

        source = inspect.getsource(PackagePool.recover)
        assert "SchedulingError" not in source and "failures" not in source

    @pytest.mark.parametrize("name", [
        "RetryPolicy", "TransientError", "FlakySink", "DEFAULT_RETRYABLE",
        "max_attempts", "max_restarts", "failure_limit", "fail_every",
        "kill_worker_at", "kill_node_at", "sink_write_retries_total",
        "_SINGLE_NODE_ONLY_FLAGS",
        # 12.0: one package front, so nothing to steal or reassign
        "plan_shards", "NODE_LOOKAHEAD", "stolen_rows", "reassigned_ranges",
        "steals_taken", "steals_yielded", "_pool_worker", "_ClusterRun",
        # 14.0: --nodes N is -w N — no part files, no merge, no node rollup
        "NodeReport", "node_failures", "_OpenPart", "cut_back", "part_file",
        "PARTS_DIRNAME", "CLUSTER_SINK_KINDS",
    ])
    def test_deleted_names_stay_deleted(self, name):
        assert not self._occurrences(name, "")


class TestOneFormatterOneRenderCache:
    """Structural guard: every built-in text format formats column
    blocks, and the writer's render tables are the one lazy-formatting
    cache — the formatter memo, its hit counters and the row-loop
    fallbacks cannot grow back."""

    SRC = TestOneBodyOneAccountingOneReport.SRC
    _occurrences = TestOneBodyOneAccountingOneReport._occurrences

    def test_value_formatter_is_a_pure_function(self):
        from repro.output.rows import ValueFormatter

        gone = {"cache_limit", "cache_hits", "cache_misses", "cache_size"}
        assert not gone & set(inspect.signature(ValueFormatter).parameters)
        formatter = ValueFormatter()
        assert not any(hasattr(formatter, name) for name in gone)
        assert set(vars(formatter)) == {
            "null_token", "date_format", "timestamp_format", "float_places",
        }

    def test_format_package_returns_the_chunk(self, engine):
        from repro.output.formats import format_package
        from repro.scheduler.work import WorkPackage

        package = WorkPackage("orders", 0, 20, 0)
        for fmt in ("csv", "json", "sql", "xml"):
            chunk = format_package(engine, OutputConfig(format=fmt), package)
            assert isinstance(chunk, str) and chunk.count("\n") == 20, fmt

    def test_package_result_has_no_formatter_counters(self):
        from repro.scheduler.executor import PackageResult

        assert PackageResult._fields == ("chunk", "nbytes", "seconds")

    def test_a_metered_run_registers_no_formatter_cache_metric(self, engine):
        from repro import obs

        registry = obs.enable_metrics()
        try:
            generate(engine, OutputConfig(kind="null", format="xml"))
        finally:
            obs.reset()
        names = {metric.name for metric in registry.metrics()}
        assert "rows_generated_total" in names
        assert not [name for name in names if name.startswith("formatter_cache")]

    def test_obs_has_no_span_context(self):
        from repro import obs

        assert "SpanContext" not in obs.__all__ and not hasattr(obs, "SpanContext")

    def test_every_text_writer_formats_columns(self):
        import repro.output.writers as writers

        source = (self.SRC / "output" / "writers.py").read_text()
        assert "write_row is not" not in source
        for cls in (writers.CsvWriter, writers.JsonWriter, writers.SqlWriter,
                    writers.XmlWriter):
            assert "write_block" in vars(cls) and cls.supports_columns
        # the one per-row call left is the oracle composition
        calls = [
            path.name
            for path in sorted(self.SRC.rglob("*.py"))
            for line in path.read_text().splitlines()
            if "write_row(" in line and "def write_row(" not in line
        ]
        assert calls == ["writers.py"]
        assert "write_row(row)" in inspect.getsource(writers.RowWriter.write_rows)

    @pytest.mark.parametrize("name", [
        "cache_limit", "cache_hits", "cache_misses", "cache_size",
        "_format_cached", "fmt_hits", "fmt_misses", "formatter_cache",
        "SpanContext",
    ])
    def test_deleted_names_stay_deleted(self, name):
        assert not self._occurrences(name, "")


class TestOnePackageGridOneDispatcher:
    """Structural guard: a package boundary is decided in one place (the
    grid of ``repro.scheduler.work``) and every batch runtime takes its
    packages from one ledger — the package list, its cursor and the
    node's own sequence counter cannot grow back."""

    SRC = TestOneBodyOneAccountingOneReport.SRC

    def test_partition_rows_has_no_offset(self):
        from repro.scheduler import partition_rows

        assert list(inspect.signature(partition_rows).parameters) == [
            "table", "size", "package_size",
        ]

    def test_the_pool_keeps_no_package_list(self):
        from repro.scheduler.executor import PackagePool

        source = inspect.getsource(PackagePool)
        for attribute in ("packages", "cursor", "completed"):
            assert f"self.{attribute} " not in source, attribute
        assert "self.ledger" in source

    def test_the_ledger_lives_with_the_grid(self):
        from repro.scheduler import scheduler
        from repro.scheduler.work import ShardLedger, WorkPackage, cut_packages

        assert ShardLedger.__module__ == "repro.scheduler.work"
        assert scheduler.ShardLedger is ShardLedger
        assert "room" in inspect.signature(ShardLedger.fill).parameters
        assert "NODE_LOOKAHEAD" not in inspect.getsource(ShardLedger)
        assert cut_packages("t", 30, 60, 25) == [
            WorkPackage("t", 30, 50, 1), WorkPackage("t", 50, 60, 2),
        ]

    def test_runtimes_neither_cut_nor_number_packages(self):
        for name in ("scheduler.py", "executor.py"):
            source = (self.SRC / "scheduler" / name).read_text()
            assert not re.search(r"partition_rows|WorkPackage\(|cursor", source), name
        assert "sequences" not in (self.SRC / "scheduler" / "executor.py").read_text()

    def test_one_package_count(self):
        from repro.resilience.checkpoint import Part

        assert not hasattr(Part, "packages")


class TestOneQueryAnswer:
    """15.0: the model answers a query one way, exactly, from projected
    column blocks; the closed forms, their tolerance bands and the
    per-row walk cannot grow back."""

    SRC = TestOneBodyOneAccountingOneReport.SRC
    _occurrences = TestOneBodyOneAccountingOneReport._occurrences

    @pytest.mark.parametrize("name", [
        "def predict", "PredictedValue", "verification_result", "_selectivity",
        "_column_mean", "_tighten", "_ordinalize", "_matches",
        "null_probability", "rounding_step", "id_like", "prediction",
    ])
    def test_deleted_names_stay_deleted(self, name):
        assert not self._occurrences(name, "core") + self._occurrences(name, "workload")

    def test_execute_reads_projected_blocks(self):
        from repro.core.queries import VirtualExecutor
        from repro.engine import BoundTable

        source = inspect.getsource(VirtualExecutor.execute)
        assert "generate_columns(" in source and "fields=" in source
        assert "iter_rows" not in inspect.getsource(
            importlib.import_module("repro.core.queries")
        )
        assert list(inspect.signature(BoundTable.generate_columns).parameters) == [
            "self", "start", "stop", "ctx", "fields",
        ]


class TestOneParameterReading:
    """17.0: a template parameter is a cell the engine generates; the
    second reader of generator specs and the hand-rolled template-mix
    scan cannot grow back."""

    SRC = TestOneBodyOneAccountingOneReport.SRC
    _occurrences = TestOneBodyOneAccountingOneReport._occurrences

    @pytest.mark.parametrize("name", [
        "_analyze_field", "_FieldModel", "_owning_table", "_base_spec", "_cumulative",
    ])
    def test_deleted_names_stay_deleted(self, name):
        assert not self._occurrences(name, "core") + self._occurrences(name, "workload")

    def test_parameter_spec_names_a_cell(self):
        from repro.core import ParameterSpec

        assert [f.name for f in dataclasses.fields(ParameterSpec)] == [
            "name", "table", "column",
        ]

    def test_auto_spec_takes_no_artifacts(self):
        from repro.workload import auto_spec

        assert "artifacts" not in inspect.signature(auto_spec).parameters
