"""Inline-vs-process-pool tests: byte equivalence, bounded delivery,
cross-process stats, the scheduler/output correctness fixes, and the
parity of every executor's report, trace and metrics.

The process pool (``workers > 1``) is only credible if it is invisible
in the output: every writer/sink combination must produce byte-identical
data to the inline (``workers == 1``) scheduler, and the parent's
report/metrics must aggregate the worker processes' counters into the
same shapes.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro import obs
from repro.engine import GenerationEngine
from repro.exceptions import OutputError, SchedulingError
from repro.model.schema import Field, GeneratorSpec, Schema, Table
from repro.output.config import OutputConfig
from repro.output.formats import encoded_size, table_frame
from repro.output.sinks import OrderedSinkMux, Sink
from repro.output.writers import CsvWriter
from repro.scheduler import ClusterScheduler
from repro.scheduler import scheduler as scheduler_mod
from repro.scheduler.progress import ProgressMonitor
from repro.scheduler.scheduler import Scheduler, generate
from tests.conftest import demo_schema

TABLES = ("customer", "orders")
#: the worker count is what picks the runtime
WORKERS = {"inline": 1, "process": 2}


def _memory_run(workers: int, fmt: str = "csv",
                package_size: int = 17) -> OutputConfig:
    config = OutputConfig(kind="memory", format=fmt)
    generate(
        GenerationEngine(demo_schema()), config, workers=workers,
        package_size=package_size,
    )
    return config


class TestBackendEquivalence:
    @pytest.mark.parametrize("fmt", ["csv", "json", "sql"])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_process_output_matches_serial(self, fmt, workers):
        serial = _memory_run(1, fmt, package_size=10_000)
        process = _memory_run(workers, fmt)
        for table in TABLES:
            assert process.memory_output(table) == serial.memory_output(table)

    def test_xml_header_footer_once_with_processes(self, tmp_path):
        config = OutputConfig(kind="file", format="xml", directory=str(tmp_path))
        generate(GenerationEngine(demo_schema()), config, workers=3,
                 package_size=20)
        text = (tmp_path / "orders.xml").read_text()
        assert text.count("<?xml") == 1
        assert text.count("</table>") == 1

    def test_file_output_matches_across_backends(self, tmp_path):
        inline_dir, process_dir = tmp_path / "inline", tmp_path / "process"
        for workers, directory in ((1, inline_dir), (4, process_dir)):
            config = OutputConfig(kind="file", format="csv",
                                  directory=str(directory))
            generate(GenerationEngine(demo_schema()), config, workers=workers,
                     package_size=23)
        for table in TABLES:
            assert (
                (inline_dir / f"{table}.tbl").read_bytes()
                == (process_dir / f"{table}.tbl").read_bytes()
            )

    @pytest.mark.parametrize("fmt", ["csv", "sql"])
    def test_tpch_suite_identical_across_backends(self, fmt):
        """Acceptance: the TPC-H suite is byte-identical on CSV and SQL
        writers between the inline run and the process pool."""
        from repro.suites.tpch import tpch_artifacts, tpch_schema

        outputs = {}
        for workers in (1, 4):
            schema = tpch_schema(0.001)
            config = OutputConfig(kind="memory", format=fmt)
            generate(GenerationEngine(schema, tpch_artifacts()), config,
                     workers=workers, package_size=500)
            outputs[workers] = {
                table: config.memory_output(table) for table in schema.sizes()
            }
        assert outputs[1] == outputs[4]
        assert any(outputs[1].values())

    def test_report_backend_and_rows(self):
        inline = generate(GenerationEngine(demo_schema()),
                          OutputConfig(kind="null"))
        assert inline.backend == "inline"
        report = generate(GenerationEngine(demo_schema()),
                          OutputConfig(kind="null"), workers=2)
        assert report.backend == "process"
        assert report.rows == 240
        assert report.table("customer").rows == 60
        assert report.table("orders").rows == 180

    def test_unknown_backend_rejected(self):
        """The keyword is residue (frozen bench code passes "process"):
        it selects nothing, and anything else is an error that names the
        replacement (``"thread"``: ``tests/test_api_surface.py``)."""
        with pytest.raises(SchedulingError, match="-w N"):
            Scheduler(GenerationEngine(demo_schema()),
                      OutputConfig(kind="null"), backend="greenlet")
        assert Scheduler(
            GenerationEngine(demo_schema()), OutputConfig(kind="null"),
            backend="process",
        ).backend == "inline"


class TestEnginePicklability:
    def test_engine_round_trips_identically(self):
        engine = GenerationEngine(demo_schema())
        clone = pickle.loads(pickle.dumps(engine))
        for table in TABLES:
            for row in (0, 7, 59):
                assert clone.generate_row(table, row) == engine.generate_row(
                    table, row
                )

    def test_reduce_preserves_update_epoch(self):
        engine = GenerationEngine(demo_schema(), update=3)
        clone = pickle.loads(pickle.dumps(engine))
        assert clone.update == 3


class TestSpawnedExecutors:
    """Under the *spawn* start method an executor rebuilds the engine in
    a process that has imported nothing: the engine's pickle has to name
    the modules that register the model's plug-in generators (TPC-H's
    ``TpchPsSuppkeyGenerator``), or the rebuild does not know them."""

    def test_pickle_names_the_plugin_modules(self):
        from repro.suites import suite_model

        rebuild, (plugins, *_model) = GenerationEngine(
            *suite_model("tpch", 0.001)
        ).__reduce__()
        assert plugins == ["repro.suites.tpch.generators"]
        assert GenerationEngine(demo_schema()).__reduce__()[1][0] == []

    def test_tpch_bytes_match_inline_under_a_spawn_context(
        self, tmp_path, monkeypatch
    ):
        import multiprocessing

        from repro.scheduler import executor
        from repro.suites import suite_model

        monkeypatch.setattr(
            executor, "mp_context", lambda: multiprocessing.get_context("spawn")
        )

        def output(name):
            return OutputConfig(kind="file", directory=str(tmp_path / name))

        model = suite_model("tpch", 0.001)
        generate(GenerationEngine(*model), output("inline"))
        pooled = generate(GenerationEngine(*model), output("w2"), workers=2)
        cluster = ClusterScheduler(*model, output=output("n2")).run(2)
        assert pooled.backend == cluster.backend == "process"
        for name in sorted(os.listdir(tmp_path / "inline")):
            reference = (tmp_path / "inline" / name).read_bytes()
            assert (tmp_path / "w2" / name).read_bytes() == reference, name
            assert (tmp_path / "n2" / name).read_bytes() == reference, name


class TestForkedExecutors:
    """A forked executor inherits every module a package body runs: the
    generators import numpy, ``columnar`` and ``prng.blocks`` at their
    block entry points, so the pool loads them before it forks."""

    PROBE = """
import json, sys
from repro.scheduler import executor

main = executor._executor_main

def probed(*args):
    before = set(sys.modules)
    try:
        return main(*args)
    finally:
        print(json.dumps(sorted(set(sys.modules) - before)), file=sys.stderr, flush=True)

executor._executor_main = probed
from repro.engine import GenerationEngine
from repro.output.config import OutputConfig
from repro.scheduler import Scheduler
from repro.suites import suite_model

Scheduler(GenerationEngine(*suite_model("tpch", 0.001)), OutputConfig(kind="null"), workers=2).run()
"""

    @pytest.mark.skipif(
        "fork" not in __import__("multiprocessing").get_all_start_methods(),
        reason="needs the fork start method",
    )
    def test_a_forked_executor_imports_nothing(self):
        import json
        import subprocess
        import sys

        env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
        result = subprocess.run(
            [sys.executable, "-c", self.PROBE], env=env, timeout=120,
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        imported = [json.loads(line) for line in result.stderr.splitlines() if line.startswith("[")]
        assert imported == [[], []]


class TestBoundedWindow:
    def test_peak_buffered_packages_within_window(self, monkeypatch):
        """Acceptance: buffered, not-yet-flushed packages never exceed
        the in-flight window of ``workers + 2``, inline or pooled."""
        created: list[OrderedSinkMux] = []

        class SpyMux(OrderedSinkMux):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self)

        monkeypatch.setattr(scheduler_mod, "OrderedSinkMux", SpyMux)
        for workers in (1, 4):
            created.clear()
            scheduler = Scheduler(
                GenerationEngine(demo_schema()), OutputConfig(kind="null"),
                workers=workers, package_size=5,
            )
            scheduler.run()
            limit = scheduler.last_window.limit
            assert limit == workers + 2
            assert created, "scheduler must route chunks through the mux"
            assert all(mux.max_pending <= limit for mux in created), workers
            assert scheduler.last_window.max_in_flight <= limit
        assert scheduler.last_window.max_in_flight > 1  # the pool overlapped

    def test_window_exposed_after_run(self):
        scheduler = Scheduler(
            GenerationEngine(demo_schema()), OutputConfig(kind="null"),
            workers=2, package_size=11,
        )
        scheduler.run()
        assert scheduler.last_window is not None
        assert scheduler.last_window.limit == 4
        assert scheduler.last_window.in_flight == 0  # all delivered


class TestBytesReconciliation:
    @pytest.mark.parametrize("backend", ["inline", "process"])
    @pytest.mark.parametrize("fmt,header", [("xml", False), ("csv", True)])
    def test_table_bytes_sum_to_run_total(self, backend, fmt, header):
        """Header/footer bytes are attributed to their table, so the
        per-table reports reconcile with the run total exactly."""
        config = OutputConfig(kind="memory", format=fmt, include_header=header)
        report = generate(GenerationEngine(demo_schema()), config,
                          workers=WORKERS[backend], package_size=25)
        assert report.backend == backend
        assert report.bytes_written > 0
        assert sum(t.bytes_written for t in report.tables) == report.bytes_written
        for table in TABLES:
            assert report.table(table).bytes_written == len(
                config.memory_output(table)
            )


def _parity_schema() -> Schema:
    """What the executors used to count differently: non-ASCII values
    (characters != bytes), a date column (the writer's day map), a
    zero-row table and a table smaller than the node count."""
    schema = Schema("parity", seed=11)
    schema.add_table(Table("people", "500", [
        Field.of("p_id", "BIGINT", GeneratorSpec("IdGenerator"), primary=True),
        Field.of("p_name", "VARCHAR(20)", GeneratorSpec(
            "DictListGenerator", {"values": ["Zoë", "José", "Łukasz", "plain"]}
        )),
        Field.of("p_born", "DATE", GeneratorSpec(
            "DateGenerator", {"min": "2020-01-01", "max": "2020-01-31"}
        )),
    ]))
    for name, size in (("nobody", "0"), ("single", "1")):
        schema.add_table(Table(name, size, [
            Field.of("id", "BIGINT", GeneratorSpec("IdGenerator"), primary=True),
        ]))
    return schema


def _run_executor(runtime: str, output: OutputConfig):
    if runtime == "cluster":
        return ClusterScheduler(
            _parity_schema(), output=output, package_size=60
        ).run(2)
    return generate(
        GenerationEngine(_parity_schema()), output, workers=WORKERS[runtime],
        package_size=60,
    )


class TestExecutorParity:
    """One package body, one accounting, one report: the three executors
    agree with each other and with the bytes on disk."""

    RUNTIMES = ("inline", "process", "cluster")

    @pytest.mark.parametrize("fmt", ["csv", "xml", "json"])
    def test_reports_traces_and_metrics_agree(self, tmp_path, fmt):
        engine = GenerationEngine(_parity_schema())
        seen = {}
        for runtime in self.RUNTIMES:
            output = OutputConfig(
                kind="file", format=fmt, directory=str(tmp_path / runtime),
                include_header=True,
            )
            tracer, registry = obs.enable_tracing(), obs.enable_metrics()
            try:
                report = _run_executor(runtime, output)
                spans = tracer.drain()
            finally:
                obs.reset()
            files = {
                name: os.path.getsize(output.table_path(name))
                for name in engine.sizes
            }
            assert report.bytes_written == sum(files.values()), runtime
            totals = obs.table_totals(spans)
            rows = registry.get("rows_generated_total")
            nbytes = registry.get("bytes_written_total")
            for table in report.tables:
                assert table.bytes_written == files[table.name], runtime
                assert rows.value(table=table.name) == table.rows
                assert nbytes.value(table=table.name) == table.bytes_written
                # the trace counts the package stream, the report the file
                frame = sum(map(encoded_size, table_frame(output, engine, table.name)))
                assert totals.get(table.name, (0, 0)) == (
                    table.rows, table.bytes_written - frame
                ), runtime
                flushed = sum(
                    span.attrs["bytes"] for span in spans
                    if span.name == "sink.write"
                    and span.attrs["table"] == table.name
                )
                assert flushed == table.bytes_written - frame, runtime
            seen[runtime] = (
                report.rows,
                [(t.name, t.rows, t.bytes_written) for t in report.tables],
            )
        assert seen["inline"][0] == 501
        assert all(value == seen["inline"] for value in seen.values()), seen


class TestCrossProcessAggregation:
    def test_progress_and_metrics_from_worker_processes(self):
        registry = obs.enable_metrics()
        try:
            progress = ProgressMonitor(240, {"customer": 60, "orders": 180})
            generate(GenerationEngine(demo_schema()), OutputConfig(kind="null"),
                     workers=2, package_size=30, progress=progress)
            snapshot = progress.snapshot()
            assert snapshot.rows_done == 240
            assert progress.table_progress()["orders"] == (180, 180)
            rows = registry.get("rows_generated_total")
            assert rows.value(table="customer") == 60
            assert rows.value(table="orders") == 180
            packages = registry.get("packages_completed_total")
            assert packages.value(table="orders") == 6  # ceil(180 / 30)
            latency = registry.get("value_latency_ns")
            assert latency.snapshot(table="orders")["count"] == 6
            assert registry.get("sink_flushes_total").total() == 8
        finally:
            obs.reset()

    def test_worker_seconds_aggregate(self):
        report = generate(GenerationEngine(demo_schema()),
                          OutputConfig(kind="null"), workers=2,
                          package_size=40)
        assert all(t.seconds > 0 for t in report.tables)


class _ExplodingWriter(CsvWriter):
    """Fails a package on either side of ``SCALAR_ROWS``."""

    def write_block(self, block, first=False):  # noqa: ARG002 - signature fixed by base
        raise RuntimeError("worker boom")

    def write_rows(self, rows):  # noqa: ARG002 - signature fixed by base
        raise RuntimeError("worker boom")


class _ExplodingWriterConfig(OutputConfig):
    """Fails formatting for one table — exercises worker-side errors."""

    def new_writer(self, table, columns):
        if table == "orders":
            return _ExplodingWriter(table, columns)
        return super().new_writer(table, columns)


class _FlakyOrdersSink(Sink):
    def write(self, chunk: str) -> None:
        raise OutputError("disk full")


class _FlakySinkConfig(OutputConfig):
    """Fails the sink of one table — exercises flush-side errors."""

    def new_sink(self, table):
        if table == "orders":
            return _FlakyOrdersSink()
        return super().new_sink(table)


class TestFailurePropagation:
    def test_worker_error_surfaces_from_process_backend(self):
        """Not a ``ReproError``: the class cannot be trusted to exist in
        the parent, so it arrives as ``SchedulingError`` naming it."""
        config = _ExplodingWriterConfig(kind="null")
        with pytest.raises(SchedulingError, match="RuntimeError: worker boom"):
            generate(GenerationEngine(demo_schema()), config, workers=2,
                     package_size=30)

    def test_worker_error_surfaces_from_inline_run(self):
        config = _ExplodingWriterConfig(kind="null")
        with pytest.raises(RuntimeError, match="worker boom"):
            generate(GenerationEngine(demo_schema()), config, package_size=30)

    @pytest.mark.parametrize(
        "workers", [pytest.param(1, id="1-inline"), pytest.param(4, id="4-process")]
    )
    def test_sink_failure_raises_original_error(self, workers):
        """Regression: a failing sink used to surface as a misleading
        "duplicate work package" from whichever package came next."""
        config = _FlakySinkConfig(kind="null")
        with pytest.raises(OutputError, match="disk full"):
            generate(GenerationEngine(demo_schema()), config, workers=workers,
                     package_size=20)


class TestClusterProgress:
    def test_cluster_run_feeds_the_monitor_it_is_given(self):
        monitor = ProgressMonitor(240, {"customer": 60, "orders": 180})
        report = ClusterScheduler(
            demo_schema(), output=OutputConfig(kind="null"), package_size=25,
            progress=monitor,
        ).run(2)
        snapshot = monitor.snapshot()
        assert snapshot.rows_done == snapshot.rows_total == report.rows == 240
        assert snapshot.bytes_written == report.bytes_written
        assert monitor.table_progress() == {"customer": (60, 60), "orders": (180, 180)}


class TestClusterMakespan:
    def test_multiprocess_run_records_pool_wall_clock(self):
        cluster = ClusterScheduler(demo_schema()).run(nodes=2)
        assert cluster.seconds > 0
        assert (cluster.workers, cluster.backend) == (2, "process")
        assert cluster.rows == 240

    def test_run_node_importable_from_scheduler(self):
        # the static-share entry point lives next to Scheduler since 4.0
        assert hasattr(scheduler_mod, "run_node")
        assert hasattr(scheduler_mod, "node_ranges")


class TestNodesAreWorkers:
    """``--nodes N`` is ``-w N`` through the CLI: the benchmark's exact
    flags write the inline bytes, and the sinks the part-file runtime
    refused (a SQLite load) work."""

    BASE = ["generate", "--suite", "tpch", "--sf", "0.002", "-q"]

    def test_bench_flags_write_the_inline_bytes(self, tmp_path, capsys):
        from repro.cli.main import main

        runs = {
            "inline": [],
            "w2": ["-w", "2"],
            "bench": ["--nodes", "2", "--distributed"],
            "n3": ["--nodes", "3"],
        }
        for name, flags in runs.items():
            assert main(self.BASE + ["-d", str(tmp_path / name), *flags]) == 0
        out = capsys.readouterr().out
        assert "2 process workers" in out and "3 process workers" in out
        reference = sorted(os.listdir(tmp_path / "inline"))
        for name in runs:
            assert sorted(os.listdir(tmp_path / name)) == reference, name
            for file in reference:
                assert (tmp_path / name / file).read_bytes() == (
                    tmp_path / "inline" / file
                ).read_bytes(), (name, file)

    def test_nodes_load_into_sqlite(self, tmp_path):
        import sqlite3

        from repro.cli.main import main

        def rows(path):
            with sqlite3.connect(path) as connection:
                tables = [name for (name,) in connection.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table' ORDER BY name"
                )]
                loaded = {
                    table: connection.execute(
                        f"SELECT * FROM {table} ORDER BY rowid"
                    ).fetchall()
                    for table in tables
                }
            connection.close()
            return loaded

        for name, flags in (("inline.db", []), ("nodes.db", ["--nodes", "2"])):
            assert main(self.BASE + [
                "--kind", "sqlite", "--format", "sql",
                "--database", str(tmp_path / name), *flags,
            ]) == 0
        inline = rows(tmp_path / "inline.db")
        assert len(inline) == 8 and sum(map(len, inline.values())) > 0
        assert rows(tmp_path / "nodes.db") == inline
