"""CLI telemetry: --trace/--metrics/--summary flags and the stats
subcommand."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.cli.main import main


@pytest.fixture(autouse=True)
def _clean_obs_state():
    obs.reset()
    yield
    obs.reset()


def _generate(tmp_path, *extra: str) -> int:
    return main([
        "generate", "--suite", "tpch", "--sf", "0.001",
        "--kind", "null", "-q", *extra,
    ])


class TestGenerateTelemetryFlags:
    def test_trace_file_is_parseable_jsonl(self, tmp_path):
        trace = str(tmp_path / "trace.jsonl")
        assert _generate(tmp_path, "--trace", trace) == 0
        lines = [json.loads(line) for line in open(trace, encoding="utf-8")]
        assert lines[0]["event"] == "meta"
        names = {line["name"] for line in lines[1:]}
        assert "scheduler.run" in names
        assert "scheduler.package" in names
        assert "sink.write" in names

    def test_pooled_run_writes_one_stitched_multi_process_trace(
        self, tmp_path, capsys
    ):
        """The CLI leg of TestProcessBackendStitching: the file a user
        gets from ``-w 2 --trace`` holds both workers' spans, nested
        run > package > generate, and ``stats --tree`` renders it."""
        trace = str(tmp_path / "trace.jsonl")
        assert _generate(tmp_path, "-w", "2", "--trace", trace) == 0
        records = obs.read_trace_jsonl(trace)
        by_id = {record.span_id: record for record in records}
        assert len({r.attrs["pid"] for r in records if "pid" in r.attrs}) > 1
        generated = [r for r in records if r.name == "package.generate"]
        assert len(generated) == 8  # one package per TPC-H table at this size
        for record in generated:
            package = by_id[record.parent_id]
            assert package.name == "scheduler.package"
            assert by_id[package.parent_id].name == "scheduler.run"
        capsys.readouterr()
        assert main(["stats", "--trace", trace, "--tree"]) == 0
        assert "package.generate" in capsys.readouterr().out

    @pytest.mark.parametrize("runtime", [[], ["-w", "2"], ["--nodes", "2"]],
                             ids=["inline", "pool", "cluster"])
    def test_obs_port_answers_progress_on_every_runtime(
        self, tmp_path, monkeypatch, runtime
    ):
        """One monitor, built before the runtime is chosen: `/progress`
        on `--obs-port` reads 100% at the end of a `--nodes 2` run as it
        does for `-w 2` (asked just before the endpoint shuts down)."""
        import urllib.request

        from repro.obs.serve import ObsServer

        answers = []
        stop = ObsServer.stop

        def ask_then_stop(server):
            with urllib.request.urlopen(server.url + "/progress") as response:
                answers.append(json.load(response))
            stop(server)

        monkeypatch.setattr(ObsServer, "stop", ask_then_stop)
        assert _generate(tmp_path, "--obs-port", "0", *runtime) == 0
        (progress,) = answers
        assert progress["rows_done"] == progress["rows_total"] > 0
        assert progress["fraction"] == 1.0
        assert progress["tables"]["lineitem"]["rows_done"] > 0

    def test_metrics_dump_matches_report(self, tmp_path, capsys):
        metrics = str(tmp_path / "metrics.prom")
        assert _generate(tmp_path, "--metrics", metrics) == 0
        out = capsys.readouterr().out
        reported_rows = int(out.split(" rows,")[0].replace(",", ""))
        text = open(metrics, encoding="utf-8").read()
        counted = sum(
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("rows_generated_total{")
        )
        assert counted == reported_rows == 8690

    def test_summary_flag_prints_digest(self, tmp_path, capsys):
        assert _generate(tmp_path, "--summary") == 0
        out = capsys.readouterr().out
        assert "telemetry summary" in out
        assert "rows_generated_total" in out

    def test_per_table_breakdown_printed(self, tmp_path, capsys):
        assert main([
            "generate", "--suite", "tpch", "--sf", "0.001", "--kind", "null",
        ]) == 0
        out = capsys.readouterr().out
        assert "lineitem" in out
        assert "region" in out

    def test_telemetry_state_reset_after_run(self, tmp_path):
        trace = str(tmp_path / "trace.jsonl")
        _generate(tmp_path, "--trace", trace)
        assert obs.active_tracer() is None
        assert obs.active_metrics() is None


class TestStatsSubcommand:
    def test_trace_summary(self, tmp_path, capsys):
        trace = str(tmp_path / "trace.jsonl")
        _generate(tmp_path, "--trace", trace)
        capsys.readouterr()
        assert main(["stats", "--trace", trace]) == 0
        out = capsys.readouterr().out
        assert "scheduler.run" in out
        assert "scheduler.package" in out

    def test_model_generator_listing(self, capsys):
        assert main([
            "stats", "--suite", "tpch", "--sf", "0.001", "--table", "region",
        ]) == 0
        out = capsys.readouterr().out
        assert "-- region: 5 rows" in out
        assert "IdGenerator" in out

    def test_requires_model_suite_or_trace(self, capsys):
        assert main(["stats"]) == 2
        assert "error:" in capsys.readouterr().err


class TestExtractTelemetryFlags:
    def test_extract_trace(self, tmp_path):
        from repro.suites.imdb import build_imdb_database

        source = str(tmp_path / "source.db")
        build_imdb_database(source, movies=20, people=30, seed=13).close()
        trace = str(tmp_path / "extract.jsonl")
        assert main([
            "extract", source, "-o", str(tmp_path / "proj"), "--trace", trace,
        ]) == 0
        names = {record.name for record in obs.read_trace_jsonl(trace)}
        assert "extraction.schema" in names
        assert "model.build" in names
