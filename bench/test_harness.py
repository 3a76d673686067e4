"""Self-test of the benchmark harness.

Run explicitly — tier-1 collects ``tests/`` only:

    python -m pytest bench/test_harness.py
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

import check  # noqa: E402
import compare  # noqa: E402
import layers  # noqa: E402
import models  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def declaration() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_benchmark(*args: str, cwd: str = REPO_ROOT, script: str | None = None):
    return subprocess.run(
        [sys.executable, script or os.path.join(BENCH_DIR, "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


# -- the declaration ----------------------------------------------------------


def test_declaration_meets_the_contract(declaration):
    assert set(declaration) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert declaration["paths"] == ["bench"]
    assert 1 <= declaration["run_seconds"] <= 60
    assert 2 <= len(declaration["workloads"]) <= 8
    assert 1 <= len(declaration["end_to_end"]) <= 16
    assert 1 <= len(declaration["per_layer"]) <= 128
    names = [w["name"] for w in declaration["workloads"]]
    for workload in declaration["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for entry in declaration["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in declaration["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in declaration["end_to_end"] + declaration["per_layer"]:
        names.append(entry["name"])
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    setup = [e for e in declaration["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(e["bound"] for e in declaration["end_to_end"])
    assert set(workloads.WORKLOADS) == {w["name"] for w in declaration["workloads"]}


def test_every_registered_generator_has_a_probe():
    from repro.generators.registry import known_generators

    assert sorted(layers.generator_specs()) == known_generators()


# -- whole runs -----------------------------------------------------------------


def test_quick_run_emits_every_end_to_end_metric(declaration, tmp_path):
    out = tmp_path / "quick.jsonl"
    started = time.perf_counter()
    result = run_benchmark("--quick", "--seed", "5", "--out", str(out))
    assert time.perf_counter() - started < 60
    assert result.returncode == 0, result.stderr
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["workload"] for r in records] == [
        w["name"] for w in declaration["workloads"]
    ]
    declared = {e["name"]: e["unit"] for e in declaration["end_to_end"]}
    for record in records:
        assert record["correct"] and record["failed"] == 0
        assert record["attempted"] >= 1 and record["seed"] == 5
        assert {"commit", "nproc", "python"} <= set(record["env"])
        assert set(record["metrics"]) == set(declared)
        for name, metric in record["metrics"].items():
            assert metric["unit"] == declared[name]
            assert metric["value"] > 0
    # the last stdout line is the contract's result object
    last = json.loads(result.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == set(declared)


@pytest.mark.parametrize("workload", ["typed_files", "imdb_roundtrip"])
def test_quick_traced_run_emits_every_per_layer_metric(declaration, workload):
    result = run_benchmark("--quick", "--trace", "1", "--workload", workload)
    assert result.returncode == 0, result.stderr
    last = json.loads(result.stdout.splitlines()[-1])
    assert last["correct"] and last["failed"] == 0
    assert set(last["metrics"]) == {e["name"] for e in declaration["per_layer"]}
    share = last["metrics"]["engine.object_value_share"]["value"]
    assert (share == 0) == (workload == "typed_files")
    trace = os.path.join(BENCH_DIR, "out", f"trace-{workload}.json")
    with open(trace, encoding="utf-8") as handle:
        recorded = json.load(handle)
    assert recorded and all(s["workload"] == workload for s in recorded)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        BENCH_DIR, tmp_path / "bench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    result = run_benchmark(
        "--workload", "tpch_files", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=str(tmp_path), script=str(tmp_path / "bench" / "run.py"),
    )
    assert result.returncode != 0
    assert result.stdout == ""


# -- output checks ----------------------------------------------------------------


@pytest.fixture()
def tiny_output(tmp_path):
    from repro import OutputConfig, generate

    model = models.Model(0.001, suite="tpch")
    dataset = model.dataset()
    directory = str(tmp_path / "out")
    generate(dataset.engine, OutputConfig(kind="file", directory=directory))
    return dataset, directory


def test_clean_output_passes_and_one_flipped_byte_fails(tiny_output):
    dataset, directory = tiny_output
    clean = check.Checks()
    check.check_batch_output(clean, directory, dataset, "csv", seed=3)
    assert clean.attempted > len(dataset.tables) and not clean.failures

    before = check.file_digests(directory)
    path = os.path.join(directory, "region.tbl")
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    data[len(data) // 2] ^= 0x01
    with open(path, "wb") as handle:
        handle.write(bytes(data))

    # the five-row table is covered whole by every sampled range
    tampered = check.Checks()
    check.check_batch_output(tampered, directory, dataset, "csv", seed=3)
    assert tampered.failures
    assert len(tampered.failures) / tampered.attempted > 0

    digests = check.Checks()
    check.check_same_digests(digests, "x", before, check.file_digests(directory))
    assert len(digests.failures) == 1 and "region.tbl" in digests.failures[0]


def test_missing_rows_fail_the_row_count(tiny_output):
    dataset, directory = tiny_output
    path = os.path.join(directory, "nation.tbl")
    with open(path, "rb") as handle:
        lines = handle.read().splitlines(keepends=True)
    with open(path, "wb") as handle:
        handle.writelines(lines[:-1])
    checks = check.Checks()
    check.check_batch_output(checks, directory, dataset, "csv", seed=3)
    assert any("nation" in failure for failure in checks.failures)


def test_served_body_mismatch_and_failed_request_count_as_failures(tiny_output):
    dataset, _ = tiny_output
    requests = workloads.build_requests(dataset.tables, seed=9, count=6)
    expected = check.reference_digests(dataset, requests)
    good = check.Checks()
    check.check_served_bodies(good, requests, expected, list(expected))
    assert good.attempted == 6 and not good.failures
    served = list(expected)
    served[2] = "0" * 64  # wrong body
    served[4] = ""        # non-200 or transport error
    bad = check.Checks()
    check.check_served_bodies(bad, requests, expected, served)
    assert len(bad.failures) == 2


# -- inputs from the seed -----------------------------------------------------------


def test_same_seed_same_request_list():
    sizes = {"lineitem": 60_000, "orders": 15_000, "customer": 5_000}
    first = workloads.build_requests(sizes, seed=11, count=200)
    assert first == workloads.build_requests(sizes, seed=11, count=200)
    assert first != workloads.build_requests(sizes, seed=12, count=200)
    for request in first:
        assert 0 <= request.start < request.stop <= sizes[request.table]
        assert request.stop - request.start in workloads.RANGE_LENGTHS
    lengths = {r.stop - r.start for r in first}
    assert {1, 16, 64} <= lengths


def test_ranges_are_clipped_to_small_tables():
    requests = workloads.build_requests({"t": 10}, seed=1, count=50, tables=("t",))
    assert all(r.stop <= 10 for r in requests)


# -- statistics -----------------------------------------------------------------------


def test_median_and_percentile():
    assert stats.median([3, 1, 2]) == 2
    assert stats.median([4, 1, 3, 2]) == 2.5
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 95) == 95
    assert stats.percentile(values, 100) == 100
    assert stats.percentile(values, 0) == 1
    assert stats.percentile([7.0], 95) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1], 101)


def test_quartile_spread_and_summary():
    values = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.2, 9.8, 10.0, 10.0]
    import statistics

    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / 10.0)
    assert stats.quartile_spread([5.0]) == 0.0
    assert stats.summarize([2.0, 1.0, 3.0]) == {
        "median": 2.0, "min": 1.0, "max": 3.0, "n": 3
    }


# -- spans ------------------------------------------------------------------------------


def test_spans_nest_and_self_times_sum_to_the_parent(tmp_path):
    tracer = spans.Tracer("typed_files")
    model = models.write_typed_model(str(tmp_path / "model"), 30_000)
    wall, values, object_values, written = layers.pipeline_pass(
        model.dataset(), "csv", 10_000, str(tmp_path / "out"), tracer
    )
    recorded = tracer.spans
    by_id = {record["id"]: record for record in recorded}
    roots = [record for record in recorded if record["parent"] is None]
    assert [record["name"] for record in roots] == ["pass"]
    for record in recorded:
        assert record["end"] >= record["start"]
        assert record["workload"] == "typed_files"
        if record["parent"] is not None:
            parent = by_id[record["parent"]]
            assert parent["start"] <= record["start"] <= record["end"] <= parent["end"]
    names = {record["name"] for record in recorded}
    assert {"pass", "package", "generate", "format", "encode", "sink"} <= names
    root = roots[0]["end"] - roots[0]["start"]
    own = spans.self_times(recorded)
    assert sum(own.values()) == pytest.approx(root, rel=0.02)
    assert root == pytest.approx(wall, rel=0.02)
    assert values == 30_000 * 7 and object_values == 0 and written > 0

    path = tmp_path / "trace.json"
    tracer.write(str(path))
    assert json.loads(path.read_text()) == recorded


def test_null_tracer_records_nothing():
    tracer = spans.NullTracer()
    with tracer.span("anything") as record:
        assert record is None


# -- compare ------------------------------------------------------------------------------


def test_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
    assert compare.verdict(steady, [v * 1.02 for v in steady], "lower", 0.08) == "ok"
    assert compare.verdict(steady, [v * 1.20 for v in steady], "lower", 0.08) == "worse"
    assert compare.verdict(steady, [v * 0.80 for v in steady], "higher", 0.08) == "worse"
    assert compare.verdict(steady, [v * 1.20 for v in steady], "higher", 0.08) == "ok"
    noisy = [100.0, 130.0, 80.0, 120.0, 90.0, 70.0, 125.0, 85.0, 110.0, 95.0]
    assert compare.verdict(noisy, [v * 1.05 for v in noisy], "lower", 0.08) == "unresolved"
    # spread wider than the bound, but every run of B beats every run of A
    assert compare.verdict(noisy, [v * 0.4 for v in noisy], "lower", 0.08) == "ok"
    assert compare.verdict(noisy, [v * 3.0 for v in noisy], "lower", 0.08) == "worse"


def test_compare_exit_status(tmp_path, declaration, capsys):
    def write(path, factor, failed=0):
        with open(path, "w", encoding="utf-8") as handle:
            for seed in range(10):
                handle.write(json.dumps({
                    "workload": "tpch_files", "trace": 0, "seed": seed,
                    "attempted": 50, "failed": failed,
                    "metrics": {
                        entry["name"]: {
                            "value": 10.0 * factor * (1 + seed / 1000),
                            "unit": entry["unit"],
                        }
                        for entry in declaration["end_to_end"]
                    },
                }) + "\n")

    a, same, slow, wrong = (str(tmp_path / name) for name in "abcd")
    write(a, 1.0)
    write(same, 1.01)
    write(slow, 1.5)
    write(wrong, 1.0, failed=1)
    assert compare.main([a, same]) == 0
    assert compare.main([a, slow]) == 1   # lower-is-better metrics got worse
    assert compare.main([a, wrong]) == 1  # any rise of the error share
    assert compare.main([a]) == 0
    assert "error_share" in capsys.readouterr().out
