"""Figure 6 — DBGen vs PDGF performance.

Paper: generation duration over scale factors 1..300 for (a) DBGen to
disk, (b) PDGF to disk, and (c) PDGF to /dev/null. Findings: both tools
are in the same order of performance; disk-bound PDGF tracks DBGen; the
CPU-bound (/dev/null) PDGF run is ~33% faster than its own disk-bound
run; single-stream DBGen is moderately faster than single-worker PDGF
(48 vs 30 MB/s) because PDGF pays for full genericity.

Here: scaled-down SFs, same three series. Reproduction targets:
duration grows ~linearly in SF for every series; PDGF stays within one
order of magnitude of DBGen; PDGF-to-null is at least as fast as
PDGF-to-disk.
"""

from __future__ import annotations

import os

import pytest

from repro.engine import GenerationEngine
from repro.output.config import OutputConfig
from repro.output.sinks import CallbackSink, FileSink
from repro.scheduler import generate
from repro.suites.tpch import DbgenBaseline, tpch_artifacts, tpch_schema

from conftest import bench_sf, record

BASE_SF = bench_sf(0.0005)
SCALE_FACTORS = [BASE_SF, BASE_SF * 3, BASE_SF * 10]


def _pdgf_run(sf: float, output: OutputConfig):
    engine = GenerationEngine(tpch_schema(sf), tpch_artifacts())
    return generate(engine, output, workers=1)


@pytest.mark.parametrize("sf", SCALE_FACTORS)
def test_dbgen_to_disk(benchmark, sf, tmp_path):
    baseline = DbgenBaseline(sf)

    def run():
        total = 0
        for table in baseline.TABLES:
            path = str(tmp_path / f"{table}.tbl")
            with FileSink(path) as sink:
                baseline.generate_table(table, sink)
            total += os.path.getsize(path)
        return total

    total = benchmark.pedantic(run, rounds=2, iterations=1, warmup_rounds=0)
    seconds = benchmark.stats.stats.mean
    record(
        "Figure 6 (DBGen vs PDGF): series | SF | duration s | MB/s",
        ("DBGen(disk)", sf, round(seconds, 3),
         round(total / 1048576 / seconds, 2)),
    )


@pytest.mark.parametrize("sf", SCALE_FACTORS)
def test_pdgf_to_disk(benchmark, sf, tmp_path):
    output = OutputConfig(kind="file", directory=str(tmp_path))
    result = benchmark.pedantic(
        _pdgf_run, args=(sf, output), rounds=2, iterations=1, warmup_rounds=0
    )
    seconds = benchmark.stats.stats.mean
    record(
        "Figure 6 (DBGen vs PDGF): series | SF | duration s | MB/s",
        ("PDGF(disk)", sf, round(seconds, 3),
         round(result.bytes_written / 1048576 / seconds, 2)),
    )


@pytest.mark.parametrize("sf", SCALE_FACTORS)
def test_pdgf_to_devnull(benchmark, sf):
    output = OutputConfig(kind="null")
    result = benchmark.pedantic(
        _pdgf_run, args=(sf, output), rounds=2, iterations=1, warmup_rounds=0
    )
    seconds = benchmark.stats.stats.mean
    record(
        "Figure 6 (DBGen vs PDGF): series | SF | duration s | MB/s",
        ("PDGF(null)", sf, round(seconds, 3),
         round(result.bytes_written / 1048576 / seconds, 2)),
    )


def test_single_stream_ratio_same_order(benchmark):
    """The paper's 48-vs-30 MB/s single-stream comparison: assert PDGF is
    within one order of magnitude of DBGen (shape check, not absolute)."""
    import time

    sf = BASE_SF * 3
    baseline = DbgenBaseline(sf)

    def compare():
        start = time.perf_counter()
        sizes: list[int] = []  # .tbl lines are ASCII: characters == bytes
        sink = CallbackSink(lambda chunk: sizes.append(len(chunk)))
        for table in baseline.TABLES:
            baseline.generate_table(table, sink)
        dbgen_bytes = sum(sizes)
        dbgen_seconds = time.perf_counter() - start

        start = time.perf_counter()
        result = _pdgf_run(sf, OutputConfig(kind="null"))
        pdgf_seconds = time.perf_counter() - start
        return (
            dbgen_bytes / 1048576 / dbgen_seconds,
            result.bytes_written / 1048576 / pdgf_seconds,
        )

    dbgen_mbs, pdgf_mbs = benchmark.pedantic(compare, rounds=1, iterations=1)
    record(
        "Figure 6 (DBGen vs PDGF): series | SF | duration s | MB/s",
        ("single-stream ratio", sf, f"DBGen {dbgen_mbs:.1f} MB/s",
         f"PDGF {pdgf_mbs:.1f} MB/s"),
    )
    assert pdgf_mbs * 10 >= dbgen_mbs, (
        f"PDGF ({pdgf_mbs:.1f} MB/s) not within an order of magnitude "
        f"of DBGen ({dbgen_mbs:.1f} MB/s)"
    )
