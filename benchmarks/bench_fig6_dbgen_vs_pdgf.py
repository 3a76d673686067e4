"""Figure 6 — DBGen vs PDGF performance.

Paper: generation duration over scale factors 1..300 for DBGen to disk,
PDGF to disk and PDGF to /dev/null. Both tools are in the same order of
performance; single-stream DBGen is moderately faster than single-worker
PDGF (48 vs 30 MB/s, 1.6x) because PDGF pays for full genericity; the
CPU-bound (/dev/null) PDGF run is ~33% faster than its disk-bound run.

Here: scaled-down SFs, one worker, and PDGF reported **twice**, because
this repo's PDGF has two ways to make a row and the paper's comparison
is only like for like on one of them:

* *PDGF(oracle)* — ``generate_row`` + ``write_row`` per row, the scalar
  reference path every test compares the block path against. It works
  the way the DBGen port does (one Python call chain per row), so it is
  where the paper's "DBGen <= 2x faster" can be checked;
* *PDGF(block)* — ``generate(engine, output, workers=1)``, the column
  kernels and vectorized CSV every executor, ``Dataset.slice`` and
  ``serve`` run: what a user gets.

Reproduction targets: duration grows ~linearly in SF for every series;
DBGen beats the oracle path by a small factor (the paper's sign and
order of magnitude); the block path beats DBGen (the opposite sign — a
property of this implementation, not of the paper's). PDGF to a null
sink against PDGF to disk is printed only: the "disk" here is tmpfs.
"""

from __future__ import annotations

import os

import pytest

from repro.engine import GenerationEngine
from repro.output.config import OutputConfig
from repro.output.sinks import FileSink
from repro.scheduler import generate
from repro.suites.tpch import DbgenBaseline, tpch_artifacts, tpch_schema

from conftest import bench_sf, record

SERIES = "Figure 6 (DBGen vs PDGF): series | SF | duration s | MB/s"
BASE_SF = bench_sf(0.0005)
SCALE_FACTORS = [BASE_SF, BASE_SF * 3, BASE_SF * 10]
MIB = 1048576

#: best MB/s per series at the largest SF, for the relations below
_mb_per_s: dict[str, float] = {}


def _dbgen(sf: float, directory: str) -> int:
    baseline = DbgenBaseline(sf)
    total = 0
    for table in baseline.TABLES:
        path = os.path.join(directory, f"{table}.tbl")
        with FileSink(path) as sink:
            baseline.generate_table(table, sink)
        total += os.path.getsize(path)
    return total


def _pdgf_oracle(sf: float, directory: str) -> int:
    engine = GenerationEngine(tpch_schema(sf), tpch_artifacts())
    output = OutputConfig(kind="file", directory=directory)
    total = 0
    for table, size in engine.sizes.items():
        bound = engine.bound_table(table)
        ctx = engine.new_context(table)
        writer = output.new_writer(table, bound.column_names)
        with output.new_sink(table) as sink:
            for row in range(size):
                values = bound.generate_row(row, ctx)  # hot-loop-ok: Figure 6 oracle series
                sink.write(writer.write_row(values))  # hot-loop-ok: Figure 6 oracle series
        total += os.path.getsize(output.table_path(table))
    return total


def _pdgf_block(sf: float, output: OutputConfig) -> int:
    engine = GenerationEngine(tpch_schema(sf), tpch_artifacts())
    return generate(engine, output, workers=1).bytes_written


def _series(benchmark, name: str, sf: float, run, *args) -> None:
    total = benchmark.pedantic(
        run, args=(sf, *args), rounds=2, iterations=1, warmup_rounds=0
    )
    seconds = benchmark.stats.stats.min
    record(SERIES, (name, sf, round(seconds, 3), round(total / MIB / seconds, 2)))
    if sf == SCALE_FACTORS[-1]:
        _mb_per_s[name] = total / MIB / seconds


@pytest.mark.parametrize("sf", SCALE_FACTORS)
def test_dbgen_to_disk(benchmark, sf, tmp_path):
    _series(benchmark, "DBGen(disk)", sf, _dbgen, str(tmp_path))


@pytest.mark.parametrize("sf", SCALE_FACTORS)
def test_pdgf_oracle_to_disk(benchmark, sf, tmp_path):
    _series(benchmark, "PDGF(oracle, disk)", sf, _pdgf_oracle, str(tmp_path))


@pytest.mark.parametrize("sf", SCALE_FACTORS)
def test_pdgf_block_to_disk(benchmark, sf, tmp_path):
    output = OutputConfig(kind="file", directory=str(tmp_path))
    _series(benchmark, "PDGF(block, disk)", sf, _pdgf_block, output)


@pytest.mark.parametrize("sf", SCALE_FACTORS)
def test_pdgf_block_to_devnull(benchmark, sf):
    _series(benchmark, "PDGF(block, null)", sf, _pdgf_block, OutputConfig(kind="null"))


def test_single_stream_relations(benchmark):
    """The two relations measured at the largest SF (best of two runs
    each). Like for like, DBGen wins by 2.7-3.2x here (paper: 1.6x;
    asserted: DBGen ahead, by less than 5x). On the path users run, PDGF
    wins by 2.3-2.8x (asserted: by at least 1.2x)."""
    if len(_mb_per_s) < 4:
        pytest.skip("run after the series")

    def relations():
        dbgen = _mb_per_s["DBGen(disk)"]
        return (
            dbgen / _mb_per_s["PDGF(oracle, disk)"],
            _mb_per_s["PDGF(block, disk)"] / dbgen,
            _mb_per_s["PDGF(block, null)"] / _mb_per_s["PDGF(block, disk)"],
        )

    dbgen_over_oracle, block_over_dbgen, null_over_disk = benchmark.pedantic(
        relations, rounds=1, iterations=1
    )
    record(SERIES, (
        "single stream", SCALE_FACTORS[-1],
        f"DBGen / PDGF(oracle) {dbgen_over_oracle:.2f}x",
        f"PDGF(block) / DBGen {block_over_dbgen:.2f}x",
        f"PDGF null / disk {null_over_disk:.2f}x",
    ))
    assert 1.0 < dbgen_over_oracle < 5.0
    assert block_over_dbgen > 1.2
    # null / disk is printed, not asserted: the "disk" is tmpfs, so the
    # paper's 33% gap cannot appear and the ratio is noise around 1.
