"""Figure 5 — PDGF TPC-H scale-up performance.

Paper: on one node, throughput "increases linearly with the number of
cores (16) and further increases with the number of hardware threads
(32), but not as significantly"; and scheduling exactly as many workers
as cores is not optimal because of internal scheduling and I/O threads.

Substrate: the paper's workers are JVM threads; CPython threads share
the GIL, so ``workers=N`` means N processes here (the thread-pool series
was removed with the thread pool: it read 11.4 / 9.60 / 8.42 / 8.07 MB/s
at 1 / 2 / 4 / 8 workers, slower with every worker added). Two series,
and which is which:

* *workers (measured)* — ``generate(workers=N)``: the real series, one
  inline worker, then N worker processes. It rises with workers up to
  the host's core count;
* *workers (simulated)* — an estimator, not a run: disjoint worker
  shares timed in isolation, makespan = max share duration. It is what a
  pool achieves while workers <= cores and reproduces the figure's rise
  on a host with fewer cores than the paper's 16.

Reproduction targets: simulated worker scaling is near-linear
(asserted); the measured process series gains from a second core
(printed, not asserted: on a shared 2-core host the second core is not
always free, and then two processes run no faster than one); all runs
produce complete data. (Byte-identity inline vs pooled is tier-1's:
``tests/test_scheduler_backends.py::TestBackendEquivalence``.)
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.engine import GenerationEngine
from repro.output.config import OutputConfig
from repro.scheduler import generate
from repro.suites.tpch import tpch_artifacts, tpch_schema

from conftest import assert_near_linear, bench_sf, record, simulated_cluster

SERIES = "Figure 5 (TPC-H scale-up): workers | MB/s"
_CPUS = max(multiprocessing.cpu_count(), 1)
MEASURED = sorted({1, 2, 4, _CPUS})
SIMULATED_WORKERS = [1, 2, 4, 8, 16, 32]

_measured: dict[int, float] = {}
_simulated: dict[int, float] = {}


@pytest.fixture(scope="module")
def schema():
    return tpch_schema(bench_sf(0.003))


@pytest.mark.parametrize("workers", MEASURED)
def test_scaleup_measured(benchmark, schema, workers):
    def run():
        engine = GenerationEngine(schema, tpch_artifacts())
        return generate(
            engine, OutputConfig(kind="null"), workers=workers, package_size=2000
        )

    result = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=0)
    assert result.rows == sum(schema.sizes().values())
    mb_per_s = result.bytes_written / 1048576 / benchmark.stats.stats.min
    _measured[workers] = mb_per_s
    record(SERIES, (
        f"{workers} {result.backend} workers (measured)", round(mb_per_s, 2)
    ))


@pytest.mark.parametrize("workers", SIMULATED_WORKERS)
def test_scaleup_workers_simulated(benchmark, workers):
    """The estimator (see module docstring), on a model twice the
    measured series': a 1/32 share of the smaller one is ~6 ms of work
    under ~8 ms of per-share set-up, which caps the speed-up near 13x
    whatever the scheduler does."""
    result = benchmark.pedantic(
        simulated_cluster,
        args=(tpch_schema(bench_sf(0.006)), tpch_artifacts(), workers),
        rounds=1, iterations=1,
    )
    _simulated[workers] = result.mb_per_second
    record(SERIES, (f"{workers} workers (simulated)", round(result.mb_per_second, 2)))


def test_scaleup_shape(benchmark):
    if len(_simulated) < len(SIMULATED_WORKERS) or len(_measured) < len(MEASURED):
        pytest.skip("run after the parametrized measurements")

    def check():
        record(SERIES, (
            "speedup", f"simulated x{_simulated[32] / _simulated[1]:.1f} at 32,",
            f"measured x{_measured[2] / _measured[1]:.2f} at 2",
        ))
        assert_near_linear(_simulated)

    benchmark.pedantic(check, rounds=1, iterations=1)
