"""A kill-point sweep across runtimes: one package grid, one dispatcher.

Every runtime cuts packages on the same grid — package ``k`` is rows
``[k·P, (k+1)·P)``, cut short only where a shard or stolen range ends —
so "the package at row N" is the same package on ``-w N`` and
``--nodes N``. The sweep kills the executor entering each grid start of
both tables, on both runtimes, and asserts the kill fired (exactly one
recovery counted) and the output is the inline run's bytes. A crash loop
(an un-latched kill) at seeded grid points must stop the run at the
cap, and ``--resume`` from its checkpoint must finish it byte-identically.
"""

from __future__ import annotations

import random

import pytest

from repro.engine import GenerationEngine
from repro.exceptions import SchedulingError
from repro.output.config import OutputConfig
from repro.resilience import FaultPlan
from repro.scheduler import ClusterScheduler, Scheduler
from tests.conftest import demo_schema

PACKAGE = 25
SIZES = {"customer": 60, "orders": 180}
#: every grid start of both tables: customer 0-50, orders 0-175
POINTS = [
    (table, row) for table, size in SIZES.items()
    for row in range(0, size, PACKAGE)
]
RUNTIMES = ["-w 2", "--nodes 2"]
#: the crash-loop points, drawn once per runtime from a fixed seed
LOOP_POINTS = [
    (runtime, point) for runtime in RUNTIMES
    for point in random.Random(f"kill-sweep {runtime}").sample(POINTS, 3)
]


@pytest.fixture(autouse=True)
def _reap_fast(monkeypatch):
    from repro.scheduler import executor

    monkeypatch.setattr(executor, "POLL_SECONDS", 0.02)


def _output(directory) -> OutputConfig:
    return OutputConfig(
        kind="file", format="csv", directory=str(directory), include_header=True,
    )


def _files(output: OutputConfig) -> dict[str, bytes]:
    return {
        table: open(output.table_path(table), "rb").read() for table in SIZES
    }


@pytest.fixture(scope="module")
def inline_bytes(tmp_path_factory):
    output = _output(tmp_path_factory.mktemp("inline"))
    Scheduler(
        GenerationEngine(demo_schema()), output, package_size=PACKAGE
    ).run()
    return _files(output)


def _run(runtime: str, output: OutputConfig, **options):
    if runtime == "-w 2":
        return Scheduler(
            GenerationEngine(demo_schema()), output, workers=2,
            package_size=PACKAGE, **options,
        ).run()
    return ClusterScheduler(
        demo_schema(), output=output, package_size=PACKAGE, **options
    ).run(2)


def test_the_sweep_covers_every_grid_start():
    assert len(POINTS) == 11
    assert POINTS[:3] == [("customer", 0), ("customer", 25), ("customer", 50)]
    assert POINTS[-1] == ("orders", 175)


@pytest.mark.parametrize("runtime", RUNTIMES)
@pytest.mark.parametrize(
    "kill_at", POINTS, ids=[f"{table}-{row}" for table, row in POINTS]
)
def test_latched_kill_at_every_grid_start(tmp_path, inline_bytes, runtime, kill_at):
    output = _output(tmp_path / "out")
    plan = FaultPlan(kill_at=kill_at, latch_dir=str(tmp_path / "latch"))
    report = _run(runtime, output, faults=plan)
    # the kill fired — on the package at that row — and was recovered once
    recoveries = report.worker_restarts + report.node_failures
    assert recoveries == 1, f"{kill_at} never fired on {runtime}"
    assert report.rows == 240
    assert _files(output) == inline_bytes


@pytest.mark.parametrize(
    "runtime, kill_at", LOOP_POINTS,
    ids=[f"{runtime}-{table}-{row}" for runtime, (table, row) in LOOP_POINTS],
)
def test_crash_loop_stops_then_resume_finishes(
    tmp_path, inline_bytes, runtime, kill_at
):
    output = _output(tmp_path / "out")
    checkpoint = str(tmp_path / "ckpt")
    with pytest.raises(SchedulingError, match="executor deaths exceed"):
        _run(
            runtime, output, checkpoint=checkpoint,
            faults=FaultPlan(kill_at=kill_at),
        )
    report = _run(runtime, output, checkpoint=checkpoint, resume_from=checkpoint)
    assert report.rows == 240
    assert report.worker_restarts + report.node_failures == 0
    assert _files(output) == inline_bytes
