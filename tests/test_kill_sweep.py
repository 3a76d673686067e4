"""A kill-point sweep across both destinations of the one runtime.

Every runtime cuts packages on the same grid — package ``k`` is rows
``[k·P, (k+1)·P)``, cut short only where the run's range ends — and
``-w N`` and ``--nodes N`` are one executor pool draining one ledger,
differing only in where the bytes land (the parent's mux, or part files
the parent merges). The sweep kills the executor entering each grid
start of both tables, on both destinations, and asserts the kill fired
(exactly one recovery counted) and the output is the inline run's bytes.
A crash loop (an un-latched kill) at seeded grid points must stop the
run at the cap, and ``--resume`` from its checkpoint must finish it
byte-identically — also when ``-w 2`` loads into SQLite, where the
resumed database must hold the inline load's rows, none twice.
"""

from __future__ import annotations

import random
import sqlite3

import pytest

from repro.db import create_schema_sql
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
#: ``-w 2`` loading into SQLite: a leg of the crash loop only
SQLITE = "-w 2 --kind sqlite"
#: the crash-loop points, drawn once per leg from a fixed seed
LOOP_POINTS = [
    (runtime, point) for runtime in [*RUNTIMES, SQLITE]
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


def _database(path) -> OutputConfig:
    """A fresh SQLite target with the demo schema's tables in place."""
    with sqlite3.connect(path) as connection:
        connection.executescript(create_schema_sql(demo_schema(), "sqlite"))
    connection.close()
    return OutputConfig(kind="sqlite", format="sql", database=str(path))


def _rows(output: OutputConfig) -> dict[str, list[tuple]]:
    with sqlite3.connect(output.database) as connection:
        rows = {
            table: connection.execute(f"SELECT * FROM {table} ORDER BY rowid").fetchall()
            for table in SIZES
        }
    connection.close()
    return rows


@pytest.fixture(scope="module")
def inline_rows(tmp_path_factory):
    output = _database(tmp_path_factory.mktemp("inline-sqlite") / "inline.db")
    Scheduler(
        GenerationEngine(demo_schema()), output, package_size=PACKAGE
    ).run()
    return _rows(output)


def _run(runtime: str, output: OutputConfig, **options):
    if runtime in ("-w 2", SQLITE):
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
    tmp_path, inline_bytes, inline_rows, runtime, kill_at
):
    if runtime == SQLITE:
        output = _database(tmp_path / "target.db")
    else:
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
    if runtime == SQLITE:
        # every package loaded once, in row order: no duplicate, no gap
        assert _rows(output) == inline_rows
    else:
        assert _files(output) == inline_bytes
