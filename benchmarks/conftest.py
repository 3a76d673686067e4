"""Shared fixtures and reporting helpers for the benchmark harness.

Every figure/table of the paper's evaluation (§4) has one bench module;
each prints a paper-style summary block at the end of its run (visible
with ``-s`` and collected in ``benchmark.extra_info`` otherwise).

Scale factors are laptop-scale by default and adjustable via the
``REPRO_BENCH_SF`` environment variable; the paper's absolute numbers
came from a 24-node cluster, so the *shape* of each series is the
reproduction target (see EXPERIMENTS.md).
"""

from __future__ import annotations

import os
from collections import defaultdict

import pytest

# One shared registry so bench modules can print figure-shaped summaries
# at session end.
_RESULTS: dict[str, list[tuple]] = defaultdict(list)


def bench_sf(default: float = 0.002) -> float:
    """Benchmark scale factor (overridable via REPRO_BENCH_SF)."""
    return float(os.environ.get("REPRO_BENCH_SF", default))


def simulated_cluster(schema, artifacts, nodes: int, repetitions: int = 3):
    """The shared-nothing estimate Figures 4 and 5 use on one machine:
    every node's static share (``run_node``) runs in isolation and the
    cluster makespan is the max over nodes. Per-node work is
    deterministic and the max is extremely sensitive to one noisy node,
    so each node contributes its best time across *repetitions*."""
    from repro.output.config import OutputConfig
    from repro.scheduler import NodeReport, RunReport, run_node

    best: dict[int, NodeReport] = {}
    for _ in range(repetitions):
        for node in range(nodes):
            run = run_node(schema, nodes, node, OutputConfig(kind="null"), artifacts)
            if node not in best or run.seconds < best[node].seconds:
                best[node] = NodeReport(node, run.rows, run.bytes_written, run.seconds)
    shares = tuple(best.values())
    return RunReport(
        rows=sum(share.rows for share in shares),
        bytes_written=sum(share.bytes_written for share in shares),
        seconds=max(share.seconds for share in shares),
        workers=nodes, backend="cluster", nodes=shares,
    )


def record(figure: str, row: tuple) -> None:
    """Record one data point of a figure's series."""
    _RESULTS[figure].append(row)


@pytest.hookimpl(trylast=True)
def pytest_terminal_summary(terminalreporter):
    """Print each figure's collected series as a small table."""
    if not _RESULTS:
        return
    write = terminalreporter.write_line
    write("")
    write("=" * 72)
    write("Paper-figure series (see EXPERIMENTS.md for the mapping)")
    write("=" * 72)
    for figure in sorted(_RESULTS):
        write(f"\n{figure}")
        for row in _RESULTS[figure]:
            write("  " + "  ".join(str(cell) for cell in row))
    write("")
