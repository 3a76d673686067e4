"""Shared helpers of the paper-artefact scripts.

One script per artefact of the paper's evaluation (Figures 4-9, the §4
extraction table, the §2 recompute claim, the §5 fidelity demo); each
records its series here and the session prints them at the end. They
measure the path the system runs — regressions and per-layer cost are
``bench/``'s job (``python3 bench/run.py``), not theirs.

Scale factors are laptop-scale by default and adjustable via the
``REPRO_BENCH_SF`` environment variable; the paper's absolute numbers
came from a 24-node cluster, so the *shape* of each series is the
reproduction target (see EXPERIMENTS.md).
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from typing import Callable, NamedTuple

import pytest

#: Rows per probed block: the block size of ``bench/layers.py``'s
#: generator probes (a block ten times larger falls out of cache).
BLOCK_ROWS = 4096

# One shared registry so bench modules can print figure-shaped summaries
# at session end.
_RESULTS: dict[str, list[tuple]] = defaultdict(list)


def bench_sf(default: float = 0.002) -> float:
    """Benchmark scale factor (overridable via REPRO_BENCH_SF)."""
    return float(os.environ.get("REPRO_BENCH_SF", default))


def simulated_cluster(schema, artifacts, nodes: int, repetitions: int = 5):
    """The shared-nothing estimate Figures 4 and 5 use on one machine:
    every node's static share (``run_node``) runs in isolation and the
    cluster makespan is the max over nodes. Per-node work is
    deterministic and the max is extremely sensitive to one noisy node,
    so each node contributes its best time across *repetitions* (five:
    with three, one busy second on a shared host spoils a share). Each
    share binds its own engine, as a node on its own machine would, so
    no share runs on writers another share warmed."""
    from repro.engine import GenerationEngine
    from repro.output.config import OutputConfig
    from repro.scheduler import RunReport, run_node

    best: dict[int, RunReport] = {}
    for _ in range(repetitions):
        for node in range(nodes):
            engine = GenerationEngine(schema, artifacts)
            run = run_node(engine, nodes, node, OutputConfig(kind="null"))
            if node not in best or run.seconds < best[node].seconds:
                best[node] = run
    shares = best.values()
    return RunReport(
        rows=sum(share.rows for share in shares),
        bytes_written=sum(share.bytes_written for share in shares),
        seconds=max(share.seconds for share in shares),
        workers=nodes,
    )


def assert_near_linear(mb_per_s: dict[int, float]) -> None:
    """Figures 4 and 5: the simulated series scales linearly within a
    generous efficiency band. Fixed per-share set-up and max-over-shares
    jitter eat into ideality once shares shrink to tens of milliseconds
    (the paper's hour-long runs amortize both away), hence the lower
    floor past 8; never super-linear beyond noise."""
    for count, rate in mb_per_s.items():
        speedup = rate / mb_per_s[1]
        floor = 0.55 if count <= 8 else 0.35
        assert floor * count <= speedup <= 1.4 * count, (
            f"{count} shares: speedup {speedup:.2f}, expected ~{count}"
        )


class BlockCost(NamedTuple):
    """ns per value of one single-column table on the block path."""

    #: ``generate_columns`` on the table: generator plus the two PRNG rows
    #: every column pays (the paper's bars include its "base time" too)
    table: float
    #: the generator alone — ``table`` minus ``row_hash`` and ``seed_block``,
    #: the quantity ``bench/`` reports as ``generators.<Class>.ns_per_value``
    generate: float
    #: ``CsvWriter.write_block`` on the generated block by the table's
    #: long-lived writer — every later package of a run
    format: float
    #: the same by a fresh writer, whose render cache is empty — the
    #: first package of a run
    format_cold: float


def interleaved_min(calls: dict[str, Callable[[], object]], rounds: int = 25) -> dict[str, float]:
    """Best seconds per call over *rounds* passes that visit every call
    in turn — differences of a few ns per value are smaller than the
    drift between two separately timed loops on a shared host."""
    best = {name: float("inf") for name in calls}
    for _ in range(rounds):
        for name, call in calls.items():
            started = time.perf_counter()
            call()
            best[name] = min(best[name], time.perf_counter() - started)
    return best


def block_ns_per_value(configs: dict[str, tuple]) -> dict[str, BlockCost]:
    """Figure 7's additive method on the path the system runs: each
    ``{name: (column type, GeneratorSpec)}`` becomes a one-column table
    of ``BLOCK_ROWS`` rows, timed through ``BoundTable.generate_columns``
    (what every executor, ``Dataset.slice`` and ``serve`` call) and
    ``write_block``, interleaved with the two PRNG kernels whose cost is
    subtracted — as ``bench/layers.py::measure_generators`` does."""
    from repro.engine import GenerationEngine
    from repro.model.schema import Field, Schema, Table
    from repro.output.config import OutputConfig
    from repro.prng import blocks
    from repro.prng.seeding import ColumnSeeder, SeedHierarchy

    seeder = ColumnSeeder(SeedHierarchy(42), "t", "f")
    hashes = blocks.row_hash_block(0, BLOCK_ROWS)
    calls: dict[str, Callable[[], object]] = {
        "prng.row_hash": lambda: blocks.row_hash_block(0, BLOCK_ROWS),
        "prng.seed_block": lambda: seeder.seed_block_from_hashes(hashes),
    }
    for name, (type_text, spec) in configs.items():
        schema = Schema("probe", seed=23)
        schema.add_table(Table("t", str(BLOCK_ROWS), [Field.of("f", type_text, spec)]))
        engine = GenerationEngine(schema)
        bound = engine.bound_table("t")
        writer = OutputConfig(format="csv").new_writer("t", bound.column_names)
        block = bound.generate_columns(0, BLOCK_ROWS, engine.new_context("t"))
        calls[f"generate {name}"] = (
            lambda bound=bound, engine=engine:
            bound.generate_columns(0, BLOCK_ROWS, engine.new_context("t"))
        )
        calls[f"format {name}"] = lambda writer=writer, block=block: writer.write_block(block)
        calls[f"format cold {name}"] = (
            lambda bound=bound, block=block:
            OutputConfig(format="csv").new_writer("t", bound.column_names).write_block(block)
        )
    interleaved_min(calls, rounds=2)  # warm-up
    ns = {name: best * 1e9 / BLOCK_ROWS for name, best in interleaved_min(calls).items()}
    prng = ns["prng.row_hash"] + ns["prng.seed_block"]
    return {
        name: BlockCost(
            ns[f"generate {name}"], ns[f"generate {name}"] - prng,
            ns[f"format {name}"], ns[f"format cold {name}"],
        )
        for name in configs
    }


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
