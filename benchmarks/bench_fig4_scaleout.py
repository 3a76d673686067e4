"""Figure 4 — PDGF BigBench scale-out performance.

Paper: generating a BigBench data set on 1..24 nodes shows *linear
throughput scaling* in the node count (left panel: MB/s up and to the
right; right panel: duration ~ 1/nodes).

Simulation note: PDGF nodes are shared-nothing and never communicate —
each node's share is a pure function of (model, node index, node count).
The cluster's makespan is therefore exactly ``max`` over the per-node
durations, which we can measure *honestly on one machine* by running
each node's share in isolation and composing. The primary series below
does that for 1..24 simulated nodes (``run_node`` per node, makespan =
max over nodes).

Reproduction targets: cluster throughput grows ~linearly with nodes
(paper's left panel), per-cluster duration shrinks ~1/nodes (right
panel), and every node generates a disjoint, exact share of the data.

A second, truly parallel series runs the cluster runtime (one OS
process per node, parent-side dispatch and work stealing) so the
coordination overhead it adds over the composed estimate is measured,
not assumed: up to the host's core count it is a real speed-up, past it
the nodes share cores and the number to read is how little is lost.
(Byte-identity of the merged output, dead-node recovery and stealing
are tier-1's: ``tests/test_cluster.py``.)
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.output.config import OutputConfig
from repro.scheduler import ClusterScheduler
from repro.suites.bigbench import bigbench_artifacts, bigbench_schema

from conftest import assert_near_linear, bench_sf, record, simulated_cluster

SERIES = "Figure 4 (BigBench scale-out): nodes | cluster MB/s | makespan s"
_CPUS = multiprocessing.cpu_count()
NODE_COUNTS = [1, 2, 4, 8, 16, 24]
DISTRIBUTED_NODE_COUNTS = sorted({1, 2, 4} | {n for n in (8,) if n <= _CPUS})

_simulated: dict[int, float] = {}


@pytest.fixture(scope="module")
def schema():
    # Enough per-node work that a 24-way split still runs ~50 ms shares;
    # tiny shares drown in scheduler jitter (makespan = max over nodes,
    # so a single noisy node caps the whole measurement).
    return bigbench_schema(bench_sf(0.006))


@pytest.mark.parametrize("nodes", NODE_COUNTS)
def test_scaleout_simulated_cluster(benchmark, schema, nodes):
    """Per-node shares run in isolation; makespan = max(node durations)
    over each node's best of five repetitions."""
    result = benchmark.pedantic(
        simulated_cluster, args=(schema, bigbench_artifacts(), nodes),
        rounds=1, iterations=1,
    )
    _simulated[nodes] = result.mb_per_second
    record(SERIES, (
        f"{nodes} (simulated)", round(result.mb_per_second, 2), round(result.seconds, 3),
    ))
    assert result.rows == sum(schema.sizes().values())


@pytest.mark.parametrize("nodes", DISTRIBUTED_NODE_COUNTS)
def test_scaleout_distributed_cluster(benchmark, schema, nodes):
    """The cluster runtime — the truly parallel series: one OS process
    per node, parent-side dispatch, stealing enabled; best of three
    runs. Past the host's core count this measures the coordination
    overhead, not parallel speedup."""
    scheduler = ClusterScheduler(
        schema, bigbench_artifacts(), output=OutputConfig(kind="null")
    )
    result = benchmark.pedantic(
        scheduler.run, args=(nodes,), rounds=3, iterations=1, warmup_rounds=0,
    )
    seconds = benchmark.stats.stats.min
    record(SERIES, (
        f"{nodes} (cluster runtime)",
        round(result.bytes_written / 1048576 / seconds, 2), round(seconds, 3),
        f"{result.steals} steals",
    ))
    assert result.rows == sum(schema.sizes().values())


def test_scaling_is_near_linear(benchmark):
    """The figure's claim: linear throughput scaling in node count."""
    if len(_simulated) < len(NODE_COUNTS):
        pytest.skip("run after the parametrized measurements")

    def check():
        assert_near_linear(_simulated)
        record(SERIES, (
            "speedup@24-node-sim",
            round(_simulated[24] / _simulated[1], 1), "x over 1 node",
        ))

    benchmark.pedantic(check, rounds=1, iterations=1)
