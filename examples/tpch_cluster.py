"""TPC-H generation: formats, parallel workers, a 4-node cluster.

Shows the benchmark-kit side of PDGF:

1. generate the TPC-H data set (the paper's TPC-H-subcommittee-reviewed
   model) in CSV and JSON;
2. run the same model on the 4-node cluster runtime (one process per
   node, work stealing on), then show that four coordinator-free
   ``run_node`` shares concatenate to exactly the single-node run;
3. time the DBGen-style baseline against PDGF (the paper's Figure 6).

Run: ``python examples/tpch_cluster.py``
"""

from __future__ import annotations

import tempfile
import time

from repro import GenerationEngine, OutputConfig, generate
from repro.output.sinks import CallbackSink
from repro.scheduler import ClusterScheduler, run_node
from repro.suites.tpch import DbgenBaseline, tpch_artifacts, tpch_schema

SCALE_FACTOR = 0.002


def main() -> None:
    schema = tpch_schema(SCALE_FACTOR)
    engine = GenerationEngine(schema, tpch_artifacts())
    print(f"== TPC-H at SF {SCALE_FACTOR}: {engine.sizes} ==")

    with tempfile.TemporaryDirectory() as directory:
        csv_out = OutputConfig(kind="file", format="csv", directory=directory)
        report = generate(engine, csv_out, workers=4)
        print(f"  CSV: {report.rows:,} rows at {report.mb_per_second:.2f} MB/s")
        with open(csv_out.table_path("lineitem")) as handle:
            print("  lineitem sample:", handle.readline().strip()[:100])

        json_out = OutputConfig(kind="file", format="json", directory=directory)
        generate(engine, json_out, tables=["nation"])
        with open(json_out.table_path("nation")) as handle:
            print("  JSON sample:   ", handle.readline().strip()[:100])

    print("\n== shared-nothing cluster (4 node processes) ==")
    cluster = ClusterScheduler(
        schema, tpch_artifacts(), output=OutputConfig(kind="null")
    ).run(nodes=4)
    print(f"  cluster throughput {cluster.mb_per_second:.2f} MB/s "
          f"(makespan {cluster.seconds:.3f}s, {cluster.steals} steals)")
    for node in cluster.nodes:
        print(f"    node {node.node}: {node.rows:,} rows in {node.seconds:.3f}s")
    # the same RunReport a single-node run returns: per-table breakdown too
    largest = max(cluster.tables, key=lambda table: table.rows)
    print(f"    largest table: {largest.name}, {largest.rows:,} rows, "
          f"{largest.bytes_written / 1048576:.2f} MiB")

    # Static node shares need no runtime at all: run each in isolation
    # and the outputs concatenate to exactly the single-node data set.
    single = OutputConfig(kind="memory")
    generate(GenerationEngine(schema, tpch_artifacts()), single)
    parts = []
    for node in range(4):
        config = OutputConfig(kind="memory")
        run_node(schema, 4, node, config, tpch_artifacts())
        parts.append(config.memory_output("orders"))
    assert "".join(parts) == single.memory_output("orders")
    print("  node outputs concatenate bit-identically to the single run")

    print("\n== DBGen baseline vs PDGF (paper Figure 6, single stream) ==")
    baseline = DbgenBaseline(SCALE_FACTOR)
    start = time.perf_counter()
    sizes: list[int] = []  # .tbl lines are ASCII: characters == bytes
    sink = CallbackSink(lambda chunk: sizes.append(len(chunk)))
    for table in baseline.TABLES:
        baseline.generate_table(table, sink)
    dbgen_bytes = sum(sizes)
    dbgen_seconds = time.perf_counter() - start

    start = time.perf_counter()
    pdgf_report = generate(
        GenerationEngine(schema, tpch_artifacts()), OutputConfig(kind="null")
    )
    pdgf_seconds = time.perf_counter() - start
    print(f"  DBGen: {dbgen_bytes / 1048576 / dbgen_seconds:6.2f} MB/s "
          f"(hard-coded, sequential, single format)")
    print(f"  PDGF:  {pdgf_report.bytes_written / 1048576 / pdgf_seconds:6.2f} MB/s "
          f"(fully generic, seed-addressed, any format)")
    print("  -> same order of performance, as the paper reports")


if __name__ == "__main__":
    main()
