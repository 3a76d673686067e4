#!/usr/bin/env python
"""Benchmark trend ledger: append smoke results, gate on regressions.

The benchmark suite proves shapes (scale-up rises, batch beats row);
this tool tracks *levels* over time. Each run measures the smoke modes
of the core benchmark families and appends one structured entry to a
JSON ledger (``BENCH_core.json`` by default):

* ``thread_mb_per_s``  — TPC-H generation throughput, thread backend;
* ``process_mb_per_s`` — the same slice on the process backend;
* ``batch_ns_per_value`` — batch fast-path per-value latency over the
  high-volume generator classes (id, long uniform, dictionary);
* ``columnar_mb_per_s`` — columnar CSV throughput on a typed-column
  schema, thread backend (the vectorized block-formatter fast path);
* ``cluster_rows_per_s`` — distributed cluster throughput: a 3-node
  TPC-H run on the real process-per-node runtime (work stealing on,
  null sink), total rows over the cluster makespan.

Every entry records the commit, timestamp, and a machine fingerprint
(platform + CPU count + Python version). The regression gate compares
the fresh measurement against the **best** previously recorded entry
*from the same machine fingerprint* — cross-machine numbers are not
comparable, so a ledger carried between hosts never trips the gate —
and fails (exit 1) when throughput drops, or latency rises, by more
than ``--threshold`` (default 15%).

``--inject-slowdown 0.2`` degrades the measured numbers by 20% before
gating, which is how CI proves the gate actually fires. ``--no-append``
gates without writing, for exactly that kind of dry run.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import subprocess
import sys
import time
from datetime import datetime, timezone

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

LEDGER_VERSION = 1
DEFAULT_LEDGER = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_core.json"
)
DEFAULT_THRESHOLD = 0.15

#: metric name -> direction ("up" = bigger is better)
METRICS = {
    "thread_mb_per_s": "up",
    "process_mb_per_s": "up",
    "batch_ns_per_value": "down",
    "columnar_mb_per_s": "up",
    "cluster_rows_per_s": "up",
}


def machine_fingerprint() -> dict:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": multiprocessing.cpu_count(),
        "python": platform.python_version(),
    }


def current_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


# -- measurements -------------------------------------------------------------


def _tpch_engine(scale_factor: float):
    from repro.engine import GenerationEngine
    from repro.suites.tpch import tpch_artifacts, tpch_schema

    return GenerationEngine(tpch_schema(scale_factor), tpch_artifacts())


def measure_backend_mb_per_s(
    backend: str, scale_factor: float, workers: int, rounds: int
) -> float:
    """Best-of-rounds TPC-H throughput onto the null sink (generation +
    formatting cost, no disk variance)."""
    from repro.output.config import OutputConfig
    from repro.scheduler import generate

    best = 0.0
    for _ in range(rounds):
        engine = _tpch_engine(scale_factor)
        report = generate(
            engine, OutputConfig(kind="null"),
            workers=workers, backend=backend, package_size=2000,
        )
        best = max(best, report.mb_per_second)
    return best


def measure_batch_ns_per_value(rows: int, rounds: int) -> float:
    """Best-of-rounds batch fast-path latency, averaged per value over
    the high-volume generator classes the batch PR holds to >=2x."""
    from repro.engine import GenerationEngine
    from repro.model.schema import Field, GeneratorSpec, Schema, Table

    specs = [
        GeneratorSpec("IdGenerator"),
        GeneratorSpec("LongGenerator", {"min": 1, "max": 10_000_000}),
        GeneratorSpec(
            "DictListGenerator",
            {"values": ["alpha", "beta", "gamma", "delta", "epsilon"],
             "weights": [5, 4, 3, 2, 1]},
        ),
    ]
    schema = Schema("trend", seed=11)
    fields = [
        Field.of(f"f{index}", "TEXT", spec) for index, spec in enumerate(specs)
    ]
    schema.add_table(Table("t", str(rows), fields))
    engine = GenerationEngine(schema)
    bound = engine.bound_table("t")
    values = rows * len(specs)
    best = float("inf")
    for _ in range(rounds):
        ctx = engine.new_context("t")
        started = time.perf_counter_ns()
        bound.generate_rows(0, rows, ctx)
        best = min(best, (time.perf_counter_ns() - started) / values)
    return best


def measure_columnar_mb_per_s(rows: int, rounds: int) -> float:
    """Best-of-rounds columnar CSV throughput (thread backend) on a wide
    typed-column table — every column takes a vectorized formatter path
    (the benchmark schema from ``bench_batch_vs_row``)."""
    from repro.engine import GenerationEngine
    from repro.model.schema import Field, GeneratorSpec, Schema, Table
    from repro.output.config import OutputConfig
    from repro.scheduler import Scheduler

    schema = Schema("trend-columnar", seed=11)
    schema.add_table(Table("w", str(rows), [
        Field.of("w_id", "BIGINT", GeneratorSpec("IdGenerator")),
        Field.of("w_key", "BIGINT", GeneratorSpec(
            "LongGenerator", {"min": 1, "max": 10_000_000}
        )),
        Field.of("w_qty", "BIGINT", GeneratorSpec(
            "LongGenerator", {"min": 1, "max": 50}
        )),
        Field.of("w_money", "DECIMAL(12,2)", GeneratorSpec(
            "DoubleGenerator", {"min": 0.0, "max": 1000.0, "places": 2}
        )),
        Field.of("w_bool", "BOOLEAN", GeneratorSpec(
            "BooleanGenerator", {"true_probability": 0.5}
        )),
        Field.of("w_date", "DATE", GeneratorSpec(
            "DateGenerator", {"min": "1992-01-01", "max": "1998-12-31"}
        )),
        Field.of("w_dict", "VARCHAR(10)", GeneratorSpec(
            "DictListGenerator",
            {"values": ["alpha", "beta", "gamma", "delta", "epsilon"],
             "weights": [5, 4, 3, 2, 1]},
        )),
    ]))
    best = 0.0
    for _ in range(rounds):
        engine = GenerationEngine(schema)
        report = Scheduler(
            engine, OutputConfig(kind="null"),
            workers=1, package_size=10_000, backend="thread",
        ).run()
        best = max(best, report.mb_per_second)
    return best


def measure_cluster_rows_per_s(
    scale_factor: float, nodes: int, rounds: int
) -> float:
    """Best-of-rounds distributed cluster throughput: real node
    processes over the null sink, TPC-H shard per node, stealing on.
    Rows (not MB) because the cluster's unit of reassignable work is the
    row range."""
    from repro.output.config import OutputConfig
    from repro.scheduler import ClusterScheduler
    from repro.suites.tpch import tpch_artifacts, tpch_schema

    best = 0.0
    for _ in range(rounds):
        report = ClusterScheduler(
            tpch_schema(scale_factor), tpch_artifacts(),
            output=OutputConfig(kind="null"), package_size=2000,
        ).run(nodes)
        if report.seconds > 0:
            best = max(best, report.rows / report.seconds)
    return best


def run_measurements(smoke: bool) -> dict[str, float]:
    scale_factor = 0.002 if smoke else 0.01
    rounds = 2 if smoke else 3
    rows = 4096 if smoke else 16384
    workers = min(2 if smoke else 4, multiprocessing.cpu_count())
    return {
        "thread_mb_per_s": round(
            measure_backend_mb_per_s("thread", scale_factor, workers, rounds), 3
        ),
        "process_mb_per_s": round(
            measure_backend_mb_per_s("process", scale_factor, workers, rounds), 3
        ),
        "batch_ns_per_value": round(
            measure_batch_ns_per_value(rows, rounds), 1
        ),
        "columnar_mb_per_s": round(
            measure_columnar_mb_per_s(10_000 if smoke else 40_000, rounds), 3
        ),
        "cluster_rows_per_s": round(
            measure_cluster_rows_per_s(scale_factor, nodes=3, rounds=rounds), 1
        ),
    }


# -- ledger -------------------------------------------------------------------


def load_ledger(path: str) -> dict:
    if not os.path.exists(path):
        return {"version": LEDGER_VERSION, "entries": []}
    with open(path, encoding="utf-8") as handle:
        ledger = json.load(handle)
    if ledger.get("version") != LEDGER_VERSION:
        raise SystemExit(
            f"ledger {path!r} has version {ledger.get('version')!r}, "
            f"this tool writes version {LEDGER_VERSION}"
        )
    return ledger


def append_entry(path: str, ledger: dict, entry: dict) -> None:
    ledger["entries"].append(entry)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(ledger, handle, indent=2, sort_keys=True)
        handle.write("\n")


def best_baseline(
    entries: list[dict], fingerprint: dict, metric: str, direction: str
) -> float | None:
    """The best recorded value of *metric* among same-machine entries."""
    values = [
        entry["results"][metric]
        for entry in entries
        if entry.get("machine") == fingerprint
        and metric in entry.get("results", {})
    ]
    if not values:
        return None
    return max(values) if direction == "up" else min(values)


def gate(
    results: dict[str, float],
    entries: list[dict],
    fingerprint: dict,
    threshold: float,
) -> list[str]:
    """Regression messages (empty = pass)."""
    failures = []
    for metric, direction in METRICS.items():
        baseline = best_baseline(entries, fingerprint, metric, direction)
        if baseline is None or baseline <= 0 or metric not in results:
            continue
        value = results[metric]
        if direction == "up":
            drop = (baseline - value) / baseline
            if drop > threshold:
                failures.append(
                    f"{metric}: {value} is {drop:.1%} below the best "
                    f"recorded baseline {baseline} (threshold {threshold:.0%})"
                )
        else:
            rise = (value - baseline) / baseline
            if rise > threshold:
                failures.append(
                    f"{metric}: {value} is {rise:.1%} above the best "
                    f"recorded baseline {baseline} (threshold {threshold:.0%})"
                )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--ledger", default=os.path.normpath(DEFAULT_LEDGER),
        help="trend ledger path (default BENCH_core.json at the repo root)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small scale factors and fewer rounds (the CI mode)",
    )
    parser.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help="relative regression that fails the gate (default 0.15)",
    )
    parser.add_argument(
        "--inject-slowdown", type=float, default=0.0, metavar="FRAC",
        help="degrade measured results by FRAC before gating "
        "(proves the gate fires; implies --no-append)",
    )
    parser.add_argument(
        "--no-append", action="store_true",
        help="gate against the ledger without appending this run",
    )
    args = parser.parse_args(argv)

    fingerprint = machine_fingerprint()
    results = run_measurements(args.smoke)
    if args.inject_slowdown:
        factor = args.inject_slowdown
        for metric, direction in METRICS.items():
            if metric not in results:
                continue
            if direction == "up":
                results[metric] = round(results[metric] * (1 - factor), 3)
            else:
                results[metric] = round(results[metric] * (1 + factor), 1)
        print(f"injected {factor:.0%} slowdown into all metrics")

    for metric in METRICS:
        if metric in results:
            print(f"{metric}: {results[metric]}")

    ledger = load_ledger(args.ledger)
    failures = gate(results, ledger["entries"], fingerprint, args.threshold)
    if failures:
        for failure in failures:
            print(f"REGRESSION {failure}", file=sys.stderr)
        return 1

    if not args.no_append and not args.inject_slowdown:
        entry = {
            "commit": current_commit(),
            "timestamp": datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            ),
            "machine": fingerprint,
            "smoke": args.smoke,
            "results": results,
        }
        append_entry(args.ledger, ledger, entry)
        print(f"appended entry {len(ledger['entries'])} to {args.ledger}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
