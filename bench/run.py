#!/usr/bin/env python3
"""The repo benchmark: one command, five workloads.

    python3 bench/run.py [--workload NAME]... [--seed N] [--seconds S]
                         [--trace 0|1] [--quick] [--out FILE]

``--trace 0`` (default) measures the end-to-end metrics through the
program's public surfaces with no tracing anywhere. ``--trace 1`` is the
separate per-layer pass: it re-drives the workload's model in-process,
one public call per layer, under spans recorded by the benchmark's own
code, and reports the per-layer table plus the tracing overhead.

Every metric is printed by name with unit, median, min, max and sample
count, every output is checked, and the last line of standard output is
one JSON object ``{correct, attempted, failed, metrics}`` for the (last)
workload run. ``--out FILE`` appends one JSON line per workload run —
the input of ``bench/compare.py``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time

import layers
import models
import stats
import workloads
from program import REPO_ROOT, SRC_DIR

OUT_DIR = os.path.join(REPO_ROOT, "bench", "out")

#: set-ups per run (the reported ``setup_s`` is their median) and the
#: fewest timed repeats, whatever ``--seconds`` says
SETUP_REPEATS = 3
MIN_REPEATS = 3


def load_declaration() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def measure(workload, seconds: float, setup_repeats: int, min_repeats: int) -> dict:
    """Set up, repeat the fixed work for *seconds*, verify; returns the
    samples of every end-to-end metric."""
    samples: dict[str, list[float]] = {"setup_s": []}
    try:
        for _ in range(setup_repeats):
            workload.teardown()  # the previous set-up's server, if any
            started = time.perf_counter()
            workload.setup()
            samples["setup_s"].append(time.perf_counter() - started)
        durations: list[float] = []
        begun = time.perf_counter()
        while True:
            started = time.perf_counter()
            for name, values in workload.repeat().items():
                samples.setdefault(name, []).extend(values)
            durations.append(time.perf_counter() - started)
            # stop at the repeat boundary nearest to the budget
            spent = time.perf_counter() - begun
            if (
                len(durations) >= min_repeats
                and spent + stats.median(durations) / 2 >= seconds
            ):
                break
        workload.verify()
    finally:
        workload.teardown()
    return samples


def current_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, cwd=REPO_ROOT,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def print_table(name: str, mode: str, units: dict, samples: dict) -> None:
    print(f"== {name} ({mode}) ==")
    print(f"{'metric':<44} {'unit':<8} {'median':>14} {'min':>14} {'max':>14} {'n':>5}")
    for metric, unit in units.items():
        summary = stats.summarize(samples[metric])
        print(
            f"{metric:<44} {unit:<8} {summary['median']:>14.6g} "
            f"{summary['min']:>14.6g} {summary['max']:>14.6g} {summary['n']:>5}"
        )


def run_workload(name: str, args, declaration: dict, work_dir: str) -> dict:
    os.makedirs(work_dir)
    if args.trace:
        sizes = models.QUICK if args.quick else models.TRACED
        declared = declaration["per_layer"]
        samples, checks, info = layers.run(
            name, sizes, args.seed, work_dir,
            trace_path=os.path.join(OUT_DIR, f"trace-{name}.json"),
        )
    else:
        sizes = models.QUICK if args.quick else models.FULL
        declared = declaration["end_to_end"]
        workload = workloads.WORKLOADS[name](sizes, args.seed, work_dir)
        samples = measure(
            workload,
            0.0 if args.quick else args.seconds,
            1 if args.quick else SETUP_REPEATS,
            1 if args.quick else MIN_REPEATS,
        )
        checks, info = workload.checks, workload.info()

    units = {entry["name"]: entry["unit"] for entry in declared}
    if set(samples) != set(units):
        raise SystemExit(
            f"{name}: measured metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(units) - set(samples))}, "
            f"undeclared {sorted(set(samples) - set(units))}"
        )
    print_table(name, "per-layer" if args.trace else "end-to-end", units, samples)
    failed = len(checks.failures)
    print(
        f"operations: {checks.attempted} attempted, {failed} failed "
        f"(error share {failed / max(checks.attempted, 1):.4f})"
    )
    for failure in checks.failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    return {
        "workload": name,
        "trace": args.trace,
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "correct": failed == 0,
        "attempted": max(checks.attempted, 1),
        "failed": failed,
        "metrics": {
            metric: {
                "value": stats.median(samples[metric]),
                "unit": unit,
                "samples": samples[metric],
            }
            for metric, unit in units.items()
        },
        "info": info,
        "env": {
            "commit": current_commit(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", action="append", metavar="NAME",
        help="workload to run (repeatable; default: all five)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="how long the timed repeats of one workload run "
        "(default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help="tiny sizes, one set-up, one repeat (harness self-test)",
    )
    parser.add_argument("--out", metavar="FILE", help="append result lines here")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print(f"no program to measure: {SRC_DIR}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC_DIR)
    declaration = load_declaration()
    if args.seconds is None:
        args.seconds = float(declaration["run_seconds"])
    known = [entry["name"] for entry in declaration["workloads"]]
    names = args.workload or known
    for name in names:
        if name not in known:
            parser.error(f"unknown workload {name!r}; known: {', '.join(known)}")

    run_dir = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(run_dir)
    # temporary files of the program (SQLite sorts, multiprocessing) stay
    # inside the checkout too
    os.environ["TMPDIR"] = os.environ["SQLITE_TMPDIR"] = run_dir
    results = []
    try:
        for name in names:
            results.append(
                run_workload(name, args, declaration, os.path.join(run_dir, name))
            )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            for result in results:
                handle.write(json.dumps(result, sort_keys=True) + "\n")
    for result in results:
        print(json.dumps({
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                metric: {"value": entry["value"], "unit": entry["unit"]}
                for metric, entry in result["metrics"].items()
            },
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
