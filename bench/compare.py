#!/usr/bin/env python3
"""Compare two sets of benchmark runs, or show one set's steadiness.

    python3 bench/compare.py A.jsonl [B.jsonl]

A set is the file ``bench/run.py --out FILE`` appends to: one line per
workload run, ideally ten runs per workload, each with another seed.
With two sets (A = parent, B = change) it prints, per workload and
end-to-end metric, both medians, the ratio B/A, the regression bound
from ``BENCHMARK.json`` and a verdict:

* ``ok``         — B's median is no worse than A's by more than the bound;
* ``worse``      — it is (exit status 1);
* ``unresolved`` — the run-to-run spread (quartile distance over the
  median, of either set) is wider than the bound, so the difference
  cannot be told from noise — unless every run of one set beats every
  run of the other, which settles it.

The error share (operations failed / attempted) is compared too; any
increase is ``worse``. With one set it prints each metric's spread next
to a third of its bound, the steadiness target.
"""

from __future__ import annotations

import json
import os
import sys

import stats

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path: str) -> dict[str, list[dict]]:
    """``{workload: [end-to-end run records]}`` of one result file."""
    runs: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            if not record["trace"]:
                runs.setdefault(record["workload"], []).append(record)
    return runs


def metric_values(runs: list[dict], metric: str) -> list[float]:
    return [run["metrics"][metric]["value"] for run in runs]


def error_share(runs: list[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / max(attempted, 1)


def verdict(
    a: list[float], b: list[float], better: str, bound: float,
    gate_spread: bool = True,
) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (stats.median(b) - stats.median(a)) / abs(stats.median(a))
    spread = max(stats.quartile_spread(a), stats.quartile_spread(b))
    if gate_spread and spread > bound:
        if all(sign * y < sign * x for x in a for y in b):
            return "ok"  # every run of B beats every run of A
        if worse_by > bound and all(sign * y > sign * x for x in a for y in b):
            return "worse"
        return "unresolved"
    return "worse" if worse_by > bound else "ok"


def compare(declared: list[dict], a_runs: dict, b_runs: dict) -> int:
    worse = 0
    print(
        f"{'workload':<16} {'metric':<18} {'A median':>12} {'B median':>12} "
        f"{'B/A':>7} {'bound':>6} {'spread':>7}  verdict"
    )
    for workload in a_runs:
        if workload not in b_runs:
            print(f"{workload:<16} missing from the second set")
            worse += 1
            continue
        for entry in declared:
            a = metric_values(a_runs[workload], entry["name"])
            b = metric_values(b_runs[workload], entry["name"])
            # set-up is a few short commands: judged on its median alone
            result = verdict(
                a, b, entry["better"], entry["bound"],
                gate_spread=entry["name"] != "setup_s",
            )
            worse += result == "worse"
            spread = max(stats.quartile_spread(a), stats.quartile_spread(b))
            print(
                f"{workload:<16} {entry['name']:<18} {stats.median(a):>12.5g} "
                f"{stats.median(b):>12.5g} {stats.median(b) / stats.median(a):>7.3f} "
                f"{entry['bound']:>6.0%} {spread:>7.1%}  {result}"
            )
        share_a = error_share(a_runs[workload])
        share_b = error_share(b_runs[workload])
        result = "worse" if share_b > share_a else "ok"
        worse += result == "worse"
        print(
            f"{workload:<16} {'error_share':<18} {share_a:>12.5g} "
            f"{share_b:>12.5g} {'':>7} {'0%':>6} {'':>7}  {result}"
        )
    return 1 if worse else 0


def steadiness(declared: list[dict], runs: dict) -> int:
    print(
        f"{'workload':<16} {'metric':<18} {'runs':>5} {'median':>12} "
        f"{'spread':>7} {'bound/3':>8}  steady"
    )
    unsteady = 0
    for workload, records in runs.items():
        for entry in declared:
            values = metric_values(records, entry["name"])
            spread = stats.quartile_spread(values)
            # set-up time is gated on its median only, not on its spread
            steady = entry["name"] == "setup_s" or spread <= entry["bound"] / 3
            unsteady += not steady
            print(
                f"{workload:<16} {entry['name']:<18} {len(values):>5} "
                f"{stats.median(values):>12.5g} {spread:>7.1%} "
                f"{entry['bound'] / 3:>8.1%}  {'yes' if steady else 'NO'}"
            )
        print(f"{workload:<16} {'error_share':<18} {len(records):>5} "
              f"{error_share(records):>12.5g}")
    return 1 if unsteady else 0


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)["end_to_end"]
    if len(argv) == 1:
        return steadiness(declared, load_runs(argv[0]))
    return compare(declared, load_runs(argv[0]), load_runs(argv[1]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
