"""Order statistics shared by the runner, the comparer and the tests."""

from __future__ import annotations

import math
import statistics


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def percentile(values: list[float], p: float) -> float:
    """The *p*-th percentile (0-100), nearest-rank.

    Nearest-rank returns a value that was actually measured, so a p95
    over 500 latencies is the 475th smallest one and has 25 samples
    beyond it; interpolation would invent a latency nobody waited.
    """
    if not values:
        raise ValueError("percentile of no values")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile {p} outside [0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return float(ordered[rank - 1])


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median — the steadiness figure the benchmark contract gates on."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = median(values)
    return (q3 - q1) / abs(middle) if middle else math.inf


def summarize(values: list[float]) -> dict:
    """``{median, min, max, n}`` of one metric's samples."""
    return {
        "median": median(values),
        "min": float(min(values)),
        "max": float(max(values)),
        "n": len(values),
    }
