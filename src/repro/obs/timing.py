"""Measurement utilities shared by the benchmark harness.

The paper's evaluation reports two kinds of numbers: throughput (MB/s,
Figures 4-6) and per-value latency in nanoseconds (Figures 7-9). These
helpers keep the methodology in one place: wall-clock timers, repeated
per-value micro-timing with warmup, and simple summary statistics.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable, Iterable


@dataclass(frozen=True)
class LatencyStats:
    """Summary of a per-value latency measurement, in nanoseconds."""

    mean_ns: float
    median_ns: float
    stdev_ns: float
    iterations: int

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"{self.mean_ns:8.0f} ns (median {self.median_ns:.0f}, n={self.iterations})"


class Timer:
    """Context-manager wall clock."""

    def __enter__(self) -> "Timer":
        self.seconds = 0.0
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.seconds = time.perf_counter() - self._start


def time_call(func: Callable[[], object]) -> float:
    """Seconds taken by one call."""
    start = time.perf_counter()
    func()
    return time.perf_counter() - start


def per_value_latency(
    func: Callable[[], object],
    batch: int = 10_000,
    repeats: int = 5,
    warmup: int = 1_000,
) -> LatencyStats:
    """Measure the mean per-call latency of *func* in nanoseconds.

    Runs ``warmup`` unmeasured calls, then ``repeats`` batches of
    ``batch`` calls, reporting the per-call mean across batches. This is
    the single-threaded "per value overhead" methodology of the paper's
    Figures 7-9.
    """
    for _ in range(warmup):
        func()
    samples: list[float] = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        for _ in range(batch):
            func()
        elapsed = time.perf_counter_ns() - start
        samples.append(elapsed / batch)
    return LatencyStats(
        mean_ns=statistics.fmean(samples),
        median_ns=statistics.median(samples),
        stdev_ns=statistics.stdev(samples) if len(samples) > 1 else 0.0,
        iterations=batch * repeats,
    )


def throughput_mb_per_s(bytes_written: int, seconds: float) -> float:
    if seconds <= 0:
        return 0.0
    return bytes_written / (1024 * 1024) / seconds


def speedup_series(durations: Iterable[float]) -> list[float]:
    """Speedup of each duration relative to the first one."""
    values = list(durations)
    if not values or values[0] <= 0:
        return [0.0 for _ in values]
    return [values[0] / v if v > 0 else 0.0 for v in values]
