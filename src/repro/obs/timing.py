"""Throughput in the paper's unit (MB/s, Figures 4-6).

Stopwatches live in :mod:`repro.obs.trace` (``timed`` / ``Stopwatch``);
per-value costs are measured by ``bench/`` on the block path.
"""

from __future__ import annotations


def throughput_mb_per_s(bytes_written: int, seconds: float) -> float:
    if seconds <= 0:
        return 0.0
    return bytes_written / (1024 * 1024) / seconds
