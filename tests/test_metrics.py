"""Tests for the throughput helper (repro.obs.timing)."""

from __future__ import annotations

from repro.obs import throughput_mb_per_s


class TestThroughput:
    def test_mb_per_second(self):
        assert throughput_mb_per_s(1024 * 1024, 1.0) == 1.0
        assert throughput_mb_per_s(1024 * 1024, 0.5) == 2.0

    def test_zero_seconds(self):
        assert throughput_mb_per_s(100, 0.0) == 0.0
