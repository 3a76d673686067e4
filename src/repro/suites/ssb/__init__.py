"""Star Schema Benchmark suite (with optional skew, per paper ref [19])."""

from repro.suites.ssb.schema import BASE_CARDINALITIES, ssb_schema

__all__ = ["BASE_CARDINALITIES", "ssb_schema"]
