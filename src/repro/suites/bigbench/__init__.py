"""BigBench-like retail suite (structured + clickstream + review text)."""

from repro.suites.bigbench.schema import (
    BASE_CARDINALITIES,
    bigbench_artifacts,
    bigbench_schema,
)

__all__ = [
    "BASE_CARDINALITIES",
    "bigbench_artifacts",
    "bigbench_schema",
]
