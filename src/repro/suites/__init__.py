"""Benchmark suites: TPC-H, SSB, BigBench-like, and the IMDb-like demo DB."""

from __future__ import annotations

import importlib

from repro.exceptions import GenerationError
from repro.model.artifacts import ArtifactStore
from repro.model.schema import Schema

#: The suites that are generation models (``--suite``, ``Dataset.from_suite``).
SUITE_NAMES = ("tpch", "ssb", "bigbench")


def suite_model(name: str, scale_factor: float) -> tuple[Schema, ArtifactStore]:
    """Schema and artifacts of a built-in suite model. A suite's package
    is imported only when it is asked for (TPC-H alone trains a chain)."""
    if name not in SUITE_NAMES:
        raise GenerationError(
            f"unknown suite {name!r} (expected {', '.join(SUITE_NAMES)})"
        )
    module = importlib.import_module(f"repro.suites.{name}")
    artifacts = getattr(module, f"{name}_artifacts", ArtifactStore)
    return getattr(module, f"{name}_schema")(scale_factor), artifacts()
