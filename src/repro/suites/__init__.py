"""Benchmark suites: TPC-H, SSB, BigBench-like, and the IMDb-like demo DB."""

from __future__ import annotations

import importlib

from repro.exceptions import GenerationError
from repro.model.artifacts import ArtifactStore
from repro.model.schema import Schema

#: The suites that are generation models (``--suite``, ``Dataset.from_suite``).
SUITE_NAMES = ("tpch", "ssb", "bigbench")


def _suite(name: str):
    if name not in SUITE_NAMES:
        raise GenerationError(
            f"unknown suite {name!r} (expected {', '.join(SUITE_NAMES)})"
        )
    return importlib.import_module(f"repro.suites.{name}")


def suite_schema(name: str, scale_factor: float) -> Schema:
    """The schema of a built-in suite model, without its artifacts or
    plug-in generators: all that describing the model (its DDL) reads."""
    return getattr(_suite(name), f"{name}_schema")(scale_factor)


def suite_model(name: str, scale_factor: float) -> tuple[Schema, ArtifactStore]:
    """Schema and artifacts of a built-in suite model — what binding it
    needs. A suite's package is imported only when it is asked for
    (TPC-H alone trains a chain and registers a plug-in generator)."""
    artifacts = getattr(_suite(name), f"{name}_artifacts", ArtifactStore)
    return suite_schema(name, scale_factor), artifacts()
