"""TPC-H suite: PDGF model, DBGen-style baseline, validation queries."""

from repro.suites.tpch.data import BASE_CARDINALITIES, scaled_size
from repro.suites.tpch.dbgen import DbgenBaseline
from repro.suites.tpch.queries import ALL_QUERIES
from repro.suites.tpch.schema import tpch_artifacts, tpch_schema

__all__ = [
    "BASE_CARDINALITIES",
    "scaled_size",
    "DbgenBaseline",
    "ALL_QUERIES",
    "tpch_artifacts",
    "tpch_schema",
]
