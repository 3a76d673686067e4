"""TPC-H suite: PDGF model, DBGen-style baseline, validation queries."""

from repro._lazy import lazy_names
from repro.suites.tpch.data import BASE_CARDINALITIES, scaled_size
from repro.suites.tpch.schema import tpch_artifacts, tpch_schema

__all__ = [
    "BASE_CARDINALITIES",
    "scaled_size",
    "DbgenBaseline",
    "ALL_QUERIES",
    "tpch_artifacts",
    "tpch_schema",
]

#: the DBGen baseline pulls in the output sinks and the text corpus,
#: which the model itself does not need
__getattr__, __dir__ = lazy_names(__name__, {
    "DbgenBaseline": "repro.suites.tpch.dbgen",
    "ALL_QUERIES": "repro.suites.tpch.queries",
})
