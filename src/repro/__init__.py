"""repro — reproduction of "Just can't get enough: Synthesizing Big Data"
(Rabl et al., SIGMOD 2015).

Two systems in one library:

* **PDGF** — a deterministic, fully parallel data generator: hierarchical
  seeding over xorshift PRNGs, stackable field value generators,
  recomputed references, a work-package scheduler, and CSV/JSON/XML/SQL
  output (:mod:`repro.engine`, :mod:`repro.generators`,
  :mod:`repro.scheduler`, :mod:`repro.output`).
* **DBSynth** — automatic model extraction from an existing database:
  schema introspection, statistical profiling, dictionary and Markov
  chain construction, a rule engine for generator selection, schema
  translation, loading, and fidelity verification (:mod:`repro.core`).

Quickstart — slicing (the data-as-a-service view)::

    from repro import Dataset

    ds = Dataset.from_suite("tpch", scale_factor=0.01)
    ds.tables                                   # {'nation': 25, ...}
    ds.slice("nation", 0, 5)                    # rows of Python values
    ds.slice("nation", 0, 5, format="csv")      # encoded bytes, any
                                                # registered format

    # the same slices over HTTP (byte-identical to the above):
    #   dbsynth serve --suite tpch --sf 0.01 --port 8080
    #   curl localhost:8080/table/nation/rows/0-5?format=csv

Quickstart — batch generation::

    from repro import GenerationEngine, OutputConfig, generate
    from repro.suites.tpch import tpch_schema

    schema = tpch_schema(scale_factor=0.01)
    engine = GenerationEngine(schema)
    report = generate(engine, OutputConfig(kind="file", directory="out"), workers=4)
    print(report.rows, "rows at", report.mb_per_second, "MB/s")

Both views compute every cell from the same seed hierarchy, so a served
slice is byte-identical to the matching range of a batch-generated file.
"""

from repro.api import Dataset, bound_engine, clear_engine_cache, engine_cache_info
from repro.engine import DEFAULT_GENERATION_BLOCK, BoundTable, GenerationEngine
from repro.exceptions import (
    AdapterError,
    ConfigError,
    ExtractionError,
    FormulaError,
    GenerationError,
    ModelError,
    OutputError,
    PropertyError,
    ReproError,
    SchedulingError,
    TransientError,
)
from repro.generators import ArtifactStore
from repro.generators.base import BindContext, GenerationContext, Generator
from repro.model import Field, GeneratorSpec, PropertySet, Schema, Table
from repro.output.config import OutputConfig
from repro.output.formats import (
    FormatSpec,
    format_spec,
    known_formats,
    register_format,
)
from repro import obs
from repro import resilience
from repro.resilience import RetryPolicy, RunManifest
from repro.scheduler import (
    ClusterScheduler,
    ProgressMonitor,
    RunReport,
    Scheduler,
    TableReport,
    generate,
)
from repro.scheduler.work import DEFAULT_PACKAGE_SIZE

__version__ = "7.0.0"

__all__ = [
    "Dataset",
    "bound_engine",
    "clear_engine_cache",
    "engine_cache_info",
    "FormatSpec",
    "format_spec",
    "known_formats",
    "register_format",
    "BoundTable",
    "DEFAULT_GENERATION_BLOCK",
    "DEFAULT_PACKAGE_SIZE",
    "GenerationEngine",
    "BindContext",
    "GenerationContext",
    "Generator",
    "AdapterError",
    "ConfigError",
    "ExtractionError",
    "FormulaError",
    "GenerationError",
    "ModelError",
    "OutputError",
    "PropertyError",
    "ReproError",
    "SchedulingError",
    "TransientError",
    "ArtifactStore",
    "Field",
    "GeneratorSpec",
    "PropertySet",
    "Schema",
    "Table",
    "OutputConfig",
    "ClusterScheduler",
    "ProgressMonitor",
    "RunReport",
    "Scheduler",
    "TableReport",
    "generate",
    "obs",
    "resilience",
    "RetryPolicy",
    "RunManifest",
    "__version__",
]
