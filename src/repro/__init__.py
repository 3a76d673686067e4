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

from repro._lazy import lazy_names

#: Every public name and the module that defines it, resolved on first
#: use: ``import repro`` — and every ``repro.*`` import, which runs this
#: file first — pays only for what the caller touches.
_PUBLIC = {
    "Dataset": "repro.api",
    "bound_engine": "repro.api",
    "clear_engine_cache": "repro.api",
    "engine_cache_info": "repro.api",
    "FormatSpec": "repro.output.formats",
    "format_spec": "repro.output.formats",
    "known_formats": "repro.output.formats",
    "register_format": "repro.output.formats",
    "BoundTable": "repro.engine",
    "DEFAULT_GENERATION_BLOCK": "repro.engine",
    "DEFAULT_PACKAGE_SIZE": "repro.scheduler.work",
    "GenerationEngine": "repro.engine",
    "BindContext": "repro.generators.base",
    "GenerationContext": "repro.generators.base",
    "Generator": "repro.generators.base",
    "AdapterError": "repro.exceptions",
    "ConfigError": "repro.exceptions",
    "ExtractionError": "repro.exceptions",
    "FormulaError": "repro.exceptions",
    "GenerationError": "repro.exceptions",
    "ModelError": "repro.exceptions",
    "OutputError": "repro.exceptions",
    "PropertyError": "repro.exceptions",
    "ReproError": "repro.exceptions",
    "SchedulingError": "repro.exceptions",
    "ArtifactStore": "repro.generators.base",
    "Field": "repro.model.schema",
    "GeneratorSpec": "repro.model.schema",
    "PropertySet": "repro.model.properties",
    "Schema": "repro.model.schema",
    "Table": "repro.model.schema",
    "OutputConfig": "repro.output.config",
    "ClusterScheduler": "repro.scheduler.cluster",
    "ProgressMonitor": "repro.scheduler.progress",
    "RunReport": "repro.scheduler.scheduler",
    "Scheduler": "repro.scheduler.scheduler",
    "TableReport": "repro.scheduler.scheduler",
    "generate": "repro.scheduler.scheduler",
    "obs": "repro.obs",
    "resilience": "repro.resilience",
    "RunManifest": "repro.resilience.checkpoint",
}

__getattr__, __dir__ = lazy_names(__name__, _PUBLIC)

__version__ = "12.0.0"

__all__ = [*_PUBLIC, "__version__"]
