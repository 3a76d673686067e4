"""DBSynth — the paper's primary contribution.

Automatic model extraction from an existing database: catalog
extraction, statistical profiling, sampling into dictionaries and Markov
chains, rule-based generator selection, schema translation, target
loading, and fidelity verification.
"""

from repro._lazy import lazy_names

#: Every public name and the module that defines it, resolved on first
#: use: ``dbsynth extract`` loads extraction, not loading, fidelity
#: queries or the benchmark driver (nor the engine and schedulers those
#: import).
_PUBLIC = {
    "ExtractedColumn": "repro.core.extraction",
    "ExtractedSchema": "repro.core.extraction",
    "ExtractedTable": "repro.core.extraction",
    "PhaseTimings": "repro.core.extraction",
    "SchemaExtractor": "repro.core.extraction",
    "FidelityChecker": "repro.core.fidelity",
    "FidelityQuery": "repro.core.fidelity",
    "FidelityReport": "repro.core.fidelity",
    "default_queries": "repro.core.fidelity",
    "BenchmarkDriver": "repro.core.driver",
    "DriverReport": "repro.core.driver",
    "QueryExecution": "repro.core.driver",
    "load": "repro.core.loader",
    "BuildOptions": "repro.core.model_builder",
    "BuildResult": "repro.core.model_builder",
    "ColumnDecision": "repro.core.model_builder",
    "ModelBuilder": "repro.core.model_builder",
    "ColumnProfile": "repro.core.profiling",
    "DataProfiler": "repro.core.profiling",
    "SchemaProfile": "repro.core.profiling",
    "Aggregate": "repro.core.queries",
    "Op": "repro.core.queries",
    "ParameterSpec": "repro.core.queries",
    "Predicate": "repro.core.queries",
    "Query": "repro.core.queries",
    "QueryParameterGenerator": "repro.core.queries",
    "QueryTemplate": "repro.core.queries",
    "VirtualExecutor": "repro.core.queries",
    "DBSynthProject": "repro.core.project",
    "ProjectPaths": "repro.core.project",
    "NameRule": "repro.core.rules",
    "RuleEngine": "repro.core.rules",
    "default_rules": "repro.core.rules",
    "ColumnSampler": "repro.core.sampling",
    "SampleConfig": "repro.core.sampling",
}

__getattr__, __dir__ = lazy_names(__name__, _PUBLIC)

__all__ = list(_PUBLIC)
