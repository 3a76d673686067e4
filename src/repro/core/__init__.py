"""DBSynth — the paper's primary contribution.

Automatic model extraction from an existing database: catalog
extraction, statistical profiling, sampling into dictionaries and Markov
chains, rule-based generator selection, schema translation, target
loading, and fidelity verification.
"""

from repro.core.extraction import (
    ExtractedColumn,
    ExtractedSchema,
    ExtractedTable,
    PhaseTimings,
    SchemaExtractor,
)
from repro.core.fidelity import (
    FidelityChecker,
    FidelityQuery,
    FidelityReport,
    default_queries,
)
from repro.core.driver import BenchmarkDriver, DriverReport, QueryExecution
from repro.core.loader import load
from repro.core.model_builder import (
    BuildOptions,
    BuildResult,
    ColumnDecision,
    ModelBuilder,
    build_model,
)
from repro.core.profiling import ColumnProfile, DataProfiler, ProfileOptions, SchemaProfile
from repro.core.queries import (
    Aggregate,
    Op,
    ParameterSpec,
    Predicate,
    PredictedValue,
    Query,
    QueryParameterGenerator,
    QueryTemplate,
    VirtualExecutor,
)
from repro.core.project import DBSynthProject, ProjectPaths
from repro.core.rules import NameRule, RuleEngine, default_rules
from repro.core.sampling import ColumnSampler, SampleConfig
from repro.core.translator import SchemaTranslator

__all__ = [
    "ExtractedColumn",
    "ExtractedSchema",
    "ExtractedTable",
    "PhaseTimings",
    "SchemaExtractor",
    "FidelityChecker",
    "FidelityQuery",
    "FidelityReport",
    "default_queries",
    "BenchmarkDriver",
    "DriverReport",
    "QueryExecution",
    "load",
    "BuildOptions",
    "BuildResult",
    "ColumnDecision",
    "ModelBuilder",
    "build_model",
    "ColumnProfile",
    "DataProfiler",
    "ProfileOptions",
    "SchemaProfile",
    "Aggregate",
    "Op",
    "ParameterSpec",
    "Predicate",
    "PredictedValue",
    "Query",
    "QueryParameterGenerator",
    "QueryTemplate",
    "VirtualExecutor",
    "DBSynthProject",
    "ProjectPaths",
    "NameRule",
    "RuleEngine",
    "default_rules",
    "ColumnSampler",
    "SampleConfig",
    "SchemaTranslator",
]
