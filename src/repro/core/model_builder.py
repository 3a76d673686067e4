"""Model construction: extraction + profiles + rules → a PDGF model.

This implements paper §3's generator-choice policy:

1. referential integrity first — a foreign key column always becomes a
   reference generator, independent of its type;
2. numeric primary keys / key-named columns become ID generators;
3. sampled text columns become dictionaries (single-word) or Markov
   chains (free text);
4. otherwise the data type picks a number/date/boolean generator with
   extracted min/max bounds ("all boundaries for numerical values and
   dates are stored in properties");
5. unsampled text columns fall back to the column-name rule engine's
   high-level generators, then to random strings;
6. columns with observed NULLs get a NULL wrapper with the extracted
   probability.

Table sizes become ``<table>_size = <rows> * ${SF}`` properties so the
whole model rescales from a single scale-factor override.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.dictionary_builder import DictionaryBuilder, dictionary_artifact_name
from repro.core.extraction import ExtractedColumn, ExtractedSchema, ExtractedTable
from repro.core.markov_builder import MarkovBuilder, markov_artifact_name
from repro.core.profiling import ColumnProfile, SchemaProfile
from repro.core.rules import RuleEngine
from repro.core.sampling import SampleConfig
from repro.db.adapter import DatabaseAdapter
from repro.exceptions import ExtractionError
from repro.generators.base import ArtifactStore
from repro.model.datatypes import DataType, TypeFamily, parse_type
from repro.obs import active_metrics, span
from repro.model.schema import Field, GeneratorSpec, Schema, Table
from repro.text.tokenizer import classify_values

_DICTIONARY_MAX_DISTINCT = 1000


@dataclass
class BuildOptions:
    """Knobs of a model-building run."""

    sample_data: bool = True
    sample_config: SampleConfig = field(default_factory=SampleConfig)
    markov_order: int = 1
    seed: int = 123456789
    null_threshold: float = 1e-9
    bounds_as_properties: bool = True
    # Histogram-based numeric synthesis (RSGen-style, paper §6): when on,
    # numeric columns whose equi-depth quantiles deviate from uniform get
    # a HistogramGenerator instead of a uniform range generator.
    use_histograms: bool = False
    histogram_buckets: int = 10
    # Equi-depth bucket width ratio beyond which a column counts as
    # skewed (uniform data gives ~equal widths).
    histogram_skew_ratio: float = 3.0


@dataclass
class ColumnDecision:
    """Audit record: why a column got its generator (shown by the CLI)."""

    table: str
    column: str
    generator: str
    reason: str


@dataclass
class BuildResult:
    """A complete DBSynth model: schema + artifacts + audit trail."""

    schema: Schema
    artifacts: ArtifactStore
    decisions: list[ColumnDecision] = field(default_factory=list)

    def decision_for(self, table: str, column: str) -> ColumnDecision:
        for decision in self.decisions:
            if decision.table == table and decision.column == column:
                return decision
        raise ExtractionError(f"no decision recorded for {table}.{column}")


class ModelBuilder:
    """Builds a generation model from an extracted + profiled schema."""

    def __init__(
        self,
        adapter: DatabaseAdapter,
        options: BuildOptions | None = None,
        rules: RuleEngine | None = None,
    ) -> None:
        self.adapter = adapter
        self.options = options or BuildOptions()
        self.rules = rules or RuleEngine()
        self._dictionary_builder = DictionaryBuilder(
            adapter, self.options.sample_config, self.options.seed
        )
        self._markov_builder = MarkovBuilder(
            adapter,
            self.options.sample_config,
            self.options.markov_order,
            self.options.seed,
        )

    def build(
        self,
        extracted: ExtractedSchema,
        profile: SchemaProfile | None = None,
        name: str | None = None,
    ) -> BuildResult:
        """Assemble the model. ``profile`` may be None for a pure
        catalog-driven model (the paper's "basic schema extraction")."""
        schema = Schema(name=name or "dbsynth_model", seed=self.options.seed)
        schema.properties.define("SF", "1")
        artifacts = ArtifactStore()
        result = BuildResult(schema=schema, artifacts=artifacts)

        with span("model.build", tables=len(extracted.tables)) as build_span:
            for table in extracted.tables:
                rows = table.row_count if table.row_count is not None else 1000
                size_property = f"{table.name}_size"
                schema.properties.define(size_property, f"{rows} * ${{SF}}")
                model_table = Table(table.name, f"${{{size_property}}}")
                with span("model.table", table=table.name, columns=len(table.columns)):
                    for column in table.columns:
                        model_table.fields.append(
                            self._build_field(extracted, table, column, profile, result)
                        )
                schema.add_table(model_table)
            build_span.set(columns=len(result.decisions))

        registry = active_metrics()
        if registry is not None:
            chosen = registry.counter(
                "model_columns_total", "columns modeled, by chosen generator"
            )
            for decision in result.decisions:
                chosen.inc(generator=decision.generator)
        return result

    # -- per-column decision -------------------------------------------------

    def _build_field(
        self,
        extracted: ExtractedSchema,
        table: ExtractedTable,
        column: ExtractedColumn,
        profile: SchemaProfile | None,
        result: BuildResult,
    ) -> Field:
        dtype = self._parse_type(column)
        stats = profile.get(table.name, column.name) if profile else None
        spec, reason = self._choose_generator(
            extracted, table, column, dtype, stats, result
        )

        null_fraction = stats.null_fraction if stats else None
        if (
            null_fraction is not None
            and null_fraction > self.options.null_threshold
            and spec.name != "StaticValueGenerator"
        ):
            spec = GeneratorSpec(
                "NullGenerator", {"probability": round(null_fraction, 6)}, [spec]
            )
            reason += f"; NULL wrapper p={null_fraction:.4f}"

        result.decisions.append(
            ColumnDecision(table.name, column.name, spec.name, reason)
        )
        return Field(
            name=column.name,
            dtype=dtype,
            generator=spec,
            primary=column.info.primary,
            nullable=column.info.nullable,
            size=dtype.length,
        )

    @staticmethod
    def _parse_type(column: ExtractedColumn) -> DataType:
        try:
            return parse_type(column.info.type_text)
        except Exception:
            # Unknown catalog type: treat as free text (the most general
            # family); the decision trail records the original spelling.
            return parse_type("TEXT")

    def _choose_generator(
        self,
        extracted: ExtractedSchema,
        table: ExtractedTable,
        column: ExtractedColumn,
        dtype: DataType,
        stats: ColumnProfile | None,
        result: BuildResult,
    ) -> tuple[GeneratorSpec, str]:
        family = dtype.family

        # 1. referential integrity beats everything.
        if column.foreign_key is not None:
            fk = column.foreign_key
            return (
                GeneratorSpec(
                    "DefaultReferenceGenerator",
                    {"table": fk.ref_table, "field": fk.ref_column},
                ),
                f"foreign key to {fk.ref_table}.{fk.ref_column}",
            )

        # 2. constant columns (profiling told us so).
        if stats is not None and stats.is_constant and stats.min_value is not None:
            return (
                GeneratorSpec("StaticValueGenerator", {"constant": stats.min_value}),
                "single distinct value in source",
            )

        # 3. keys: numeric primary key or key-named numeric column.
        if family is TypeFamily.INTEGER:
            rule_spec = self.rules.match(column.name, family)
            if column.info.primary or (
                rule_spec is not None and rule_spec.name == "IdGenerator"
            ):
                why = "primary key" if column.info.primary else "key/id column name"
                return GeneratorSpec("IdGenerator"), why

        # 4. sampled text: dictionary or Markov chain.
        if family is TypeFamily.TEXT and self.options.sample_data:
            return self._text_from_sample(extracted, table, column, stats, result)

        # 5. type-driven numeric/date/boolean generators with bounds.
        if family is TypeFamily.INTEGER:
            return self._integer_generator(table, column, stats, result)
        if family in (TypeFamily.FLOAT, TypeFamily.DECIMAL):
            return self._double_generator(table, column, dtype, stats, result)
        if family in (TypeFamily.DATE, TypeFamily.TIMESTAMP, TypeFamily.TIME):
            return self._date_generator(column, dtype, stats)
        if family is TypeFamily.BOOLEAN:
            return GeneratorSpec("BooleanGenerator"), "boolean type"

        # 6. unsampled text: name rules, then random strings.
        rule_spec = self.rules.match(column.name, family)
        if rule_spec is not None and rule_spec.name != "IdGenerator":
            return rule_spec, "column-name rule (no sampling)"
        return (
            GeneratorSpec("RandomStringGenerator"),
            "fallback random string",
        )

    def _text_from_sample(
        self,
        extracted: ExtractedSchema,
        table: ExtractedTable,
        column: ExtractedColumn,
        stats: ColumnProfile | None,
        result: BuildResult,
    ) -> tuple[GeneratorSpec, str]:
        try:
            probe = self.adapter.sample_column(
                table.name, column.name, fraction=1.0, limit=200, strategy="first"
            )
        except Exception as exc:  # adapter-level failure → fall back
            rule_spec = self.rules.match(column.name, TypeFamily.TEXT)
            if rule_spec is not None:
                return rule_spec, f"sampling failed ({exc}); column-name rule"
            return GeneratorSpec("RandomStringGenerator"), f"sampling failed ({exc})"
        texts = [str(v) for v in probe if v is not None]
        if not texts:
            rule_spec = self.rules.match(column.name, TypeFamily.TEXT)
            if rule_spec is not None:
                return rule_spec, "empty column; column-name rule"
            return GeneratorSpec("RandomStringGenerator"), "empty column; fallback"

        kind = classify_values(texts)
        distinct = stats.distinct_count if stats else None
        if kind == "dictionary" and (
            distinct is None or distinct <= _DICTIONARY_MAX_DISTINCT
        ):
            self._dictionary_builder.build(
                extracted, table.name, column.name, result.artifacts
            )
            return (
                GeneratorSpec(
                    "DictListGenerator",
                    {"dictionary": dictionary_artifact_name(table.name, column.name)},
                ),
                f"single-word text, {distinct if distinct is not None else '?'} distinct",
            )
        built = self._markov_builder.build(
            extracted, table.name, column.name, result.artifacts
        )
        return (
            GeneratorSpec(
                "MarkovChainGenerator",
                {
                    "model": markov_artifact_name(table.name, column.name),
                    "min": built.min_words,
                    "max": built.max_words,
                },
            ),
            f"free text ({built.vocabulary_size} words, "
            f"{built.start_states} starting states)",
        )

    def _bound_params(
        self,
        table: ExtractedTable,
        column: ExtractedColumn,
        stats: ColumnProfile | None,
        result: BuildResult,
        default_min: object,
        default_max: object,
        numeric: bool = True,
    ) -> dict[str, object]:
        """min/max params, registered as model properties when numeric."""
        min_value = stats.min_value if stats and stats.min_value is not None else default_min
        max_value = stats.max_value if stats and stats.max_value is not None else default_max
        if not numeric or not self.options.bounds_as_properties:
            return {"min": min_value, "max": max_value}
        properties = result.schema.properties
        min_prop = f"{table.name}_{column.name}_min"
        max_prop = f"{table.name}_{column.name}_max"
        properties.define(min_prop, str(min_value))
        properties.define(max_prop, str(max_value))
        return {"min": f"${{{min_prop}}}", "max": f"${{{max_prop}}}"}

    def _histogram_spec(
        self,
        table: ExtractedTable,
        column: ExtractedColumn,
        as_int: bool,
    ) -> GeneratorSpec | None:
        """A HistogramGenerator spec when the column is usefully skewed."""
        if not self.options.use_histograms:
            return None
        try:
            edges = self.adapter.numeric_quantiles(
                table.name, column.name, self.options.histogram_buckets
            )
        except Exception:
            return None
        widths = [b - a for a, b in zip(edges, edges[1:])]
        positive = [w for w in widths if w > 0]
        if len(positive) < 2:
            return None
        if max(positive) / min(positive) < self.options.histogram_skew_ratio:
            return None  # close enough to uniform; keep the simple model
        params: dict[str, object] = {"bounds": edges}
        if as_int:
            params["as_int"] = True
        return GeneratorSpec("HistogramGenerator", params)

    def _integer_generator(
        self,
        table: ExtractedTable,
        column: ExtractedColumn,
        stats: ColumnProfile | None,
        result: BuildResult,
    ) -> tuple[GeneratorSpec, str]:
        histogram = self._histogram_spec(table, column, as_int=True)
        if histogram is not None:
            return histogram, "integer type, skewed (equi-depth histogram)"
        params = self._bound_params(table, column, stats, result, 0, 1_000_000)
        return GeneratorSpec("LongGenerator", params), "integer type with bounds"

    def _double_generator(
        self,
        table: ExtractedTable,
        column: ExtractedColumn,
        dtype: DataType,
        stats: ColumnProfile | None,
        result: BuildResult,
    ) -> tuple[GeneratorSpec, str]:
        histogram = self._histogram_spec(table, column, as_int=False)
        if histogram is not None:
            return histogram, "floating point, skewed (equi-depth histogram)"
        params = self._bound_params(table, column, stats, result, 0.0, 1.0)
        if dtype.scale is not None:
            params["places"] = dtype.scale
        elif dtype.family is TypeFamily.DECIMAL:
            params["places"] = 2
        return GeneratorSpec("DoubleGenerator", params), "floating point with bounds"

    def _date_generator(
        self,
        column: ExtractedColumn,
        dtype: DataType,
        stats: ColumnProfile | None,
    ) -> tuple[GeneratorSpec, str]:
        params: dict[str, object] = {}
        if stats and stats.min_value is not None:
            params["min"] = str(stats.min_value)[:19]
        if stats and stats.max_value is not None:
            params["max"] = str(stats.max_value)[:19]
        if dtype.family is TypeFamily.TIMESTAMP:
            return GeneratorSpec("TimestampGenerator", params), "timestamp with bounds"
        return GeneratorSpec("DateGenerator", params), "date with bounds"


def build_model(
    adapter: DatabaseAdapter,
    name: str | None = None,
    options: BuildOptions | None = None,
    profile: bool = True,
) -> BuildResult:
    """One-call convenience: extract, profile, and build.

    This is the whole "model creation tool" pipeline of paper Figure 3.
    """
    from repro.core.profiling import DataProfiler, ProfileOptions

    extractor_result = None
    from repro.core.extraction import SchemaExtractor

    extractor = SchemaExtractor(adapter)
    extractor_result = extractor.extract(include_sizes=True)
    schema_profile = None
    if profile:
        schema_profile = DataProfiler(adapter).profile(
            extractor_result, ProfileOptions()
        )
    builder = ModelBuilder(adapter, options)
    return builder.build(extractor_result, schema_profile, name=name)
