"""Tests for DBSynth's model builder — the paper's generator-choice
policy (§3) and the resulting models."""

from __future__ import annotations

import pytest

from repro.core.extraction import SchemaExtractor
from repro.core.model_builder import BuildOptions, ModelBuilder
from repro.core.profiling import DataProfiler
from repro.core.project import DBSynthProject
from repro.core.sampling import SampleConfig
from repro.db.sqlite_adapter import SQLiteAdapter
from repro.engine import GenerationEngine
from repro.exceptions import AdapterError, ExtractionError
from repro.model.artifacts import ArtifactStore
from repro.model.validation import ensure_valid


def extract_model(adapter, name=None, options=None, profile=True):
    """The DBSynth project steps: extract, (profile,) build."""
    project = DBSynthProject(name or "dbsynth_model", adapter, options or BuildOptions())
    if profile:
        project.profile()
    return project.build_model()


@pytest.fixture
def built(imdb_adapter):
    return extract_model(imdb_adapter, name="imdb")


class TestGeneratorChoice:
    def test_foreign_keys_beat_everything(self, built):
        decision = built.decision_for("cast_members", "movie_id")
        assert decision.generator == "DefaultReferenceGenerator"
        spec = built.schema.table_by_name("cast_members").field_by_name(
            "movie_id"
        ).generator
        assert spec.params["table"] == "movies"

    def test_primary_integer_becomes_id(self, built):
        assert built.decision_for("movies", "movie_id").generator == "IdGenerator"

    def test_categorical_text_becomes_dictionary(self, built):
        decision = built.decision_for("movies", "genre")
        assert decision.generator == "DictListGenerator"
        assert "dict:movies.genre" in built.artifacts

    def test_free_text_becomes_markov(self, built):
        field = built.schema.table_by_name("movies").field_by_name("plot")
        spec = field.generator
        # plot is nullable in the source, so the Markov generator sits
        # inside a NULL wrapper.
        assert spec.name == "NullGenerator"
        assert spec.child().name == "MarkovChainGenerator"
        assert "markov:movies.plot" in built.artifacts

    def test_numeric_bounds_from_profile(self, built, imdb_adapter):
        schema = built.schema
        [(lo, hi)] = imdb_adapter.bounds("movies", ["votes"])
        assert schema.properties.get_float("movies_votes_min") == lo
        assert schema.properties.get_float("movies_votes_max") == hi

    def test_null_wrapper_probability_matches_source(self, built, imdb_adapter):
        spec = built.schema.table_by_name("people").field_by_name(
            "birth_year"
        ).generator
        assert spec.name == "NullGenerator"
        [expected] = imdb_adapter.null_fractions("people", ["birth_year"])
        assert float(spec.params["probability"]) == pytest.approx(expected, abs=1e-4)

    def test_table_sizes_scale_with_sf(self, built):
        schema = built.schema
        assert schema.table_size("movies") == 80
        schema.properties.override("SF", 2)
        assert schema.table_size("movies") == 160

    def test_model_validates(self, built):
        ensure_valid(built.schema)

    def test_model_generates(self, built):
        engine = GenerationEngine(built.schema, built.artifacts)
        rows = list(engine.iter_rows("movies", 0, 10))
        assert len(rows) == 10
        assert rows[0][0] == 1  # movie_id from IdGenerator

    def test_decisions_cover_every_column(self, built, imdb_adapter):
        total_columns = sum(
            len(imdb_adapter.columns(t)) for t in imdb_adapter.table_names()
        )
        assert len(built.decisions) == total_columns

    def test_decision_lookup_missing(self, built):
        with pytest.raises(ExtractionError):
            built.decision_for("movies", "ghost")


class TestNoSampling:
    def test_rule_fallback_without_sampling(self, imdb_adapter):
        extracted = SchemaExtractor(imdb_adapter).extract()
        profile = DataProfiler(imdb_adapter).profile(extracted)
        builder = ModelBuilder(imdb_adapter, BuildOptions(sample_data=False))
        result = builder.build(extracted, profile, name="imdb_nosample")
        # Without sampling, name rules choose high-level generators
        # (paper §3: "the column name is parsed to determine whether a
        # matching high level generator construct exists").
        title = result.decision_for("people", "name")
        assert title.generator in ("PersonNameGenerator", "NullGenerator")
        plot = result.schema.table_by_name("movies").field_by_name("plot").generator
        inner = plot.child() if plot.name == "NullGenerator" else plot
        assert inner.name == "TextGenerator"
        assert not result.artifacts.names()

    def test_unmatched_text_falls_back_to_random_string(self, imdb_adapter):
        imdb_adapter.execute_script(
            "CREATE TABLE odd (xyzzy VARCHAR(12)); INSERT INTO odd VALUES ('abc');"
        )
        result = extract_model(
            imdb_adapter, options=BuildOptions(sample_data=False), profile=False
        )
        assert result.decision_for("odd", "xyzzy").generator == "RandomStringGenerator"


class TestCatalogOnlyModel:
    def test_basic_extraction_without_profile(self, imdb_adapter):
        result = extract_model(imdb_adapter, profile=False)
        ensure_valid(result.schema)
        # No NULL wrappers without profiling (no null stats available).
        spec = result.schema.table_by_name("people").field_by_name(
            "birth_year"
        ).generator
        assert spec.name != "NullGenerator"


class TestConstantColumns:
    def test_constant_becomes_static(self, imdb_adapter):
        imdb_adapter.execute_script(
            "CREATE TABLE k (flag INTEGER); "
            "INSERT INTO k VALUES (7), (7), (7), (7);"
        )
        result = extract_model(imdb_adapter)
        assert result.decision_for("k", "flag").generator == "StaticValueGenerator"
        engine = GenerationEngine(result.schema, result.artifacts)
        assert all(v[0] == 7 for v in engine.iter_rows("k"))


class TestBuilders:
    """The per-column dictionary and Markov steps of :class:`ModelBuilder`."""

    @staticmethod
    def builder(adapter, **sample):
        return ModelBuilder(adapter, BuildOptions(sample_config=SampleConfig(**sample)))

    def test_dictionary_builder(self, imdb_adapter):
        extracted = SchemaExtractor(imdb_adapter).extract()
        artifacts = ArtifactStore()
        name = self.builder(imdb_adapter, fraction=1.0)._dictionary(
            extracted, "movies", "genre", artifacts
        )
        source_genres = {
            row[0] for row in imdb_adapter.execute("SELECT DISTINCT genre FROM movies")
        }
        assert name == "dict:movies.genre"
        assert set(artifacts.get(name).values()) == source_genres

    def test_dictionary_builder_empty_column(self, imdb_adapter):
        imdb_adapter.execute_script("CREATE TABLE e (t TEXT);")
        extracted = SchemaExtractor(imdb_adapter).extract()
        with pytest.raises(ExtractionError, match="cannot build dictionary"):
            self.builder(imdb_adapter)._dictionary(extracted, "e", "t", ArtifactStore())

    def test_markov_builder_parameters_from_data(self, imdb_adapter):
        extracted = SchemaExtractor(imdb_adapter).extract()
        artifacts = ArtifactStore()
        spec, reason = self.builder(imdb_adapter, fraction=1.0)._markov(
            extracted, "movies", "plot", artifacts
        )
        chain = artifacts.get(spec.params["model"])
        assert spec.params["model"] == "markov:movies.plot"
        assert chain.trained and chain.order == 1
        assert 1 <= spec.params["min"] <= spec.params["max"]
        assert len(chain.vocabulary()) > 10
        assert chain.num_start_states() >= 1
        assert reason == (
            f"free text ({len(chain.vocabulary())} words, "
            f"{chain.num_start_states()} starting states)"
        )

    def test_markov_builder_empty_column(self, imdb_adapter):
        imdb_adapter.execute_script("CREATE TABLE e2 (t TEXT);")
        extracted = SchemaExtractor(imdb_adapter).extract()
        with pytest.raises(ExtractionError, match="cannot build Markov model"):
            self.builder(imdb_adapter)._markov(extracted, "e2", "t", ArtifactStore())


class TestDeterminismOfBuiltModels:
    def test_same_source_same_model(self, imdb_adapter):
        from repro.config import schema_xml

        a = extract_model(imdb_adapter, name="m")
        b = extract_model(imdb_adapter, name="m")
        assert schema_xml.dumps(a.schema) == schema_xml.dumps(b.schema)

    def test_generated_data_is_repeatable(self, imdb_adapter):
        result = extract_model(imdb_adapter, name="m")
        a = GenerationEngine(result.schema, result.artifacts)
        b = GenerationEngine(result.schema, result.artifacts)
        assert list(a.iter_rows("movies", 0, 20)) == list(b.iter_rows("movies", 0, 20))


class TestSourceShapes:
    """Source columns whose stored text the type-driven generators cannot
    take: the extracted model must still bind and generate."""

    @pytest.mark.parametrize("sample_data", [True, False], ids=["sampled", "unsampled"])
    @pytest.mark.parametrize("type_text,values", [
        ("TIME", ["08:30:00", "12:00:00", "17:45:00"]),
        ("DATE", ["2020-01-01 10:00:00", "2020-02-01 00:00:00", "2020-03-05 23:59:59"]),
    ], ids=["time", "datetime-in-date"])
    def test_extracted_model_binds_and_generates(
        self, tmp_path, type_text, values, sample_data
    ):
        source = SQLiteAdapter(str(tmp_path / "source.db"))
        source.execute_script(
            f"CREATE TABLE shift (shift_id INTEGER PRIMARY KEY, at {type_text});"
            + "".join(f"INSERT INTO shift (at) VALUES ('{v}');" for v in values)
        )
        project = DBSynthProject("m", source, BuildOptions(sample_data=sample_data))
        project.profile()
        project.build_model()
        project.save(str(tmp_path / "model"))
        source.close()
        engine = GenerationEngine(*DBSynthProject.load_saved(str(tmp_path / "model")))
        rows = list(engine.iter_rows("shift", 0, 3))
        assert len(rows) == 3 and all(at is not None for _, at in rows)
        if type_text == "DATE":
            assert all("2020-01-01" <= str(at) <= "2020-03-05" for _, at in rows)


class TestNonNumericValues:
    def test_quantiles_raise_adapter_error_and_model_stays_uniform(self, tmp_path):
        source = SQLiteAdapter(str(tmp_path / "source.db"))
        source.execute_script(
            "CREATE TABLE m (score REAL);"
            "INSERT INTO m VALUES (1.5), (2.5), (4.0), (8.0), ('n/a');"
        )
        with pytest.raises(AdapterError, match="m.score"):
            source.numeric_quantiles("m", "score", 4)
        result = extract_model(source, options=BuildOptions(use_histograms=True))
        decision = result.decision_for("m", "score")
        assert (decision.generator, decision.reason) == (
            "DoubleGenerator", "floating point with bounds"
        )
        source.close()
