"""Tests for DBSynth catalog extraction, profiling, and sampling."""

from __future__ import annotations

import pytest

from repro.core.extraction import SchemaExtractor
from repro.core.profiling import DataProfiler, family_of
from repro.core.sampling import ColumnSampler, SampleConfig
from repro.db.sqlite_adapter import SQLiteAdapter
from repro.exceptions import ExtractionError
from repro.model.datatypes import TypeFamily


class TestSchemaExtractor:
    def test_tables_extracted(self, imdb_adapter):
        extracted = SchemaExtractor(imdb_adapter).extract()
        assert extracted.table_names() == [
            "cast_members", "movies", "people", "ratings"
        ]

    def test_columns_in_order(self, imdb_adapter):
        extracted = SchemaExtractor(imdb_adapter).extract()
        movies = extracted.table("movies")
        assert [c.name for c in movies.columns][:3] == [
            "movie_id", "title", "production_year"
        ]

    def test_primary_keys_detected(self, imdb_adapter):
        extracted = SchemaExtractor(imdb_adapter).extract()
        movie_id = extracted.table("movies").column("movie_id")
        assert movie_id.info.primary

    def test_foreign_keys_attached(self, imdb_adapter):
        extracted = SchemaExtractor(imdb_adapter).extract()
        cast = extracted.table("cast_members")
        fk = cast.column("movie_id").foreign_key
        assert fk is not None
        assert fk.ref_table == "movies"
        assert fk.ref_column == "movie_id"

    def test_row_counts(self, imdb_adapter):
        extracted = SchemaExtractor(imdb_adapter).extract(include_sizes=True)
        assert extracted.table("movies").row_count == 80

    def test_sizes_optional(self, imdb_adapter):
        extracted = SchemaExtractor(imdb_adapter).extract(include_sizes=False)
        assert extracted.table("movies").row_count is None
        assert extracted.timings.sizes_seconds == 0.0

    def test_timings_recorded(self, imdb_adapter):
        extracted = SchemaExtractor(imdb_adapter).extract()
        assert extracted.timings.schema_seconds > 0
        assert extracted.timings.sizes_seconds > 0

    def test_empty_database_rejected(self):
        empty = SQLiteAdapter(":memory:")
        with pytest.raises(ExtractionError, match="no user tables"):
            SchemaExtractor(empty).extract()
        empty.close()

    def test_missing_table_lookup(self, imdb_adapter):
        extracted = SchemaExtractor(imdb_adapter).extract()
        with pytest.raises(ExtractionError):
            extracted.table("ghost")
        with pytest.raises(ExtractionError):
            extracted.table("movies").column("ghost")


class TestDataProfiler:
    @pytest.fixture
    def profiled(self, imdb_adapter):
        extracted = SchemaExtractor(imdb_adapter).extract()
        profile = DataProfiler(imdb_adapter).profile(extracted)
        return extracted, profile

    def test_null_fractions(self, profiled, imdb_adapter):
        _, profile = profiled
        plot = profile.get("movies", "plot")
        [expected] = imdb_adapter.null_fractions("movies", ["plot"])
        assert plot.null_fraction == expected
        assert profile.get("movies", "movie_id").null_fraction == 0.0

    def test_min_max(self, profiled, imdb_adapter):
        _, profile = profiled
        year = profile.get("movies", "production_year")
        [(lo, hi)] = imdb_adapter.bounds("movies", ["production_year"])
        assert (year.min_value, year.max_value) == (lo, hi)

    def test_distinct_counts(self, profiled):
        _, profile = profiled
        genre = profile.get("movies", "genre")
        assert 1 <= genre.distinct_count <= 10

    def test_timings_accumulated(self, profiled):
        extracted, _ = profiled
        assert extracted.timings.null_seconds > 0
        assert extracted.timings.minmax_seconds > 0
        assert extracted.timings.distinct_seconds > 0

    def test_is_constant(self, imdb_adapter):
        imdb_adapter.execute_script(
            "CREATE TABLE c (x INTEGER); INSERT INTO c VALUES (5), (5), (5);"
        )
        extracted = SchemaExtractor(imdb_adapter).extract()
        profile = DataProfiler(imdb_adapter).profile(extracted)
        assert profile.get("c", "x").is_constant


class TestFamilyOf:
    def test_known(self):
        assert family_of("VARCHAR(10)") is TypeFamily.TEXT

    def test_unknown_returns_none(self):
        assert family_of("GEOMETRY") is None


class TestColumnSampler:
    def test_sampling_records_time(self, imdb_adapter):
        extracted = SchemaExtractor(imdb_adapter).extract()
        sampler = ColumnSampler(imdb_adapter)
        values = sampler.sample(extracted, "movies", "genre", SampleConfig(fraction=1.0))
        assert len(values) == 80
        assert extracted.timings.sampling_seconds > 0

    def test_min_values_fallback(self, imdb_adapter):
        # A microscopic fraction on a small table falls back to first-N.
        extracted = SchemaExtractor(imdb_adapter).extract()
        sampler = ColumnSampler(imdb_adapter)
        config = SampleConfig(fraction=1e-6, min_values=10)
        values = sampler.sample(extracted, "movies", "genre", config)
        assert len(values) >= 10

    def test_values_are_strings_without_nulls(self, imdb_adapter):
        extracted = SchemaExtractor(imdb_adapter).extract()
        values = ColumnSampler(imdb_adapter).sample(
            extracted, "movies", "plot", SampleConfig(fraction=1.0)
        )
        assert all(isinstance(v, str) for v in values)

    def test_config_validation(self):
        with pytest.raises(ExtractionError):
            SampleConfig(fraction=0.0)
        with pytest.raises(ExtractionError):
            SampleConfig(fraction=2.0)
        with pytest.raises(ExtractionError):
            SampleConfig(strategy="quantum")
        with pytest.raises(ExtractionError):
            SampleConfig(min_values=-1)
