"""Tests for the histogram generator and its DBSynth integration."""

from __future__ import annotations

import pytest

from repro.core.model_builder import BuildOptions
from repro.core.project import DBSynthProject
from repro.db.sqlite_adapter import SQLiteAdapter
from repro.engine import GenerationEngine
from repro.exceptions import AdapterError, ModelError
from repro.model.schema import GeneratorSpec
from tests.conftest import field_values, single_field_engine


def _profiled_model(db, **options):
    """Extract, profile and build a model of *db* without text sampling."""
    project = DBSynthProject("m", db, BuildOptions(sample_data=False, **options))
    project.profile()
    return project.build_model()


class TestHistogramGenerator:
    def test_values_within_bounds(self):
        spec = GeneratorSpec("HistogramGenerator", {"bounds": [0.0, 10.0, 100.0]})
        values = field_values(spec, rows=500, type_text="DOUBLE")
        assert all(0.0 <= v <= 100.0 for v in values)

    def test_weights_shift_mass(self):
        spec = GeneratorSpec(
            "HistogramGenerator",
            {"bounds": [0.0, 10.0, 100.0], "weights": [0.9, 0.1]},
        )
        values = field_values(spec, rows=2000, type_text="DOUBLE")
        low_bucket = sum(1 for v in values if v < 10.0)
        assert abs(low_bucket / len(values) - 0.9) < 0.03

    def test_equal_weights_default(self):
        spec = GeneratorSpec("HistogramGenerator", {"bounds": [0, 1, 2]})
        values = field_values(spec, rows=2000, type_text="DOUBLE")
        first = sum(1 for v in values if v < 1)
        assert abs(first / len(values) - 0.5) < 0.05

    def test_as_int(self):
        spec = GeneratorSpec(
            "HistogramGenerator", {"bounds": [0, 5, 50], "as_int": True}
        )
        values = field_values(spec, rows=300)
        assert all(isinstance(v, int) for v in values)
        assert all(0 <= v < 50 for v in values)

    def test_equi_depth_reproduces_quantiles(self):
        # Build a skewed distribution, extract equi-depth edges, and
        # check the generator reproduces the quartiles (the RSGen idea).
        import math

        source = [math.exp(i / 200.0) for i in range(2000)]  # exponential-ish
        n = len(source)
        edges = [source[0]] + [source[k * n // 4] for k in (1, 2, 3)] + [source[-1]]
        spec = GeneratorSpec("HistogramGenerator", {"bounds": edges})
        values = sorted(field_values(spec, rows=4000, type_text="DOUBLE"))
        for k in (1, 2, 3):
            generated_quantile = values[k * len(values) // 4]
            assert generated_quantile == pytest.approx(edges[k], rel=0.15)

    def test_validation(self):
        with pytest.raises(ModelError):
            single_field_engine(GeneratorSpec("HistogramGenerator", {"bounds": [1]}))
        with pytest.raises(ModelError):
            single_field_engine(GeneratorSpec(
                "HistogramGenerator", {"bounds": [2, 1]}
            ))
        with pytest.raises(ModelError):
            single_field_engine(GeneratorSpec(
                "HistogramGenerator", {"bounds": [0, 1, 2], "weights": [1.0]}
            ))

    def test_xml_round_trip(self):
        from repro.config import schema_xml
        from repro.model.schema import Field, Schema, Table

        schema = Schema("h", seed=3)
        schema.add_table(Table("t", "50", [
            Field.of("x", "DOUBLE", GeneratorSpec(
                "HistogramGenerator",
                {"bounds": [0.0, 1.5, 9.0], "weights": [0.7, 0.3]},
            )),
        ]))
        restored = schema_xml.loads(schema_xml.dumps(schema))
        a = field_values_from(schema)
        b = field_values_from(restored)
        assert a == b


def field_values_from(schema):
    engine = GenerationEngine(schema)
    return [v[0] for v in engine.iter_rows("t")]


class TestAdapterQuantiles:
    @pytest.fixture
    def adapter(self):
        db = SQLiteAdapter(":memory:")
        db.execute_script("CREATE TABLE t (x REAL);")
        db.insert_rows("t", ["x"], [(float(i * i),) for i in range(1, 101)])
        yield db
        db.close()

    def test_edges_monotone_and_span(self, adapter):
        edges = adapter.numeric_quantiles("t", "x", 4)
        assert len(edges) == 5
        assert edges == sorted(edges)
        assert edges[0] == 1.0
        assert edges[-1] == 10000.0

    def test_equi_depth_property(self, adapter):
        edges = adapter.numeric_quantiles("t", "x", 4)
        # Quadratic data: quartile edges near (25k)^2.
        assert edges[2] == pytest.approx(2500.0, rel=0.1)

    def test_single_bucket(self, adapter):
        assert len(adapter.numeric_quantiles("t", "x", 1)) == 2

    def test_empty_column_rejected(self, adapter):
        adapter.execute_script("CREATE TABLE e (x REAL);")
        with pytest.raises(AdapterError):
            adapter.numeric_quantiles("e", "x")

    def test_bad_bucket_count(self, adapter):
        with pytest.raises(AdapterError):
            adapter.numeric_quantiles("t", "x", 0)


class TestDbsynthHistogramIntegration:
    @pytest.fixture
    def skewed_db(self):
        db = SQLiteAdapter(":memory:")
        db.execute_script("CREATE TABLE m (id INTEGER PRIMARY KEY, v REAL, u REAL);")
        rows = []
        for i in range(1, 501):
            skewed = 1.02 ** i          # heavily skewed
            uniform = float(i)          # uniform
            rows.append((i, skewed, uniform))
        db.insert_rows("m", ["id", "v", "u"], rows)
        yield db
        db.close()

    def test_skewed_column_gets_histogram(self, skewed_db):
        result = _profiled_model(skewed_db, use_histograms=True)
        assert result.decision_for("m", "v").generator == "HistogramGenerator"

    def test_uniform_column_stays_simple(self, skewed_db):
        result = _profiled_model(skewed_db, use_histograms=True)
        assert result.decision_for("m", "u").generator == "DoubleGenerator"

    def test_histograms_off_by_default(self, skewed_db):
        result = _profiled_model(skewed_db)
        assert result.decision_for("m", "v").generator == "DoubleGenerator"

    def test_generated_distribution_tracks_source(self, skewed_db):
        result = _profiled_model(skewed_db, use_histograms=True)
        engine = GenerationEngine(result.schema, result.artifacts)
        column = result.schema.table_by_name("m").field_index("v")
        generated = sorted(row[column] for row in engine.iter_rows("m"))
        source = sorted(
            row[0] for row in skewed_db.execute("SELECT v FROM m")
        )
        # Compare medians: uniform synthesis over the full range would be
        # off by orders of magnitude on this distribution.
        source_median = source[len(source) // 2]
        generated_median = generated[len(generated) // 2]
        assert generated_median == pytest.approx(source_median, rel=0.5)
