"""Tests for the generation engine — determinism and the O(1) cell
primitive, the properties the paper's generation strategy rests on."""

from __future__ import annotations

import pytest

from repro.engine import SCALAR_ROWS, GenerationEngine
from repro.exceptions import GenerationError, ModelError
from repro.model.schema import Field, GeneratorSpec, Schema, Table
from repro.output.rows import ValueFormatter
from repro.suites import SUITE_NAMES, suite_model
from tests.conftest import demo_schema


class TestConstruction:
    def test_invalid_model_rejected(self):
        with pytest.raises(ModelError):
            GenerationEngine(Schema("empty"))

    def test_sizes_resolved(self, engine):
        assert engine.sizes == {"customer": 60, "orders": 180}

    def test_total_rows(self, engine):
        assert engine.total_rows() == 240


class TestDeterminism:
    def test_same_seed_same_data(self):
        a = GenerationEngine(demo_schema(seed=5))
        b = GenerationEngine(demo_schema(seed=5))
        assert list(a.iter_rows("orders")) == list(b.iter_rows("orders"))

    def test_seed_change_modifies_every_random_value(self):
        # Paper §3: "changing the seed will modify every value of the
        # generated data set" (deterministic row formulas excepted).
        a = GenerationEngine(demo_schema(seed=1))
        b = GenerationEngine(demo_schema(seed=2))
        differing_names = sum(
            ra[1] != rb[1]
            for ra, rb in zip(a.iter_rows("customer"), b.iter_rows("customer"))
        )
        assert differing_names >= 55  # tiny name pool, rare collisions allowed

    def test_row_access_is_order_independent(self, engine):
        forward = [engine.generate_row("orders", r) for r in range(20)]
        backward = [engine.generate_row("orders", r) for r in reversed(range(20))]
        assert forward == list(reversed(backward))

    def test_single_cell_matches_row(self, engine):
        for row in range(15):
            full = engine.generate_row("orders", row)
            for index, name in enumerate(
                engine.bound_table("orders").column_names
            ):
                assert engine.compute_value("orders", name, row) == full[index]

    def test_iter_rows_matches_generate_row(self, engine):
        via_iter = list(engine.iter_rows("customer", 5, 15))
        via_rows = [engine.generate_row("customer", r) for r in range(5, 15)]
        assert via_iter == via_rows

    def test_columns_are_independent_streams(self):
        # Removing a column must not change the values of another column
        # (each column has its own seed branch).
        full = demo_schema(seed=8)
        reduced = demo_schema(seed=8)
        reduced.table_by_name("customer").fields.pop(1)  # drop c_name
        full_engine = GenerationEngine(full)
        reduced_engine = GenerationEngine(reduced)
        for row in range(20):
            assert full_engine.compute_value("customer", "c_balance", row) == \
                reduced_engine.compute_value("customer", "c_balance", row)


class TestComputeValue:
    def test_out_of_range_row(self, engine):
        with pytest.raises(GenerationError, match="outside table"):
            engine.compute_value("customer", "c_id", 60)
        with pytest.raises(GenerationError):
            engine.compute_value("customer", "c_id", -1)

    def test_unknown_table(self, engine):
        with pytest.raises(ModelError):
            engine.compute_value("ghost", "x", 0)

    def test_unknown_field(self, engine):
        with pytest.raises(ModelError):
            engine.compute_value("customer", "ghost", 0)

    def test_reference_resolution_through_engine(self, engine):
        customer_ids = {v[0] for v in engine.iter_rows("customer")}
        for row in range(50):
            ref = engine.compute_value("orders", "o_cust", row)
            assert ref in customer_ids


class TestRanges:
    """``generate_rows``, ``generate_columns``, ``iter_rows`` and
    ``Scheduler.run(row_ranges=)`` share one range rule: ``stop`` is
    clamped to the table size, and a negative ``start`` names rows no
    table holds."""

    def test_generate_rows_rejects_a_negative_start(self, engine):
        with pytest.raises(GenerationError, match="row -2 outside table 'customer'"):
            engine.generate_rows("customer", -2, 1)

    def test_generate_columns_rejects_a_negative_start(self, engine):
        with pytest.raises(GenerationError, match="row -1 outside table 'orders'"):
            engine.generate_columns("orders", -1)

    def test_iter_rows_rejects_a_negative_start(self, engine):
        with pytest.raises(GenerationError, match="row -5 outside table 'customer'"):
            list(engine.iter_rows("customer", -5, 3))

    def test_scheduler_run_rejects_a_negative_start(self, engine):
        from repro.output.config import OutputConfig
        from repro.scheduler import Scheduler

        scheduler = Scheduler(engine, OutputConfig(kind="memory"))
        with pytest.raises(GenerationError, match="row -2 outside table 'customer'"):
            scheduler.run(tables=["customer"], row_ranges={"customer": (-2, 1)})

    def test_stop_is_clamped_to_the_table_size(self, engine):
        rows = engine.generate_rows("customer", 55, 1_000)
        assert rows == engine.generate_rows("customer", 55)
        assert len(rows) == 5
        assert len(engine.generate_columns("customer", 58, 99)) == 2
        assert len(list(engine.iter_rows("customer", 50, 61))) == 10


class TestPreview:
    def test_preview_shape(self, engine):
        rows = engine.preview("customer", 5)
        assert len(rows) == 5
        assert all(len(r) == 4 for r in rows)
        assert all(isinstance(cell, str) for row in rows for cell in row)

    def test_preview_shows_null_token(self, engine):
        rows = engine.preview("customer", 60)
        assert any(cell == "NULL" for row in rows for cell in row)

    def test_preview_clamps_to_table_size(self, engine):
        assert len(engine.preview("customer", 10_000)) == 60

    def test_preview_is_prefix_of_full_generation(self, engine):
        preview = engine.preview("orders", 3)
        full_first = [
            [str(v) if not hasattr(v, "isoformat") else v.isoformat() for v in row]
            for row in engine.iter_rows("orders", 0, 3)
        ]
        assert [r[0] for r in preview] == [r[0] for r in full_first]


class TestPreviewEqualsTheBlockRendering:
    """``preview`` renders fewer than ``SCALAR_ROWS`` rows through the
    scalar oracle and more through blocks; at every count, on both
    sides of the cut and past the table's end, its text is the column
    block's values through ``ValueFormatter(null_token="NULL")``."""

    COUNTS = (-1, 0, 1, 10, SCALAR_ROWS - 1, SCALAR_ROWS, SCALAR_ROWS + 1, 100)

    def check(self, engine):
        formatter = ValueFormatter(null_token="NULL")
        for table, size in engine.sizes.items():
            rendered = [
                [formatter.format(value) for value in row]
                for row in engine.generate_columns(table).to_rows()
            ]
            for count in (*self.COUNTS, size + 5):
                assert engine.preview(table, count) == rendered[:max(count, 0)], (table, count)

    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_every_suite_table(self, suite):
        self.check(GenerationEngine(*suite_model(suite, 0.001)))

    def test_every_registered_generator(self):
        # the kitchen sink holds every generator class, and references
        # whose target is no Id (recomputed through compute_value)
        from tests.test_batch_generation import kitchen_sink_schema

        self.check(GenerationEngine(*kitchen_sink_schema()))

    def test_an_extracted_imdb_model(self, imdb_adapter):
        # Markov text, extracted dictionaries and references
        from tests.test_core_model_builder import extract_model

        built = extract_model(imdb_adapter, name="imdb")
        self.check(GenerationEngine(built.schema, built.artifacts))


class TestUpdates:
    def test_update_epoch_changes_values(self):
        schema = demo_schema(seed=4)
        base = GenerationEngine(schema, update=0)
        epoch = GenerationEngine(schema, update=1)
        base_names = [v[1] for v in base.iter_rows("customer", 0, 30)]
        epoch_names = [v[1] for v in epoch.iter_rows("customer", 0, 30)]
        assert base_names != epoch_names

    def test_update_epoch_is_repeatable(self):
        schema = demo_schema(seed=4)
        a = GenerationEngine(schema, update=2)
        b = GenerationEngine(schema, update=2)
        assert list(a.iter_rows("customer", 0, 10)) == list(
            b.iter_rows("customer", 0, 10)
        )


class TestRowFormulaStability:
    def test_ids_unaffected_by_seed(self):
        a = GenerationEngine(demo_schema(seed=1))
        b = GenerationEngine(demo_schema(seed=999))
        assert [v[0] for v in a.iter_rows("orders", 0, 10)] == [
            v[0] for v in b.iter_rows("orders", 0, 10)
        ]
