"""Tests for the update black box (deterministic change epochs)."""

from __future__ import annotations

import pytest

from repro.db.ddl import create_schema_sql
from repro.db.sqlite_adapter import SQLiteAdapter
from repro.core.loader import load
from repro.engine import GenerationEngine
from repro.exceptions import GenerationError
from repro.update.blackbox import UpdateBlackBox, UpdateEvent
from tests.conftest import demo_schema


@pytest.fixture
def blackbox() -> UpdateBlackBox:
    return UpdateBlackBox(
        GenerationEngine(demo_schema()),
        insert_fraction=0.1, update_fraction=0.1, delete_fraction=0.05,
    )


class TestPlan:
    def test_counts_scale_with_fractions(self, blackbox):
        plan = blackbox.plan("customer", 1)
        assert plan.inserts == 6
        assert plan.updates == 6
        assert plan.deletes == 3

    def test_insert_offsets_advance_per_epoch(self, blackbox):
        assert blackbox.plan("customer", 1).insert_start == 60
        assert blackbox.plan("customer", 2).insert_start == 66

    def test_epochs_start_at_one(self, blackbox):
        with pytest.raises(GenerationError):
            blackbox.plan("customer", 0)

    def test_negative_fraction_rejected(self):
        with pytest.raises(GenerationError):
            UpdateBlackBox(GenerationEngine(demo_schema()), insert_fraction=-0.1)


class TestEvents:
    def test_event_order_delete_update_insert(self, blackbox):
        kinds = [e.kind for e in blackbox.epoch_events("customer", 1)]
        boundaries = [kinds.index(k) for k in ("delete", "update", "insert")]
        assert boundaries == sorted(boundaries)

    def test_epoch_is_repeatable(self, blackbox):
        first = list(blackbox.epoch_events("customer", 1))
        second = list(blackbox.epoch_events("customer", 1))
        assert first == second

    def test_epoch_identical_across_instances(self):
        # Two independent black boxes over the same model agree — epochs
        # are a pure function of (model seed, epoch), not object state.
        boxes = [
            UpdateBlackBox(GenerationEngine(demo_schema()), insert_fraction=0.1,
                           update_fraction=0.1, delete_fraction=0.05)
            for _ in range(2)
        ]
        for table in ("customer", "orders"):
            assert list(boxes[0].epoch_events(table, 2)) == list(
                boxes[1].epoch_events(table, 2)
            )

    def test_base_is_epoch_zero_whatever_the_engines_update(self, blackbox):
        # the box takes any bound engine; inserts and row picks come from
        # the model at epoch 0, updates from the epoch's own seeds
        later = GenerationEngine(demo_schema()).at_update(4)
        box = UpdateBlackBox(later, insert_fraction=0.1, update_fraction=0.1,
                             delete_fraction=0.05)
        for table in ("customer", "orders"):
            assert list(box.epoch_events(table, 2)) == list(
                blackbox.epoch_events(table, 2)
            )

    def test_deletes_and_updates_disjoint(self, blackbox):
        for epoch in (1, 2, 3):
            events = list(blackbox.epoch_events("customer", epoch))
            deleted = {e.row for e in events if e.kind == "delete"}
            updated = {e.row for e in events if e.kind == "update"}
            assert not deleted & updated

    def test_epochs_differ(self, blackbox):
        one = [e for e in blackbox.epoch_events("customer", 1) if e.kind == "update"]
        two = [e for e in blackbox.epoch_events("customer", 2) if e.kind == "update"]
        assert [e.row for e in one] != [e.row for e in two] or [
            e.values for e in one
        ] != [e.values for e in two]

    def test_update_rows_within_base_table(self, blackbox):
        for event in blackbox.epoch_events("customer", 1):
            if event.kind in ("update", "delete"):
                assert 0 <= event.row < 60

    def test_update_rows_distinct(self, blackbox):
        rows = [e.row for e in blackbox.epoch_events("customer", 1)
                if e.kind == "update"]
        assert len(rows) == len(set(rows))

    def test_updates_change_values(self, blackbox):
        engine = GenerationEngine(demo_schema())
        for event in blackbox.epoch_events("customer", 1):
            if event.kind != "update":
                continue
            assert event.columns is not None
            base_row = engine.generate_row("customer", event.row)
            names = engine.bound_table("customer").column_names
            base_values = tuple(
                base_row[names.index(column)] for column in event.columns
            )
            assert event.values != base_values

    def test_keys_never_updated(self, blackbox):
        for event in blackbox.epoch_events("customer", 1):
            if event.kind == "update":
                assert "c_id" not in (event.columns or ())

    def test_references_never_updated(self, blackbox):
        for event in blackbox.epoch_events("orders", 1):
            if event.kind == "update":
                assert "o_cust" not in (event.columns or ())

    def test_inserts_carry_full_rows(self, blackbox):
        inserts = [e for e in blackbox.epoch_events("customer", 1)
                   if e.kind == "insert"]
        assert len(inserts) == 6
        for event in inserts:
            assert event.columns == ("c_id", "c_name", "c_balance", "c_comment")
            assert event.values is not None
            assert event.values[0] == event.row + 1  # IdGenerator key

    def test_inserted_keys_continue_sequence(self, blackbox):
        epoch1 = [e for e in blackbox.epoch_events("customer", 1)
                  if e.kind == "insert"]
        epoch2 = [e for e in blackbox.epoch_events("customer", 2)
                  if e.kind == "insert"]
        keys1 = [e.values[0] for e in epoch1]
        keys2 = [e.values[0] for e in epoch2]
        assert keys1 == list(range(61, 67))
        assert keys2 == list(range(67, 73))

    def test_insert_references_stay_valid(self, blackbox):
        engine = GenerationEngine(demo_schema())
        customer_keys = {v[0] for v in engine.iter_rows("customer")}
        for event in blackbox.epoch_events("orders", 1):
            if event.kind == "insert":
                ref = event.values[1]
                assert ref in customer_keys


class TestApplyEpoch:
    def test_apply_to_live_database(self, blackbox):
        adapter = SQLiteAdapter(":memory:")
        schema = demo_schema()
        adapter.execute_script(create_schema_sql(schema, "sqlite"))
        load(GenerationEngine(schema), adapter)
        before = adapter.row_count("customer")

        counts = blackbox.apply_epoch(adapter, "customer", 1, "c_id")
        after = adapter.row_count("customer")
        assert counts == {"insert": 6, "update": 6, "delete": 3}
        assert after == before + 6 - 3
        adapter.close()

    def test_counts_are_affected_rows_not_emitted(self, blackbox):
        # Empty every base row first: deletes and updates find nothing to
        # touch, so their counts are 0; inserts still land.
        adapter = SQLiteAdapter(":memory:")
        schema = demo_schema()
        adapter.execute_script(create_schema_sql(schema, "sqlite"))
        counts = blackbox.apply_epoch(adapter, "customer", 1, "c_id")
        assert counts == {"insert": 6, "update": 0, "delete": 0}
        assert adapter.row_count("customer") == 6
        adapter.close()

    def test_inserted_timestamps_are_stored_as_loaded_ones(self):
        """A CDC insert renders a timestamp as the load's SQL text does,
        so new and loaded rows order and compare as one column."""
        from repro.suites import suite_model

        schema, artifacts = suite_model("bigbench", 0.002)
        adapter = SQLiteAdapter(":memory:")
        adapter.execute_script(create_schema_sql(schema, "sqlite"))
        engine = GenerationEngine(schema, artifacts)
        load(engine, adapter, tables=["web_clickstreams"])
        box = UpdateBlackBox(engine, insert_fraction=0.01,
                             update_fraction=0.0, delete_fraction=0.0)
        counts = box.apply_epoch(adapter, "web_clickstreams", 1, "wcs_click_sk")
        assert counts["insert"] == 120
        shapes = adapter.execute(
            "SELECT DISTINCT length(wcs_click_time), instr(wcs_click_time, 'T') "
            "FROM web_clickstreams"
        )
        assert shapes == [(19, 0)]
        adapter.close()

    def test_apply_is_idempotent_per_epoch_for_updates(self):
        # Re-applying the same epoch's updates yields the same values.
        box = UpdateBlackBox(GenerationEngine(demo_schema()), update_fraction=0.1,
                             insert_fraction=0.0, delete_fraction=0.0)
        first = [e.values for e in box.epoch_events("customer", 3)]
        second = [e.values for e in box.epoch_events("customer", 3)]
        assert first == second


def test_event_dataclass_frozen():
    event = UpdateEvent("delete", "t", 1)
    with pytest.raises(AttributeError):
        event.row = 2  # type: ignore[misc]


def test_engine_at_update_equals_a_freshly_bound_engine():
    """An epoch engine shares the base engine's bound generators and
    swaps only the seeders: every table holds the bytes of an engine
    bound at that update from the model."""
    from tests.test_batch_generation import kitchen_sink_schema

    schema, artifacts = kitchen_sink_schema()
    base = GenerationEngine(schema, artifacts)
    base_fingerprint = base.fingerprint  # digested before the copy
    shifted = base.at_update(3)
    fresh = GenerationEngine(schema, artifacts, update=3)
    assert shifted.update == 3 and base.update == 0
    assert shifted.fingerprint == fresh.fingerprint != base_fingerprint
    for table in schema.tables:
        assert shifted.generate_rows(table.name) == fresh.generate_rows(table.name)
        assert shifted.generate_rows(table.name) != base.generate_rows(table.name)
        assert shifted.compute_value(table.name, table.fields[-1].name, 2) == (
            fresh.compute_value(table.name, table.fields[-1].name, 2)
        )
