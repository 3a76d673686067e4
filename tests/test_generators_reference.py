"""Tests for the recomputed reference generator — PDGF's core trick."""

from __future__ import annotations

import pytest

from repro.engine import GenerationEngine
from repro.exceptions import ModelError
from repro.model.schema import Field, GeneratorSpec, Schema, Table


def _two_table_schema(
    parent_rows: int = 40,
    child_rows: int = 200,
    parent_key: GeneratorSpec | None = None,
    ref_params: dict | None = None,
) -> Schema:
    schema = Schema("ref", seed=77)
    schema.add_table(Table("parent", str(parent_rows), [
        Field.of("p_id", "BIGINT", parent_key or GeneratorSpec("IdGenerator"),
                 primary=True),
    ]))
    params = {"table": "parent", "field": "p_id"}
    params.update(ref_params or {})
    schema.add_table(Table("child", str(child_rows), [
        Field.of("c_ref", "BIGINT", GeneratorSpec(
            "DefaultReferenceGenerator", params
        )),
    ]))
    return schema


class TestReferentialIntegrity:
    def test_all_references_exist(self):
        engine = GenerationEngine(_two_table_schema())
        parent_keys = {values[0] for values in engine.iter_rows("parent")}
        for (ref,) in engine.iter_rows("child"):
            assert ref in parent_keys

    def test_integrity_with_offset_keys(self):
        schema = _two_table_schema(
            parent_key=GeneratorSpec("IdGenerator", {"base": 1000, "step": 5})
        )
        engine = GenerationEngine(schema)
        parent_keys = {values[0] for values in engine.iter_rows("parent")}
        for (ref,) in engine.iter_rows("child"):
            assert ref in parent_keys

    def test_integrity_under_scale_change(self):
        # References stay valid when SF rescales both tables.
        schema = Schema("scaled", seed=3)
        schema.properties.define("SF", "1")
        schema.add_table(Table("parent", "20 * ${SF}", [
            Field.of("p_id", "BIGINT", GeneratorSpec("IdGenerator"), primary=True),
        ]))
        schema.add_table(Table("child", "80 * ${SF}", [
            Field.of("c_ref", "BIGINT", GeneratorSpec(
                "DefaultReferenceGenerator", {"table": "parent", "field": "p_id"}
            )),
        ]))
        schema.properties.override("SF", 3)
        engine = GenerationEngine(schema)
        assert engine.sizes == {"parent": 60, "child": 240}
        for (ref,) in engine.iter_rows("child"):
            assert 1 <= ref <= 60

    def test_non_id_target_recomputed(self):
        # Referencing a dictionary column recomputes the actual value the
        # target row carries (no fast path available).
        schema = Schema("nref", seed=5)
        schema.add_table(Table("parent", "10", [
            Field.of("p_name", "TEXT", GeneratorSpec(
                "DictListGenerator", {"values": ["ann", "bob", "cyd"]}
            )),
        ]))
        schema.add_table(Table("child", "50", [
            Field.of("c_name", "TEXT", GeneratorSpec(
                "DefaultReferenceGenerator", {"table": "parent", "field": "p_name"}
            )),
        ]))
        engine = GenerationEngine(schema)
        parent_values = [v[0] for v in engine.iter_rows("parent")]
        for (ref,) in engine.iter_rows("child"):
            assert ref in parent_values

    def test_fast_path_equals_full_recompute(self):
        # References to an IdGenerator key compute ``base + row * step``
        # inline; the same dense keys from a RowFormulaGenerator are not
        # recognized and take the engine callback. Same child rows.
        slow = _two_table_schema(parent_key=GeneratorSpec(
            "RowFormulaGenerator", {"formula": "row + 1"}
        ))
        assert list(GenerationEngine(slow).iter_rows("child")) == list(
            GenerationEngine(_two_table_schema()).iter_rows("child")
        )

    def test_recomputed_value_matches_actual_row(self):
        engine = GenerationEngine(_two_table_schema())
        for row in range(40):
            actual = engine.generate_row("parent", row)[0]
            recomputed = engine.compute_value("parent", "p_id", row)
            assert actual == recomputed


class TestDistributions:
    def test_uniform_coverage(self):
        engine = GenerationEngine(_two_table_schema(parent_rows=10, child_rows=2000))
        refs = [v[0] for v in engine.iter_rows("child")]
        counts = {key: refs.count(key) for key in set(refs)}
        assert len(counts) == 10
        assert max(counts.values()) < 2 * min(counts.values()) + 40

    def test_zipf_skews_references(self):
        schema = _two_table_schema(
            parent_rows=100, child_rows=3000,
            ref_params={"distribution": "zipf", "exponent": 1.0},
        )
        engine = GenerationEngine(schema)
        refs = [v[0] for v in engine.iter_rows("child")]
        top = refs.count(1)
        mid = refs.count(50)
        assert top > mid

    def test_unknown_distribution(self):
        schema = _two_table_schema(ref_params={"distribution": "bogus"})
        with pytest.raises(ModelError, match="unknown reference distribution"):
            GenerationEngine(schema)


class TestErrors:
    def test_missing_params(self):
        schema = Schema("bad", seed=1)
        schema.tables.append(Table("t", "10", [
            Field.of("x", "BIGINT", GeneratorSpec("DefaultReferenceGenerator")),
        ]))
        with pytest.raises(ModelError):
            GenerationEngine(schema)

    def test_reference_into_empty_table(self):
        schema = _two_table_schema(parent_rows=0)
        with pytest.raises(ModelError, match="empty table"):
            GenerationEngine(schema)


class TestSelfReference:
    def test_self_reference_works(self):
        schema = Schema("emp", seed=9)
        schema.add_table(Table("employee", "30", [
            Field.of("e_id", "BIGINT", GeneratorSpec("IdGenerator"), primary=True),
            Field.of("e_manager", "BIGINT", GeneratorSpec(
                "DefaultReferenceGenerator", {"table": "employee", "field": "e_id"}
            )),
        ]))
        engine = GenerationEngine(schema)
        for e_id, manager in engine.iter_rows("employee"):
            assert 1 <= manager <= 30
