"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.engine import GenerationEngine
from repro.model.artifacts import ArtifactStore
from repro.model.schema import Field, GeneratorSpec, Schema, Table
from repro.prng.xorshift import XorShift64Star


def single_field_engine(
    spec: GeneratorSpec,
    type_text: str = "BIGINT",
    rows: int = 100,
    artifacts: ArtifactStore | None = None,
    seed: int = 42,
) -> GenerationEngine:
    """An engine whose model is one table with one field under test."""
    schema = Schema("test", seed=seed)
    schema.add_table(
        Table("t", str(rows), [Field.of("f", type_text, spec)])
    )
    return GenerationEngine(schema, artifacts)


def field_values(
    spec: GeneratorSpec,
    type_text: str = "BIGINT",
    rows: int = 100,
    artifacts: ArtifactStore | None = None,
    seed: int = 42,
) -> list:
    """Generate all values of a single-field model."""
    engine = single_field_engine(spec, type_text, rows, artifacts, seed)
    return [values[0] for values in engine.iter_rows("t")]


def word_model(word: str, rows: int = 100) -> tuple[Schema, ArtifactStore]:
    """A one-column model drawing from the dictionary artifact
    ``dict:w``, which holds only *word*: two such models differ in
    their artifacts alone."""
    from repro.text.dictionary import WeightedDictionary

    schema = Schema("words", seed=7)
    schema.add_table(Table("t", str(rows), [Field.of(
        "w", "VARCHAR(10)", GeneratorSpec("DictListGenerator", {"dictionary": "dict:w"}),
    )]))
    artifacts = ArtifactStore()
    artifacts.put("dict:w", WeightedDictionary.from_values([word]))
    return schema, artifacts


def demo_schema(seed: int = 42, customers: int = 60, orders: int = 180) -> Schema:
    """A two-table schema exercising references, formulas, and NULLs."""
    schema = Schema("demo", seed=seed)
    schema.properties.define("SF", "1")
    schema.properties.define("customer_size", f"{customers} * ${{SF}}")
    schema.properties.define("orders_size", f"{orders} * ${{SF}}")
    schema.add_table(Table("customer", "${customer_size}", [
        Field.of("c_id", "BIGINT", GeneratorSpec("IdGenerator"), primary=True),
        Field.of("c_name", "VARCHAR(40)", GeneratorSpec("PersonNameGenerator")),
        Field.of("c_balance", "DECIMAL(12,2)", GeneratorSpec(
            "DoubleGenerator", {"min": -100.0, "max": 1000.0, "places": 2}
        )),
        Field.of("c_comment", "VARCHAR(80)", GeneratorSpec(
            "NullGenerator", {"probability": 0.25}, [GeneratorSpec("TextGenerator")]
        )),
    ]))
    schema.add_table(Table("orders", "${orders_size}", [
        Field.of("o_id", "BIGINT", GeneratorSpec("IdGenerator"), primary=True),
        Field.of("o_cust", "BIGINT", GeneratorSpec(
            "DefaultReferenceGenerator", {"table": "customer", "field": "c_id"}
        )),
        Field.of("o_quantity", "INTEGER", GeneratorSpec(
            "IntGenerator", {"min": 1, "max": 50}
        )),
        Field.of("o_total", "DECIMAL(12,2)", GeneratorSpec(
            "FormulaGenerator", {"formula": "[o_quantity] * 9.99", "places": 2}
        )),
        Field.of("o_date", "DATE", GeneratorSpec(
            "DateGenerator", {"min": "2020-01-01", "max": "2020-12-31"}
        )),
    ]))
    return schema


@pytest.fixture
def rng() -> XorShift64Star:
    return XorShift64Star(12345)


@pytest.fixture
def schema() -> Schema:
    return demo_schema()


@pytest.fixture
def engine(schema: Schema) -> GenerationEngine:
    return GenerationEngine(schema)


@pytest.fixture
def imdb_adapter():
    """A small, seeded IMDb-like source database (in memory)."""
    from repro.suites.imdb import build_imdb_database

    adapter = build_imdb_database(movies=80, people=120, seed=11)
    yield adapter
    adapter.close()
