"""Projected column blocks: a column generated through
``BoundTable.generate_columns(..., fields=[name])`` equals the same
column of the full block, for every column of the three suites and of
the kitchen-sink schema (every registered generator class)."""

from __future__ import annotations

import pytest

from repro.engine import GenerationEngine
from repro.generators.base import Generator
from repro.generators.registry import register, sibling_reads
from repro.model.schema import Field, GeneratorSpec, Schema, Table
from repro.suites import SUITE_NAMES, suite_model
from tests.test_batch_generation import kitchen_sink_schema

#: rows [START, STOP): off the grid start, and wide enough for every
#: array kernel (they start at 32 rows)
START, STOP = 7, 207


def _typed(values: list) -> list:
    return [(type(value), value) for value in values]


def _assert_projection_exact(engine: GenerationEngine) -> None:
    for table in engine.schema.tables:
        stop = min(STOP, engine.sizes[table.name])
        bound = engine.bound_table(table.name)
        full = bound.generate_columns(START, stop, engine.new_context(table.name))
        for index, name in enumerate(bound.column_names):
            alone = bound.generate_columns(
                START, stop, engine.new_context(table.name), fields=[name]
            )
            assert _typed(alone.columns[index].to_pylist()) == _typed(
                full.columns[index].to_pylist()
            ), f"{table.name}.{name}"


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_every_suite_column_alone_equals_the_full_block(suite):
    _assert_projection_exact(GenerationEngine(*suite_model(suite, 0.001)))


def test_every_kitchen_sink_column_alone_equals_the_full_block():
    _assert_projection_exact(GenerationEngine(*kitchen_sink_schema()))


def test_only_the_closure_of_sibling_reads_is_generated():
    engine = GenerationEngine(*suite_model("tpch", 0.001))
    bound = engine.bound_table("lineitem")
    block = bound.generate_columns(
        0, 64, engine.new_context("lineitem"), fields=["l_extendedprice"]
    )
    generated = {
        name for name, column in zip(block.names, block.columns) if len(column)
    }
    reads = sibling_reads(
        engine.schema.table_by_name("lineitem").field_by_name("l_extendedprice").generator
    )
    assert reads and generated == {"l_extendedprice", *reads}
    assert len(block) == 64


@register("ProjectionProbeGenerator")
class _UnlistedSiblingReader(Generator):
    """Reads a sibling through ``ctx.sibling`` without being Formula or
    Switch: the closure walk does not know about the read."""

    def generate(self, ctx):
        return f"{ctx.sibling('p_base')}!"


def test_a_sibling_read_the_walk_does_not_know_is_recomputed():
    schema = Schema("probe", seed=99)
    schema.add_table(Table("t", "100", [
        Field.of("p_base", "INTEGER", GeneratorSpec("IntGenerator", {"min": 0, "max": 9})),
        Field.of("p_echo", "VARCHAR(4)", GeneratorSpec("ProjectionProbeGenerator")),
    ]))
    engine = GenerationEngine(schema)
    assert sibling_reads(schema.tables[0].fields[1].generator) == set()
    bound = engine.bound_table("t")
    full = bound.generate_columns(0, 100, engine.new_context("t"))
    alone = bound.generate_columns(0, 100, engine.new_context("t"), fields=["p_echo"])
    assert len(alone.columns[0]) == 0  # p_base was not generated ...
    assert alone.columns[1].to_pylist() == full.columns[1].to_pylist()  # ... but read
    assert full.columns[1].to_pylist() == [f"{v}!" for v in full.columns[0].to_pylist()]
