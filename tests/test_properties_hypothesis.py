"""Property-based tests (hypothesis) for the core invariants.

These are the guarantees the paper's generation strategy rests on:
repeatability, parallel/serial equivalence, exact node partitioning,
reference integrity at any scale, and round-trip-stable serialization.
"""

from __future__ import annotations

import functools
import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.suites.tpch.generators  # noqa: F401  (registers TpchPsSuppkeyGenerator)
from repro.core.driver import same_answer
from repro.core.loader import load
from repro.core.queries import Aggregate, Op, Predicate, Query, VirtualExecutor
from repro.db.ddl import create_schema_sql
from repro.db.sqlite_adapter import SQLiteAdapter
from repro.engine import GenerationEngine
from repro.model.artifacts import ArtifactStore
from repro.model.datatypes import TypeFamily
from repro.model import formula as formula_mod
from repro.model.schema import Field, GeneratorSpec, Schema, Table
from repro.output.config import OutputConfig
from repro.prng.xorshift import (
    MASK64,
    XorShift64Star,
    combine64,
    hash_string64,
    mix64,
)
from repro.scheduler import generate
from repro.suites import suite_model
from repro.scheduler.work import (
    cut_packages,
    node_share,
    package_count,
    partition_rows,
)
from repro.text.dictionary import WeightedDictionary
from repro.text.markov import MarkovChain, train_chain
from repro.text.tokenizer import words

_fast = settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow])


class TestPrngProperties:
    @given(st.integers(min_value=0, max_value=MASK64))
    def test_mix64_stays_in_64_bits(self, value):
        assert 0 <= mix64(value) <= MASK64

    @given(st.integers(min_value=0, max_value=MASK64),
           st.integers(min_value=0, max_value=2**31))
    def test_combine64_deterministic(self, seed, index):
        assert combine64(seed, index) == combine64(seed, index)

    @given(st.text(min_size=0, max_size=50))
    def test_hash_string_deterministic(self, text):
        assert hash_string64(text) == hash_string64(text)

    @given(st.integers(min_value=0, max_value=MASK64),
           st.integers(min_value=1, max_value=10**9))
    def test_next_long_in_bounds(self, seed, bound):
        rng = XorShift64Star(seed)
        for _ in range(20):
            assert 0 <= rng.next_long(bound) < bound

    @given(st.integers(min_value=0, max_value=MASK64))
    def test_stream_restart(self, seed):
        a = XorShift64Star(seed)
        first = [a.next_u64() for _ in range(10)]
        a.reseed(seed)
        assert [a.next_u64() for _ in range(10)] == first


class TestPartitioningProperties:
    @given(st.integers(min_value=0, max_value=50_000),
           st.integers(min_value=1, max_value=5_000))
    def test_packages_cover_exactly(self, size, package_size):
        packages = partition_rows("t", size, package_size)
        covered = []
        for package in packages:
            covered.extend(range(package.start, package.stop))
        assert covered == list(range(size))
        assert [p.sequence for p in packages] == list(range(len(packages)))

    @settings(deadline=None)  # the first example binds the engine
    @given(st.integers(min_value=0, max_value=500),
           st.integers(min_value=0, max_value=500),
           st.integers(min_value=1, max_value=60))
    def test_one_cutter(self, a, b, package_size):
        """Package k is rows [k*P, (k+1)*P) clipped to the range, with
        sequence k — for a served slice exactly as for a batch run."""
        from repro.api import Dataset
        from repro.output.formats import format_spec

        start, stop = min(a, b), max(a, b)
        packages = cut_packages("t", start, stop, package_size)
        expected = [
            (max(k * package_size, start), min((k + 1) * package_size, stop), k)
            for k in range(start // package_size, -(-stop // package_size))
        ] if stop > start else []
        assert [(p.start, p.stop, p.sequence) for p in packages] == expected
        assert package_count(start, stop, package_size) == len(packages)
        dataset = Dataset(
            GenerationEngine(_tiny_schema(7, 500)), package_size=package_size
        )
        assert dataset._covering_packages(
            "t", start, stop, format_spec("csv")
        ) == packages
        assert partition_rows("t", stop, package_size) == cut_packages(
            "t", 0, stop, package_size
        )

    @given(st.integers(min_value=0, max_value=100_000),
           st.integers(min_value=1, max_value=64))
    def test_node_shares_partition_exactly(self, size, nodes):
        covered = []
        for node in range(nodes):
            start, stop = node_share(size, nodes, node)
            assert 0 <= start <= stop <= size
            covered.extend(range(start, stop))
        assert covered == list(range(size))

    @given(st.integers(min_value=1, max_value=100_000),
           st.integers(min_value=1, max_value=64))
    def test_node_shares_balanced(self, size, nodes):
        widths = [
            stop - start
            for start, stop in (node_share(size, nodes, n) for n in range(nodes))
        ]
        assert max(widths) - min(widths) <= 1


def _tiny_schema(seed: int, rows: int) -> Schema:
    schema = Schema("prop", seed=seed)
    schema.add_table(Table("p", str(max(rows // 4, 1)), [
        Field.of("pid", "BIGINT", GeneratorSpec("IdGenerator"), primary=True),
    ]))
    schema.add_table(Table("t", str(rows), [
        Field.of("id", "BIGINT", GeneratorSpec("IdGenerator"), primary=True),
        Field.of("ref", "BIGINT", GeneratorSpec(
            "DefaultReferenceGenerator", {"table": "p", "field": "pid"}
        )),
        Field.of("num", "INTEGER", GeneratorSpec(
            "IntGenerator", {"min": 0, "max": 1000}
        )),
    ]))
    return schema


class TestGenerationProperties:
    @_fast
    @given(st.integers(min_value=0, max_value=2**32),
           st.integers(min_value=1, max_value=300))
    def test_regeneration_identical(self, seed, rows):
        schema = _tiny_schema(seed, rows)
        a = list(GenerationEngine(schema).iter_rows("t"))
        b = list(GenerationEngine(schema).iter_rows("t"))
        assert a == b

    @_fast
    @given(st.integers(min_value=0, max_value=2**32),
           st.integers(min_value=2, max_value=6),
           st.integers(min_value=5, max_value=100))
    def test_parallel_equals_serial(self, seed, workers, package_size):
        schema = _tiny_schema(seed, 150)
        serial = OutputConfig(kind="memory")
        generate(GenerationEngine(schema), serial, workers=1)
        parallel = OutputConfig(kind="memory")
        generate(GenerationEngine(schema), parallel, workers=workers,
                 package_size=package_size)
        assert serial.memory_output("t") == parallel.memory_output("t")

    @_fast
    @given(st.integers(min_value=0, max_value=2**32),
           st.integers(min_value=1, max_value=8))
    def test_node_union_equals_single_run(self, seed, nodes):
        from repro.scheduler import run_node

        schema = _tiny_schema(seed, 120)
        single = OutputConfig(kind="memory")
        generate(GenerationEngine(schema), single, workers=1)
        parts = []
        for node in range(nodes):
            config = OutputConfig(kind="memory")
            run_node(GenerationEngine(schema), nodes, node, config)
            parts.append(config.memory_output("t"))
        assert "".join(parts) == single.memory_output("t")

    @_fast
    @given(st.integers(min_value=0, max_value=2**32),
           st.integers(min_value=4, max_value=400))
    def test_references_always_resolve(self, seed, rows):
        schema = _tiny_schema(seed, rows)
        engine = GenerationEngine(schema)
        parent_keys = {v[0] for v in engine.iter_rows("p")}
        for _id, ref, _num in engine.iter_rows("t"):
            assert ref in parent_keys

    @_fast
    @given(st.integers(min_value=0, max_value=2**32))
    def test_random_access_equals_sequential(self, seed):
        schema = _tiny_schema(seed, 60)
        engine = GenerationEngine(schema)
        sequential = list(engine.iter_rows("t"))
        for row in (0, 59, 17, 3, 42):
            assert engine.generate_row("t", row) == sequential[row]


class TestFormulaProperties:
    @given(st.integers(min_value=-10**6, max_value=10**6),
           st.integers(min_value=-10**6, max_value=10**6),
           st.integers(min_value=1, max_value=10**6))
    def test_matches_python_eval(self, a, b, c):
        env = {"a": float(a), "b": float(b), "c": float(c)}
        expression = "(a + b) * 2 - a % c + b // c"
        expected = (a + b) * 2 - a % c + b // c
        assert formula_mod.evaluate(expression, env) == expected

    @given(st.floats(min_value=0.001, max_value=10**6, allow_nan=False))
    def test_sqrt_round_trip(self, x):
        result = formula_mod.evaluate("sqrt(${x}) ** 2", {"x": x})
        assert abs(result - x) < max(x * 1e-9, 1e-9)


class TestTextProperties:
    @given(st.lists(st.sampled_from(["red", "green", "blue", "teal"]),
                    min_size=1, max_size=200))
    def test_dictionary_round_trip(self, values):
        d = WeightedDictionary.from_values(values)
        assert WeightedDictionary.loads(d.dumps()).dumps() == d.dumps()

    @given(st.lists(st.sampled_from(["red", "green", "blue"]),
                    min_size=1, max_size=100))
    def test_dictionary_weights_sum_to_one(self, values):
        d = WeightedDictionary.from_values(values)
        assert abs(sum(e.weight for e in d.entries) - 1.0) < 1e-9

    @_fast
    @given(st.lists(
        st.lists(st.sampled_from(["ship", "pack", "box", "send", "mail"]),
                 min_size=1, max_size=8).map(" ".join),
        min_size=1, max_size=30,
    ), st.integers(min_value=0, max_value=2**32))
    def test_markov_only_emits_trained_bigrams(self, texts, seed):
        chain = train_chain(texts)
        observed = set()
        for text in texts:
            tokens = words(text)
            observed.update(zip(tokens, tokens[1:]))
        rng = XorShift64Star(seed)
        for _ in range(10):
            tokens = words(chain.generate(rng, 1, 12))
            for bigram in zip(tokens, tokens[1:]):
                assert bigram in observed

    @_fast
    @given(st.lists(
        st.lists(st.sampled_from(["a", "b", "c", "d"]),
                 min_size=1, max_size=6).map(" ".join),
        min_size=1, max_size=20,
    ))
    def test_markov_serialization_round_trip(self, texts):
        chain = train_chain(texts)
        assert MarkovChain.loads(chain.dumps()).dumps() == chain.dumps()


class TestNullProbabilityProperty:
    @_fast
    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
           st.integers(min_value=0, max_value=2**32))
    @example(probability=2e-5, seed=219)  # one NULL in 400 rows: legitimate
    def test_null_fraction_within_statistical_bounds(self, probability, seed):
        schema = Schema("nulls", seed=seed)
        schema.add_table(Table("t", "400", [
            Field.of("x", "INTEGER", GeneratorSpec(
                "NullGenerator", {"probability": probability},
                [GeneratorSpec("IntGenerator", {"min": 0, "max": 9})],
            )),
        ]))
        engine = GenerationEngine(schema)
        nulls = sum(1 for v in engine.iter_rows("t") if v[0] is None)
        # The NULL count of 400 independent draws is Binomial(400, p).
        # Reject only a count whose exact tail is below 5e-10 on its
        # side: a normal-approximation band is narrower than one row for
        # small p (p = 2e-5 puts one NULL in 400 rows 0.8% of the time).
        mass = [
            math.comb(400, k) * probability**k * (1 - probability) ** (400 - k)
            for k in range(401)
        ]
        assert min(sum(mass[: nulls + 1]), sum(mass[nulls:])) > 5e-10


def _g(name: str, children=(), **params) -> GeneratorSpec:
    return GeneratorSpec(name, params, list(children))


#: one or more specs per registered leaf generator, each valid in the
#: ``t.f`` column of :func:`_meta_schema` (its siblings ``k``, ``n`` and
#: ``v`` come first; ``parent`` and ``supplier`` are reference targets)
_LEAVES = [
    _g("IdGenerator", base=5, step=3),
    _g("RowFormulaGenerator", formula="row // 3 + 1"),
    _g("StaticValueGenerator", constant=7),
    _g("StaticValueGenerator", constant=2**70),
    _g("StaticValueGenerator", constant=True),
    _g("StaticValueGenerator", constant=2.5),
    _g("StaticValueGenerator", constant="x|y"),
    _g("StaticValueGenerator"),
    _g("LongGenerator", min=-5, max=10**12),
    _g("IntGenerator", min=1, max=60, distribution="zipf", exponent=0.9),
    _g("DoubleGenerator", min=-3.0, max=3.0, places=2),
    _g("DoubleGenerator", distribution="normal", mean=1.0, stddev=2.0),
    _g("BooleanGenerator", true_probability=0.4),
    _g("DateGenerator", min="1995-03-01", max="1995-04-30"),
    _g("TimestampGenerator", min="1995-01-01", max="1995-01-02"),
    _g("HistogramGenerator", bounds=[0, 10, 100], weights=[3, 1], as_int=True),
    _g("DictListGenerator", values=["ab", "cd", "ef"], weights=[1, 2, 3]),
    _g("DictListGenerator", values=["ab", "cd"], unique_suffix=True),
    _g("DictListGenerator", values=["3", "4"], as_int=True),
    _g("DictListGenerator", values=["p", "q", "r"], by_row=True),
    _g("DefaultReferenceGenerator", table="parent", field="id"),
    _g("DefaultReferenceGenerator", table="parent", field="id", distribution="zipf"),
    _g("DefaultReferenceGenerator", table="parent", field="name"),
    _g("FormulaGenerator", formula="[n] * 2 + 1"),
    _g("MarkovChainGenerator", model="markov:m", min=2, max=7),
    _g("RandomStringGenerator", min=0, max=6, alphabet="hex"),
    _g("RandomStringGenerator", min=3, max=3),
    _g("PatternStringGenerator", pattern="^#-@@"),
    _g("PersonNameGenerator"),
    _g("CompanyNameGenerator"),
    _g("AddressGenerator"),
    _g("CityGenerator"),
    _g("CountryGenerator"),
    _g("EmailGenerator"),
    _g("PhoneGenerator"),
    _g("UrlGenerator"),
    _g("TextGenerator", min=1, max=6),
    _g("TpchPsSuppkeyGenerator"),
]
_META = ("NullGenerator", "SequentialGenerator", "ProbabilityGenerator", "SwitchGenerator")

_META_CHAIN = train_chain([
    "the quick brown fox jumps over the lazy dog",
    "pack my box with five dozen jugs",
    "quick",
    "the end",
])


def _meta_node(children):
    """Null / Sequential / Probability / Switch over drawn *children*."""
    child = children.map(lambda spec: [spec])
    some = st.lists(children, min_size=1, max_size=3)
    return st.one_of(
        st.tuples(st.sampled_from([0.0, 0.3, 1.0]), child).map(
            lambda a: _g("NullGenerator", a[1], probability=a[0])),
        st.tuples(st.sampled_from([{"separator": "|"}, {"template": "<{0}>"}]), some).map(
            lambda a: _g("SequentialGenerator", a[1], **a[0])),
        some.map(lambda kids: _g(
            "ProbabilityGenerator", kids, weights=[1.0 + i for i in range(len(kids))])),
        # on the boolean sibling ``k``: one or two cases, with or without a default
        st.tuples(st.integers(1, 2), st.booleans(), some).map(lambda a: _g(
            "SwitchGenerator", (a[2] * 3)[: a[0] + a[1]], field="k",
            cases=["True", "False"][: a[0]])),
        # the non-chosen child raises: ``v`` is numeric only where k is True
        child.map(lambda kid: _g(
            "SwitchGenerator", [_g("FormulaGenerator", formula="[v] + 1")] + kid,
            field="k", cases=["True"])),
    )


def _stack(depth: int):
    """A meta generator at the root, stacked up to *depth* levels deep
    over every leaf."""
    if depth == 1:
        return _meta_node(st.sampled_from(_LEAVES))
    return _meta_node(st.one_of(st.sampled_from(_LEAVES), _stack(depth - 1)))


def _meta_schema(spec: GeneratorSpec, seed: int, rows: int) -> Schema:
    schema = Schema("meta", seed=seed)
    schema.add_table(Table("supplier", "40", [
        Field.of("s_id", "BIGINT", _g("IdGenerator"), primary=True),
    ]))
    schema.add_table(Table("parent", "30", [
        Field.of("id", "BIGINT", _g("IdGenerator", base=7, step=3), primary=True),
        Field.of("name", "TEXT", _g("CityGenerator")),
    ]))
    schema.add_table(Table("t", str(rows), [
        Field.of("k", "BOOLEAN", _g("BooleanGenerator")),
        Field.of("n", "INTEGER", _g("IntGenerator", min=0, max=50)),
        Field.of("v", "TEXT", _g("SwitchGenerator", [
            _g("IntGenerator", min=0, max=9), _g("StaticValueGenerator", constant="x"),
        ], field="k", cases=["True"])),
        Field.of("f", "VARCHAR(40)", spec),
    ]))
    return schema


def _scalar_cells(engine: GenerationEngine, rows: int):
    """Per row: ``t.f`` by ``generate`` and the stream's state after it."""
    from repro.prng.seeding import ColumnSeeder

    bound = engine.bound_table("t")
    generator = bound.generators[-1]
    seeder = ColumnSeeder(engine.hierarchy, "t", "f")
    ctx = engine.new_context("t")
    values, ends = [], []
    for row in range(rows):
        earlier = bound.generate_row(row, ctx)[:-1]
        ctx.row, ctx.row_values = row, earlier
        ctx.rng.reseed_mixed(seeder.seed_for_row(row))
        values.append(generator.generate(ctx))
        ends.append(ctx.rng.state)
    return values, ends


def _block_cells(engine: GenerationEngine, start: int, stop: int):
    """``t.f`` over rows ``[start, stop)`` by ``generate_block`` (as
    ``generate_columns`` runs it) and the seed block it leaves."""
    from repro.prng import blocks
    from repro.prng.seeding import ColumnSeeder

    bound = engine.bound_table("t")
    ctx = engine.new_context("t")
    rows = np.arange(start, stop, dtype=np.int64)
    hashes = blocks.row_hash_block(rows)
    ctx.batch_columns = []
    for name, generator in zip(bound.column_names, bound.generators):
        ctx.seed_block = ColumnSeeder(engine.hierarchy, "t", name).seed_block_from_hashes(hashes)
        ctx.batch_columns.append(generator.generate_block(ctx, rows))
    return ctx.batch_columns[-1].to_pylist(), ctx.seed_block.array.tolist()


class TestMetaStackOracle:
    """Every leaf under every stacking of the meta generators: a block is
    its rows' scalar values, and it leaves each row's stream where the
    scalar ``generate`` leaves it — the contract a meta generator's
    kernel builds on when it runs its children's kernels in turn."""

    def test_every_registered_generator_is_a_leaf_or_a_meta(self):
        from repro.generators.registry import _REGISTRY, known_generators

        library = {
            name for name in known_generators()
            if _REGISTRY[name].__module__.startswith("repro.")
        }
        assert library <= {spec.name for spec in _LEAVES} | set(_META)

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_stack(3), st.integers(min_value=0, max_value=2**32),
           st.integers(min_value=66, max_value=130))
    def test_blocks_equal_rows_and_leave_their_streams(self, spec, seed, rows):
        artifacts = ArtifactStore()
        artifacts.put("markov:m", _META_CHAIN)
        engine = GenerationEngine(_meta_schema(spec, seed, rows), artifacts)
        values, ends = _scalar_cells(engine, rows)
        odd = next(size for size in range(50, rows) if rows % size)
        for size in (1, 31, 32, 33, odd):
            got_values, got_ends = [], []
            for start in range(0, rows, size):
                block_values, block_ends = _block_cells(engine, start, min(start + size, rows))
                got_values += block_values
                got_ends += block_ends
            assert [(type(v), v) for v in got_values] == [(type(v), v) for v in values], size
            assert got_ends == ends, size


# -- differential query oracle -------------------------------------------------

_ORACLE_WORLDS = ("tpch", "ssb", "bigbench", "sink")
_NUDGED = (TypeFamily.INTEGER, TypeFamily.FLOAT, TypeFamily.DECIMAL)
_SUMMABLE = (*_NUDGED, TypeFamily.BOOLEAN)


@functools.lru_cache(maxsize=None)
def _oracle_world(name: str):
    """A world's schema, its virtual executor, the SQLite database its
    data was loaded into, and 200 rows of each table to draw operands
    from. The kitchen sink (``sink``) adds Switch, Probability, Boolean
    and forward-reading Formula columns to the three suites."""
    if name == "sink":
        from tests.test_batch_generation import kitchen_sink_schema

        schema, artifacts = kitchen_sink_schema()
    else:
        schema, artifacts = suite_model(name, 0.001)
    engine = GenerationEngine(schema, artifacts)
    adapter = SQLiteAdapter(":memory:")
    adapter.execute_script(create_schema_sql(schema, "sqlite"))
    load(engine, adapter)
    samples = {
        table.name: dict(zip(
            [field.name for field in table.fields],
            [column.to_pylist() for column in
             engine.generate_columns(table.name, 0, 200).columns],
        ))
        for table in schema.tables
    }
    return schema, VirtualExecutor(engine), adapter, samples


@st.composite
def _oracle_queries(draw):
    """A filter-aggregate query over one table of one world: up to two
    predicates of any operator on any column, operands drawn from the
    column's own values (numbers sometimes nudged off them), and one to
    three aggregates — SUM / AVG over numeric columns. Only numeric
    columns get nudged operands: a TEXT column holding numbers (the sink's
    ``w_prob``) compares its stored text, and ``execute`` refuses a float
    operand there by design."""
    world = draw(st.sampled_from(_ORACLE_WORLDS))
    schema, _executor, _adapter, samples = _oracle_world(world)
    table = draw(st.sampled_from(schema.tables))
    values = samples[table.name]

    def operand(field):
        present = [v for v in values[field.name] if v is not None]
        value = draw(st.sampled_from(present)) if present else None
        nudge = field.dtype.family in _NUDGED and type(value) in (int, float)
        if nudge and draw(st.booleans()):
            value += draw(st.sampled_from((-1, 1, 0.5, -0.25)))
        return value

    predicates = []
    for _ in range(draw(st.integers(0, 2))):
        field = draw(st.sampled_from(table.fields))
        op = draw(st.sampled_from(list(Op)))
        if op in (Op.IS_NULL, Op.NOT_NULL):
            predicates.append(Predicate(field.name, op))
        elif op is Op.BETWEEN:
            predicates.append(Predicate(field.name, op, operand(field), operand(field)))
        elif op is Op.IN:
            count = draw(st.integers(1, 3))
            predicates.append(Predicate(field.name, op, [operand(field) for _ in range(count)]))
        else:
            predicates.append(Predicate(field.name, op, operand(field)))
    summable = [f.name for f in table.fields if f.dtype.family in _SUMMABLE]
    names = [f.name for f in table.fields]
    aggregates = []
    for _ in range(draw(st.integers(1, 3))):
        func = draw(st.sampled_from(("count", "sum", "avg", "min", "max")))
        if func == "count":
            column = draw(st.none() | st.sampled_from(names))
        elif func in ("sum", "avg") and summable:
            column = draw(st.sampled_from(summable))
        else:
            func, column = draw(st.sampled_from(("min", "max"))), draw(st.sampled_from(names))
        aggregates.append(Aggregate(func, column))
    return world, Query(table.name, aggregates, predicates)


class TestQueryOracle:
    """The model's exact answer is SQL's over the loaded data: integers
    exactly, floats to 1e-9 relative, dates and text as stored. One
    assertion covers projected generation, SQL rendering and loading."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_oracle_queries())
    @example(("tpch", Query("lineitem", [Aggregate("avg", "l_extendedprice")])))
    @example(("tpch", Query(
        "lineitem", [Aggregate("count"), Aggregate("avg", "l_quantity")],
        [Predicate("l_quantity", Op.LT, 24)],
    )))
    @example(("sink", Query(
        "wide", [Aggregate("count"), Aggregate("min", "w_switch")],
        [Predicate("w_switch", Op.IN, ["yes", "n7"])],
    )))
    def test_execute_equals_sql(self, drawn):
        world, query = drawn
        _schema, executor, adapter, _samples = _oracle_world(world)
        answer = list(executor.execute(query).values())
        row = adapter.execute(query.to_sql())[0]
        assert len(answer) == len(row)
        for expected, actual in zip(answer, row):
            assert same_answer(expected, actual), (query.to_sql(), answer, row)


# -- gather oracle -----------------------------------------------------------

_GATHER_WORLDS = ("tpch", "ssb", "bigbench", "sink")


@functools.lru_cache(maxsize=None)
def _gather_world(name: str):
    """A world's engine and every table's full block, as value lists.
    The kitchen sink (``sink``) holds every registered generator class."""
    if name == "sink":
        from tests.test_batch_generation import kitchen_sink_schema

        schema, artifacts = kitchen_sink_schema()
    else:
        schema, artifacts = suite_model(name, 0.001)
    engine = GenerationEngine(schema, artifacts)
    full = {
        table: [column.to_pylist() for column in engine.generate_columns(table).columns]
        for table in engine.sizes
    }
    return engine, full


def _assert_gather(world: str, table: str, rows: list[int], fields=None) -> None:
    """``gather`` at *rows* (projected to *fields*) holds the same cells
    as the full block and as ``compute_value``, types included."""
    engine, full = _gather_world(world)
    names = engine.bound_table(table).column_names
    block = engine.gather(table, np.array(rows, dtype=np.int64), fields)
    assert len(block) == len(rows) and block.names == names
    for index, name in enumerate(names):
        if fields is not None and name not in fields:
            continue
        got = [(type(v), v) for v in block.columns[index].to_pylist()]
        cells = [full[table][index][row] for row in rows]
        assert got == [(type(v), v) for v in cells], (table, name)
        scalar = [engine.compute_value(table, name, row) for row in rows]
        assert got == [(type(v), v) for v in scalar], (table, name)


@st.composite
def _gathers(draw):
    """A world, a table, a row array and a projection: drawn rows in drawn
    order (so shuffled, with repeats), reversed, every row twice, or with
    the table's last row appended; the projection is all fields or a
    drawn subset."""
    world = draw(st.sampled_from(_GATHER_WORLDS))
    engine, _full = _gather_world(world)
    table = draw(st.sampled_from(sorted(engine.sizes)))
    size = engine.sizes[table]
    rows = draw(st.lists(st.integers(0, size - 1), max_size=48))
    shape = draw(st.sampled_from(("drawn", "reversed", "twice", "last")))
    rows = {"drawn": rows, "reversed": rows[::-1], "twice": rows + rows,
            "last": rows + [size - 1]}[shape]
    names = engine.bound_table(table).column_names
    fields = draw(st.none() | st.lists(st.sampled_from(names), min_size=1, unique=True))
    return world, table, rows, fields


class TestGatherOracle:
    """A block of any rows — any order, repeats, empty — is the same cells
    of the full block and of ``compute_value``, for every column of the
    three suites and of the kitchen sink (every registered class)."""

    @pytest.mark.parametrize("world", _GATHER_WORLDS)
    def test_every_column_at_shuffled_repeated_reversed_rows(self, world):
        engine, _full = _gather_world(world)
        for table, size in sorted(engine.sizes.items()):
            shuffled = random.Random(size).sample(range(size), min(size, 24))
            rows = shuffled + shuffled[::-1] + [size - 1]
            _assert_gather(world, table, rows)  # >= 32 cells: the kernels
            _assert_gather(world, table, rows[:9])  # the small-block loops
            _assert_gather(world, table, [])

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_gathers())
    @example(("sink", "wide", [95, 0, 95, 3, 2, 1], None))
    @example(("sink", "wide", [], ["w_switch", "w_form_fwd"]))
    def test_gather_equals_full_block_and_compute_value(self, drawn):
        _assert_gather(*drawn)
