"""Property-based tests (hypothesis) for the core invariants.

These are the guarantees the paper's generation strategy rests on:
repeatability, parallel/serial equivalence, exact node partitioning,
reference integrity at any scale, and round-trip-stable serialization.
"""

from __future__ import annotations

import math

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.engine import GenerationEngine
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
from repro.scheduler.work import node_share, partition_rows
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
            run_node(schema, nodes, node, config)
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


class TestQueryPredictionProperties:
    """Analytic predictions track exact virtual execution for random
    range predicates (the §7 verification-results machinery)."""

    @staticmethod
    def _schema(seed: int) -> Schema:
        schema = Schema("qprop", seed=seed)
        schema.add_table(Table("t", "800", [
            Field.of("v", "INTEGER", GeneratorSpec(
                "IntGenerator", {"min": 0, "max": 99}
            )),
        ]))
        return schema

    @_fast
    @given(st.integers(min_value=0, max_value=2**32),
           st.integers(min_value=0, max_value=99),
           st.integers(min_value=0, max_value=99))
    def test_between_count_prediction(self, seed, a, b):
        from repro.core.queries import Aggregate, Op, Predicate, Query, VirtualExecutor

        low, high = min(a, b), max(a, b)
        schema = self._schema(seed)
        executor = VirtualExecutor(schema)
        query = Query("t", [Aggregate("count")],
                      [Predicate("v", Op.BETWEEN, low, high)])
        predicted = executor.predict(query)["COUNT(*)"]
        exact = executor.execute(query)["COUNT(*)"]
        selectivity = (high - low + 1) / 100
        sigma = (800 * selectivity * (1 - selectivity)) ** 0.5
        assert abs(exact - predicted.value) <= 5 * sigma + 2

    @_fast
    @given(st.integers(min_value=0, max_value=2**32),
           st.integers(min_value=0, max_value=100))
    def test_lt_prediction_monotone(self, seed, cut):
        from repro.core.queries import Aggregate, Op, Predicate, Query, VirtualExecutor

        executor = VirtualExecutor(self._schema(seed))
        query = Query("t", [Aggregate("count")], [Predicate("v", Op.LT, cut)])
        predicted = executor.predict(query)["COUNT(*)"]
        assert 0 <= predicted.value <= 800
        exact = executor.execute(query)["COUNT(*)"]
        assert abs(exact - predicted.value) <= 800 * 0.1 + 3
