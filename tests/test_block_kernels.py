"""The array kernels of MarkovChain / Formula / RowFormula / reference keys
against the scalar oracle, on inputs picked to break them.

``tests/test_batch_generation.py`` proves block == scalar on a schema that
covers every generator; here each kernel meets the cases its shortcuts
could get wrong — chains with dead ends, padded start states and
unreachable minimum lengths, formulas that must decline array evaluation,
decimal rounding at exact ties — plus the cache discipline of the shared
chain tables, the one weighted draw (``Categorical.index_block`` and the
chains' concatenated guide tables) against ``bisect_left``, and the
ratchet that keeps TPC-H off the object fallback.
"""

from __future__ import annotations

import bisect
import json
import math
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import columnar
from repro.api import Dataset
from repro.engine import SCALAR_ROWS, GenerationEngine
from repro.exceptions import FormulaError, GenerationError, ModelError
from repro.generators.base import Generator
from repro.model.artifacts import ArtifactStore
from repro.model.formula import compile_formula
from repro.model.schema import Field, GeneratorSpec, Schema, Table
from repro.prng import blocks
from repro.prng.distributions import Categorical, guide_table, lookup
from repro.prng.xorshift import _XORSHIFT64STAR_MUL, MASK64, XorShift64Star
from repro.suites import suite_model
from repro.suites.tpch.schema import COMMENT_MODEL
from repro.text.markov import MarkovChain, train_chain

ROWS = 400  # well above SCALAR_ROWS


def _engine(fields, artifacts=None, rows=ROWS) -> GenerationEngine:
    schema = Schema("kernels", seed=1603)
    schema.add_table(Table("parent", "50", [
        Field.of("id", "BIGINT", GeneratorSpec("IdGenerator", {"base": 7, "step": 3}),
                 primary=True),
    ]))
    schema.add_table(Table("t", str(rows), fields))
    return GenerationEngine(schema, artifacts)


def _scalar_rows(engine, start, stop):
    bound = engine.bound_table("t")
    ctx = engine.new_context("t")
    return [bound.generate_row(row, ctx) for row in range(start, stop)]


CUTS = ((0, ROWS), (3, 4), (3, 3 + SCALAR_ROWS), (117, 350))


def _assert_block_is_scalar(engine, kinds=None, cuts=CUTS):
    """Block == scalar, value for value and type for type; *kinds* pins
    the column kinds so a silent fallback (or a kernel that should have
    declined) fails too."""
    for start, stop in cuts:
        block = engine.generate_columns("t", start, stop)
        expected = _scalar_rows(engine, start, stop)
        got = block.to_rows()
        assert got == expected
        assert [[type(v) for v in row] for row in got] == [
            [type(v) for v in row] for row in expected
        ]
        if kinds is not None:
            assert [column.kind for column in block.columns] == list(kinds)


# -- Markov ------------------------------------------------------------------


def _chain_from_json(order, starts, transitions) -> MarkovChain:
    return MarkovChain.loads(json.dumps(
        {"order": order, "starts": starts, "transitions": transitions}
    ))


MIXED = [
    "the quick brown fox jumps over the lazy dog near the quiet river bank",
    "pack my box with five dozen liquor jugs",
    "how vexingly quick daft zebras jump",
    "quick",
    "the end",
    "a b",
    "sphinx of black quartz judge my vow",
]

CHAINS = {
    "order1": lambda: train_chain(MIXED),
    # one- and two-word documents become END-padded start states
    "order2": lambda: train_chain(MIXED, order=2),
    "order3": lambda: train_chain(MIXED, order=3),
    # "b" and "c" have no transitions: END without a draw
    "dead_ends": lambda: _chain_from_json(
        1,
        [[["a"], 3], [["c"], 1]],
        [[["a"], [["a", 2], ["b", 3], ["c", 1]]]],
    ),
    # no text is ever longer than two words
    "short": lambda: train_chain(["x y", "y", "x", "z x"]),
}

BOUNDS = [
    {"min": 1, "max": 1},
    {"min": 2, "max": 6},
    {"min": 4, "max": 9, "max_chars": 20},
    {"min": 1, "max": 12, "max_chars": 3},  # shorter than most first words
    {"min": 1, "max": 2},  # below order 3: the start state overshoots
]


class TestMarkovKernel:
    @pytest.mark.parametrize("bounds", BOUNDS, ids=lambda b: "-".join(map(str, b.values())))
    @pytest.mark.parametrize("chain", sorted(CHAINS))
    def test_block_equals_scalar(self, chain, bounds):
        artifacts = ArtifactStore()
        artifacts.put("markov:m", CHAINS[chain]())
        spec = GeneratorSpec("MarkovChainGenerator", {"model": "markov:m", **bounds})
        _assert_block_is_scalar(
            _engine([Field.of("f", "TEXT", spec)], artifacts), kinds=["str"]
        )

    @pytest.mark.parametrize("probability", [0.0, 0.3, 1.0])
    def test_under_null_generator(self, probability):
        artifacts = ArtifactStore()
        artifacts.put("markov:m", CHAINS["order2"]())
        spec = GeneratorSpec("NullGenerator", {"probability": probability}, [
            GeneratorSpec("MarkovChainGenerator",
                          {"model": "markov:m", "min": 3, "max": 8, "max_chars": 30}),
        ])
        engine = _engine([Field.of("f", "VARCHAR(60)", spec)], artifacts)
        _assert_block_is_scalar(
            engine, kinds=["object" if probability == 1.0 else "str"]
        )

    def test_unreachable_minimum_takes_the_longest_attempt(self):
        # min=4 can never be met: all 20 attempts fail on every row and
        # the scalar path's "longest attempt" answer is used.
        artifacts = ArtifactStore()
        chain = CHAINS["short"]()
        artifacts.put("markov:m", chain)
        spec = GeneratorSpec("MarkovChainGenerator", {"model": "markov:m", "min": 4, "max": 6})
        engine = _engine([Field.of("f", "TEXT", spec)], artifacts)
        _assert_block_is_scalar(engine, kinds=["str"])
        _, counts, _, exhausted, _ = chain.block_tables().sample(
            np.arange(1, 101, dtype=np.uint64), 4, 6
        )
        assert sorted(exhausted) == list(range(100)) and not counts.any()

    def test_some_rows_retry(self):
        # min=5 is reachable only through the long documents, so many
        # rows need retries (and keep drawing from their own stream).
        chain = CHAINS["order1"]()
        _, counts, _, exhausted, _ = chain.block_tables().sample(
            np.arange(1, 2001, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15), 5, 9
        )
        assert not exhausted and counts.min() >= 5 and counts.max() <= 9

    # "abc de fgh" is the only text (10 characters)
    @pytest.mark.parametrize("max_chars, text", [
        (10, "abc de fgh"),  # exactly max_chars: nothing is cut
        (11, "abc de fgh"),
        (9, "abc de"),
        (6, "abc"),  # the cut lands on a space: back to the one before
        (7, "abc de"),  # the cut lands just past a space
        (3, "abc"),
        (2, "ab"),  # the first word is longer than max_chars: cut inside it
        (1, "a"),
    ])
    def test_clip_boundaries(self, max_chars, text):
        chain = _chain_from_json(
            1, [[["abc"], 1]], [[["abc"], [["de", 1]]], [["de"], [["fgh", 1]]]]
        )
        assert self._texts(chain, 1, 5, max_chars) == {text}

    def test_retry_after_an_attempt_over_max_chars(self):
        # a one-word attempt is over max_chars and too short, so it is
        # retried; the retry starts from an empty text and keeps both words
        chain = _chain_from_json(
            1, [[["longwordhere"], 1], [["ab"], 1]], [[["ab"], [["cd", 1]]]]
        )
        assert self._texts(chain, 2, 4, 8) == {"ab cd"}
        _, counts, cut, exhausted, _ = chain.block_tables().sample(
            np.arange(1, 1001, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15), 2, 4, 8
        )
        assert not cut and not exhausted and set(counts.tolist()) == {2}

    @staticmethod
    def _texts(chain, low, high, max_chars) -> set:
        artifacts = ArtifactStore()
        artifacts.put("markov:m", chain)
        spec = GeneratorSpec("MarkovChainGenerator", {
            "model": "markov:m", "min": low, "max": high, "max_chars": max_chars,
        })
        engine = _engine([Field.of("f", "TEXT", spec)], artifacts)
        _assert_block_is_scalar(engine, kinds=["str"])
        return {row[0] for row in engine.generate_rows("t", 0, ROWS)}

    def test_tokens_with_spaces_keep_the_scalar_loop(self):
        chain = _chain_from_json(
            1, [[["new york"], 1]], [[["new york"], [["new york", 1], ["\x00END", 1]]]]
        )
        # such a chain gets the flag and nothing else: no arrays are built
        assert vars(chain.block_tables()) == {"plain": False}
        artifacts = ArtifactStore()
        artifacts.put("markov:m", chain)
        spec = GeneratorSpec("MarkovChainGenerator",
                             {"model": "markov:m", "min": 1, "max": 4, "max_chars": 12})
        _assert_block_is_scalar(
            _engine([Field.of("f", "TEXT", spec)], artifacts), kinds=["object"]
        )

    def test_missing_seed_block_is_a_generation_error(self):
        artifacts = ArtifactStore()
        artifacts.put("markov:m", CHAINS["order1"]())
        spec = GeneratorSpec("MarkovChainGenerator", {"model": "markov:m"})
        engine = _engine([Field.of("f", "TEXT", spec)], artifacts)
        generator = engine.bound_table("t")._generators[0]
        ctx = engine.new_context("t")
        assert ctx.seed_block is None
        with pytest.raises(GenerationError, match="needs ctx.seed_block"):
            generator.generate_block(ctx, np.arange(ROWS))

    def test_charset_covers_every_text(self):
        engine = GenerationEngine(*suite_model("tpch", 0.01))
        block = engine.generate_columns("orders", 0, 2000)
        column = block.columns[block.names.index("o_comment")]
        assert column.kind == "str" and " " in column.charset
        assert column.charset.issuperset("".join(column.data))

    def test_negative_max_chars_rejected(self):
        artifacts = ArtifactStore()
        artifacts.put("markov:m", CHAINS["order1"]())
        spec = GeneratorSpec("MarkovChainGenerator", {"model": "markov:m", "max_chars": -3})
        with pytest.raises(ModelError, match="max_chars"):
            _engine([Field.of("f", "TEXT", spec)], artifacts)


class TestChainTablesCache:
    def _engine(self):
        artifacts = ArtifactStore()
        chain = train_chain(MIXED)
        artifacts.put("markov:m", chain)
        spec = GeneratorSpec("MarkovChainGenerator", {"model": "markov:m", "min": 2, "max": 6})
        return _engine([Field.of("f", "TEXT", spec)], artifacts), chain

    def test_short_ranges_build_no_tables(self):
        """A range shorter than ``SCALAR_ROWS`` is computed row by row
        wherever it becomes rows or bytes; a column block of any length
        builds the tables."""
        engine, chain = self._engine()
        short = SCALAR_ROWS - 1
        engine.preview("t", rows=short)
        engine.generate_rows("t", 5, 5 + short)
        Dataset(engine).slice("t", 5, 5 + short, format="csv")
        assert chain._tables is None
        engine.generate_columns("t", 5, 6)
        assert chain._tables is not None

    def test_built_once_under_racing_threads(self):
        chain = train_chain(MIXED)
        seen, barrier = [], threading.Barrier(8)

        def build():
            barrier.wait(timeout=10)
            seen.append(chain.block_tables())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(seen) == 8 and all(tables is seen[0] for tables in seen)

    def test_tables_are_never_pickled_and_training_drops_them(self):
        engine, chain = self._engine()
        first = engine.generate_rows("t", 0, 100)
        assert chain._tables is not None
        assert pickle.loads(pickle.dumps(chain))._tables is None
        restored = pickle.loads(pickle.dumps(engine))
        assert restored.artifacts.get("markov:m")._tables is None
        assert restored.generate_rows("t", 0, 100) == first
        chain.train("one more document")
        assert chain._tables is None

    def test_token_ids_use_the_narrowest_dtype(self):
        assert train_chain(MIXED).block_tables().token_dtype == np.uint8
        tables = GenerationEngine(*suite_model("tpch", 0.001)).artifacts.get(COMMENT_MODEL).block_tables()
        assert tables.token_dtype == np.uint16
        tokens, _, _, _, _ = tables.sample(np.arange(1, 10_001, dtype=np.uint64), 3, 14)
        assert tokens.nbytes <= 10_000 * 15 * 2

    def test_one_guide_table_at_most_twice_the_choices(self):
        tables = GenerationEngine(*suite_model("tpch", 0.001)).artifacts.get(COMMENT_MODEL).block_tables()
        choices = len(tables.below)
        assert choices > 1000 and len(tables.guide) <= 2 * choices
        # the global rank/key lookup is gone, not kept beside the guide
        assert not {"keys", "cdf_values", "stride"} & set(vars(tables))


#: segment sizes on both sides of the guide's power-of-two bucket counts
GUIDE_SIZES = (1, 2, 3, 4, 5, 8, 9, 16, 17, 64, 65)


@st.composite
def _segment_weights(draw):
    """One segment's counts: equal (dyadic CDF entries that sit exactly on
    bucket edges when the size is a power of two), one of them 10**9
    against the rest at 1 or the reverse, or arbitrary."""
    size = draw(st.sampled_from(GUIDE_SIZES))
    kind = draw(st.sampled_from(("equal", "heavy", "light", "any")))
    if kind == "any":
        return draw(st.lists(st.integers(1, 10**9), min_size=size, max_size=size))
    odd = draw(st.integers(0, size - 1))
    common, single = {"equal": (1, 1), "heavy": (1, 10**9), "light": (10**9, 1)}[kind]
    return [single if index == odd else common for index in range(size)]


def _edge_draws(cdf, buckets: int) -> list[int]:
    """The 53-bit draws ``k`` where a guide lookup can go wrong: 0 and
    2**53 - 1, both sides of every bucket edge, and every CDF entry's
    own grid point with its neighbours."""
    shift = 53 - (buckets.bit_length() - 1)
    draws = {0, (1 << 53) - 1}
    for bucket in range(1, buckets):
        draws |= {(bucket << shift) - 1, bucket << shift}
    for entry in cdf:
        point = math.ceil(entry * 2**53)
        draws |= {point - 1, point, point + 1}
    return sorted(k for k in draws if 0 <= k < 1 << 53)


class TestGuideLookup:
    @settings(max_examples=80, deadline=None)
    @given(segments=st.lists(_segment_weights(), min_size=2, max_size=4))
    @example(segments=[[1, 1, 1, 1], [1] * 8])
    @example(segments=[[10**9] + [1] * 64, [1] * 65])
    def test_guide_lookup_is_bisect_left_per_segment(self, segments):
        start, *states = segments
        chain = _chain_from_json(
            1,
            [[[f"w{j}"], weight] for j, weight in enumerate(start)],
            [
                [[f"s{i}"], [[f"w{j}", weight] for j, weight in enumerate(weights)]]
                for i, weights in enumerate(states)
            ],
        )
        tables = chain.block_tables()
        # ChainTables' segment order: the states with transitions, then start
        samplers = [chain._transition_categorical((f"s{i}",)) for i in range(len(states))]
        samplers.append(chain._start_categorical())
        assert len(tables.guide) <= 2 * len(tables.below)
        for segment, sampler in enumerate(samplers):
            at, shift = tables.segment_at[segment], tables.segment_shift[segment]
            buckets = 1 << (64 - int(shift))
            assert len(sampler) <= buckets <= max(2, 2 * len(sampler) - 1)
            first = int(tables.guide[at])  # bucket 0 holds the segment's first choice
            draws = _edge_draws(sampler.cdf, buckets)
            expected = [first + bisect.bisect_left(sampler.cdf, k * 2.0**-53) for k in draws]
            for low in (0, 0x7FF):  # the 11 bits the double drops
                outputs = (np.array(draws, dtype=np.uint64) << np.uint64(11)) | np.uint64(low)
                got = lookup(
                    tables.guide,
                    tables.below,
                    outputs,
                    np.full(len(draws), at, dtype=np.uint64),
                    np.full(len(draws), shift, dtype=np.uint64),
                )
                assert got.tolist() == expected


def _undo_xorshift(x: int, shift: int, left: bool) -> int:
    """Invert ``x ^= x >> shift`` (``<<`` if *left*) on 64 bits."""
    y = x
    for _ in range(64 // shift + 1):
        y = x ^ ((y << shift) & MASK64 if left else y >> shift)
    return y


def _state_before(output: int) -> int:
    """The xorshift64* state whose next output is *output*."""
    x = output * pow(_XORSHIFT64STAR_MUL, -1, 1 << 64) & MASK64
    x = _undo_xorshift(x, 27, left=False)
    x = _undo_xorshift(x, 25, left=True)
    return _undo_xorshift(x, 12, left=False)


#: decimal weights: fractions of their sum do not add up exactly, and
#: ``OVERSHOOT``'s running sum reaches 1.0000000000000002 before its last
#: (zero) entry, which ``Categorical`` pins back to 1.0
DECIMALS = (0.05, 0.1, 0.15, 0.2, 0.3, 1 / 3, 0.6, 0.7)
OVERSHOOT = [0.05, 0.05, 0.15, 0.7, 0.2, 0.0]


@st.composite
def _weights(draw):
    """Categorical weights: the guide segments' shapes, those with zero
    weights spliced in (leading, inside, trailing), and decimal floats
    ending in a zero weight."""
    kind = draw(st.sampled_from(("segment", "zeros", "decimal")))
    if kind == "decimal":
        return draw(st.lists(st.sampled_from(DECIMALS), min_size=1, max_size=9)) + [0.0]
    weights = draw(_segment_weights())
    if kind == "zeros":
        for at in draw(st.lists(st.integers(0, len(weights)), min_size=1, max_size=4)):
            weights.insert(at, 0)
    return weights


class TestIndexBlock:
    def test_overshoot_example_runs_above_one(self):
        assert max(Categorical(range(6), OVERSHOOT).cdf[:-1]) > 1.0

    @settings(max_examples=150, deadline=None)
    @given(weights=_weights())
    @example(weights=[1])
    @example(weights=[0, 0, 1, 2])
    @example(weights=[1, 0, 0, 3])
    @example(weights=[2, 1, 0, 0])
    @example(weights=[1] * 16)
    @example(weights=[10**9] + [1] * 16)
    @example(weights=OVERSHOOT)
    def test_index_block_is_bisect_left(self, weights):
        choice = Categorical(range(len(weights)), weights)
        buckets = 1 << (64 - guide_table(choice.cdf)[2])
        # both ends of every dropped 11-bit tail; output 0 has no state
        # (xorshift64* never reaches state 0)
        outputs = [
            k << 11 | low for k in _edge_draws(choice.cdf, buckets) for low in (0, 0x7FF)
        ][1:]
        states = [_state_before(output) for output in outputs]
        seeds = blocks.SeedBlock(np.array(states, dtype=np.uint64))
        got = choice.index_block(seeds)
        expected, ends = [], []
        for state in states:
            rng = XorShift64Star()
            rng.reseed_mixed(state)
            expected.append(choice.sample_index(rng))
            ends.append(rng.state)
        assert got.tolist() == expected
        assert seeds.array.tolist() == ends  # one draw per row

    def test_scalar_draws_build_no_table(self, rng):
        choice = Categorical("abc", [1, 2, 3])
        choice.sample(rng)
        assert choice._table is None
        choice.index_block(blocks.SeedBlock(np.arange(1, 9, dtype=np.uint64)))
        assert choice._table is not None

    def test_first_block_use_under_racing_threads(self):
        weights = [(i * 7919) % 101 for i in range(300)]
        choice = Categorical(range(300), weights)
        seeds = np.arange(1, 2001, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        expected = Categorical(range(300), weights).index_block(blocks.SeedBlock(seeds))
        seen, barrier = [], threading.Barrier(8)

        def draw():
            barrier.wait(timeout=10)
            seen.append(choice.index_block(blocks.SeedBlock(seeds)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=draw) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(seen) == 8 and all(got.tolist() == expected.tolist() for got in seen)


# -- formulas ----------------------------------------------------------------

NUMERIC_SIBLINGS = [
    Field.of("id", "BIGINT", GeneratorSpec("IdGenerator")),
    Field.of("a", "BIGINT", GeneratorSpec("LongGenerator", {"min": -5000, "max": 5000})),
    Field.of("d", "DOUBLE", GeneratorSpec(
        "DoubleGenerator", {"min": -3.0, "max": 9.0, "places": 2}
    )),
    Field.of("big", "BIGINT", GeneratorSpec(
        "LongGenerator", {"min": 2**62, "max": 2**63 - 1024}
    )),
]


def _formula_engine(formula, siblings=NUMERIC_SIBLINGS, **params) -> GenerationEngine:
    spec = GeneratorSpec("FormulaGenerator", {"formula": formula, **params})
    return _engine([*siblings, Field.of("f", "DOUBLE", spec)])


class TestFormulaKernel:
    @pytest.mark.parametrize("formula, params, kind", [
        ("[a] * 2 + 1", {}, "float"),
        ("([a] // 7) % 13 - [d] / 3", {"places": 3}, "float"),
        ("-[a] % 1000 + [d] // 0.25", {"as_int": True}, "int"),
        ("[big] * 1.5 - [big] % 3", {}, "float"),  # int -> float beyond 2**53
        ("[big] * 4", {"as_int": True}, "object"),  # int() leaves int64
        ("[a] / 8 + [d]", {"places": 1}, "float"),  # exact .5 ties at one place
        ("min([a], 100) + round([d], 1)", {}, "object"),
        ("abs([a]) ** 0.5", {}, "object"),
        ("[a] ** 2", {}, "object"),
        ("[d] * 1e308 * 1e308", {}, "object"),  # numpy flags overflow, Python says inf
        ("3 + 4", {}, "object"),
    ])
    def test_block_equals_scalar(self, formula, params, kind):
        _assert_block_is_scalar(
            _formula_engine(formula, **params), kinds=["int", "int", "float", "int", kind]
        )

    def test_forward_reference_recomputes_per_row(self):
        spec = GeneratorSpec("FormulaGenerator", {"formula": "[later] * 2"})
        engine = _engine([
            Field.of("f", "DOUBLE", spec),
            Field.of("later", "BIGINT", GeneratorSpec("LongGenerator", {"min": 1, "max": 9})),
        ])
        _assert_block_is_scalar(engine, kinds=["object", "int"])

    def test_null_free_wrapper_is_an_array_null_sibling_is_an_error(self):
        def engine(probability):
            nullable = Field.of("n", "BIGINT", GeneratorSpec(
                "NullGenerator", {"probability": probability},
                [GeneratorSpec("LongGenerator", {"min": 1, "max": 9})],
            ))
            return _formula_engine("[n] + 1", siblings=[nullable])

        _assert_block_is_scalar(engine(0.0), kinds=["int", "float"])
        failing = engine(0.2)
        errors = []
        for generate in (
            lambda: failing.generate_columns("t", 0, ROWS),
            lambda: _scalar_rows(failing, 0, ROWS),
        ):
            with pytest.raises(ModelError, match="not numeric") as caught:
                generate()
            errors.append(str(caught.value))
        assert errors[0] == errors[1]

    def test_division_by_zero_raises_the_same_error_at_the_same_row(self):
        engine = _formula_engine("1 / ([id] - 58)")  # id is row + 1
        bound = engine.bound_table("t")
        outcomes = []
        for generate in (
            lambda ctx: bound.generate_columns(0, ROWS, ctx),
            lambda ctx: [bound.generate_row(row, ctx) for row in range(ROWS)],
        ):
            ctx = engine.new_context("t")
            with pytest.raises(FormulaError, match="division by zero") as caught:
                generate(ctx)
            outcomes.append((str(caught.value), ctx.row))
        assert outcomes[0] == outcomes[1] and outcomes[0][1] == 57
        # blocks that do not contain the failing row are unaffected
        assert bound.generate_columns(100, 300, engine.new_context("t")).columns[-1].kind == "float"


class TestRowFormulaKernel:
    @pytest.mark.parametrize("formula, params, kind", [
        ("row // 4 + 1", {}, "int"),
        ("-(row % 7) * 3 - row", {}, "int"),
        ("row * 0.1", {"as_int": False}, "float"),
        ("row / 3", {}, "int"),  # true division, truncated
        ("row * ${SCALE} + 0.5", {}, "int"),
        ("row * 4611686018427387904", {}, "object"),  # 2**62: leaves int64 at row 2
        ("row + 9223372036854775807", {}, "object"),
        ("row * 9007199254740993 / 3", {}, "object"),  # int / int beyond 2**53
        ("max(row, 10)", {}, "object"),
        ("row // (row - 70)", {"as_int": False}, "object"),  # zero divisor at row 70
    ])
    def test_block_equals_scalar(self, formula, params, kind):
        spec = GeneratorSpec("RowFormulaGenerator", {"formula": formula, **params})
        schema = Schema("kernels", seed=5)
        schema.properties.define("SCALE", "2.5")
        schema.add_table(Table("t", str(ROWS), [Field.of("f", "BIGINT", spec)]))
        engine = GenerationEngine(schema)
        if "row - 70" in formula:
            # the failing block raises like the scalar path; others are arrays
            with pytest.raises(FormulaError, match="zero"):
                engine.generate_columns("t", 0, ROWS)
            with pytest.raises(FormulaError, match="zero"):
                _scalar_rows(engine, 0, ROWS)
            _assert_block_is_scalar(engine, kinds=["int"], cuts=[(100, 300)])
        else:
            _assert_block_is_scalar(engine, kinds=[kind])


class TestEvaluateArrays:
    def test_declines_what_it_cannot_prove(self):
        rows = np.arange(10, dtype=np.int64)
        floats = rows.astype(np.float64)
        assert compile_formula("row * 3 - 1").evaluate_arrays({"row": rows}).dtype == np.int64
        assert compile_formula("row * 0.5").evaluate_arrays({"row": rows}).dtype == np.float64
        for expression, env in [
            ("row ** 2", {"row": rows}),
            ("abs(row)", {"row": rows}),
            ("row * 2", {"row": rows.astype(np.int32)}),
            ("row * 2", {"row": rows * 2**61}),
            ("row % 0", {"row": rows}),
            ("row / 0", {"row": floats}),
            ("row + other", {"row": rows}),
            ("1 + 2", {}),
            ("${missing} + row", {"row": rows}),
        ]:
            assert compile_formula(expression).evaluate_arrays(env) is None, expression


# -- rounding ----------------------------------------------------------------


def _same_doubles(left, right) -> bool:
    return np.asarray(left, dtype=np.float64).tobytes() == np.asarray(
        right, dtype=np.float64
    ).tobytes()


class TestRoundPlaces:
    @pytest.mark.parametrize("places", [0, 2, 5])
    def test_a_million_seeded_values(self, places):
        rng = np.random.default_rng(20150531 + places)
        values = np.concatenate([
            rng.uniform(-1000.0, 555000.0, 600_000),
            rng.normal(0.0, 1e-3, 200_000),
            rng.uniform(-1e15, 1e15, 200_000),
        ])
        expected = [round(value, places) for value in values.tolist()]
        assert _same_doubles(columnar.round_places(values, places), expected)

    def test_exact_ties_and_specials(self):
        ties = [
            0.5, 1.5, 2.5, -0.5, -1.5, 0.125, 0.375, 2.675, 1.005, 0.045,
            1e15 + 0.5, 2.0**52 + 0.5, 2.0**53, 1e22, 1e300, -1e300,
            0.0, -0.0, 5e-324, -1e-320, math.inf, -math.inf, math.nan,
        ]
        ties += [k / 8 for k in range(-40, 41)] + [k / 16 + 1000 for k in range(33)]
        values = np.array(ties, dtype=np.float64)
        for places in (-2, -1, 0, 1, 2, 3, 15, 22, 23, 400):
            expected = [round(value, places) for value in ties]
            assert _same_doubles(columnar.round_places(values, places), expected), places

    def test_short_inputs_round_per_value_into_the_same_array_type(self):
        for size in (0, 1, 15):
            values = np.linspace(-2.675, 2.675, size)
            rounded = columnar.round_places(values, 2)
            assert rounded.dtype == np.float64 and len(rounded) == size
            assert _same_doubles(rounded, [round(v, 2) for v in values.tolist()])

    def test_double_generator_uses_it(self):
        spec = GeneratorSpec("DoubleGenerator", {"min": 0.0, "max": 0.10, "places": 2})
        engine = _engine([Field.of("f", "DECIMAL(15,2)", spec)], rows=5000)
        # one column kind at every block size, one-row reads included
        _assert_block_is_scalar(
            engine, kinds=["float"], cuts=[(0, 5000), (7, 8), (40, 55), (100, 131)]
        )


# -- reference keys ----------------------------------------------------------


class TestTypedReferenceKeys:
    @pytest.mark.parametrize("distribution", ["uniform", "zipf"])
    def test_id_targets_come_back_as_int64(self, distribution):
        spec = GeneratorSpec("DefaultReferenceGenerator", {
            "table": "parent", "field": "id", "distribution": distribution,
        })
        _assert_block_is_scalar(_engine([Field.of("f", "BIGINT", spec)]), kinds=["int"])

    def test_keys_beyond_int64_stay_python_ints(self):
        schema = Schema("kernels", seed=3)
        schema.add_table(Table("parent", "50", [
            Field.of("id", "BIGINT", GeneratorSpec(
                "IdGenerator", {"base": 2**63 - 10, "step": 1}
            ), primary=True),
        ]))
        schema.add_table(Table("t", "100", [Field.of("f", "BIGINT", GeneratorSpec(
            "DefaultReferenceGenerator", {"table": "parent", "field": "id"}
        ))]))
        engine = GenerationEngine(schema)
        _assert_block_is_scalar(engine, kinds=["object"], cuts=[(0, 100)])
        assert max(engine.generate_columns("t").columns[0].data) > 2**63


class TestTypedInts:
    @pytest.mark.parametrize("bounds, kind", [
        ({"min": -40, "max": 10**6}, "int"),
        ({"min": 5, "max": 20}, "int"),  # fewer values than the rank cap
        ({"min": 2**63, "max": 2**63 + 10**6}, "object"),  # past int64
    ])
    @pytest.mark.parametrize("generator", ["LongGenerator", "IntGenerator"])
    def test_zipf_ints(self, generator, bounds, kind):
        spec = GeneratorSpec(generator, {**bounds, "distribution": "zipf", "exponent": 1.2})
        _assert_block_is_scalar(_engine([Field.of("f", "BIGINT", spec)]), kinds=[kind])

    @pytest.mark.parametrize("by_row", [False, True])
    @pytest.mark.parametrize("values, kind", [
        (["7", "-3", " 12", str(2**63 - 1)], "int"),
        (["1", str(2**63)], "object"),  # one entry past int64
    ])
    def test_integer_dictionaries(self, values, kind, by_row):
        spec = GeneratorSpec(
            "DictListGenerator", {"values": values, "as_int": True, "by_row": by_row}
        )
        _assert_block_is_scalar(_engine([Field.of("f", "BIGINT", spec)]), kinds=[kind])

    def test_non_numeric_entry_fails_at_generation(self):
        spec = GeneratorSpec("DictListGenerator", {"values": ["1", "x"], "as_int": True})
        engine = _engine([Field.of("f", "BIGINT", spec)])  # binds
        with pytest.raises(ValueError, match="invalid literal"):
            engine.generate_columns("t", 0, ROWS)


class TestChoiceColumnKind:
    """A choice template's column kind depends on neither the block size
    nor the draws: Arrow types a column from its first chunk. (An
    all-NULL block, possible here only in the 1-row cut, is an
    ``ObjectColumn`` of None.)"""

    DICT = GeneratorSpec("DictListGenerator", {"values": ["ab", "cd", "ef"]})
    STATIC = GeneratorSpec("StaticValueGenerator", {"constant": "x"})
    CUTS = ((0, 1), (3, 13), (0, 10), (10, 110), (0, 200))

    @pytest.mark.parametrize("spec, kind", [
        (GeneratorSpec("NullGenerator", {"probability": 0.3}, [DICT]), "dict"),
        (GeneratorSpec("NullGenerator", {"probability": 0.3}, [STATIC]), "dict"),
        (GeneratorSpec("NullGenerator", {"probability": 0.0}, [DICT]), "dict"),
        (GeneratorSpec("SwitchGenerator", {"field": "b", "cases": ["True"]}, [DICT]), "dict"),
        (GeneratorSpec("SwitchGenerator", {"field": "b", "cases": []}, [STATIC]), "dict"),
        (GeneratorSpec("ProbabilityGenerator", {}, [DICT]), "dict"),
        # several children: an ObjectColumn even where every row chose one
        (GeneratorSpec("ProbabilityGenerator", {"weights": [1, 0]}, [DICT, STATIC]), "object"),
        (GeneratorSpec("SwitchGenerator", {"field": "b", "cases": ["True", "False"]},
                       [DICT, STATIC]), "object"),
    ])
    def test_one_kind_at_every_block(self, spec, kind):
        engine = _engine([
            Field.of("b", "BOOLEAN", GeneratorSpec("BooleanGenerator")),
            Field.of("f", "VARCHAR(8)", spec),
        ], rows=200)
        for start, stop in self.CUTS:
            column = engine.generate_columns("t", start, stop).columns[1]
            all_null = column.to_pylist() == [None] * (stop - start)
            assert column.kind == ("object" if all_null else kind), (start, stop)
            assert not all_null or stop - start == 1
        _assert_block_is_scalar(engine, cuts=self.CUTS)


class TestSequentialCharset:
    """A Sequential column's charset is the union of its children's and
    its separator's or template's, so CSV proves it quote-free without a
    scan; one unknown child makes it unknown."""

    COLUMNS = {
        "tpch": ("supplier.s_name", "customer.c_name", "part.p_name", "part.p_mfgr",
                 "part.p_brand", "part.p_type", "part.p_container", "orders.o_clerk"),
        "ssb": ("part.p_category", "part.p_brand1"),
        "bigbench": ("item.i_name",),
    }

    @pytest.mark.parametrize("suite", sorted(COLUMNS))
    def test_charset_covers_every_value(self, suite):
        engine = GenerationEngine(*suite_model(suite, 1))
        for name in self.COLUMNS[suite]:
            table, field = name.split(".")
            block = engine.generate_columns(table, 0, min(2000, engine.sizes[table]))
            column = block.columns[block.names.index(field)]
            assert column.kind == "str" and column.charset is not None, name
            assert set("".join(column.data)) <= column.charset, name

    @pytest.mark.parametrize("params, children, known", [
        ({"separator": "-"}, ["id", "long", "dict"], True),
        ({"template": "#{0:05d}/{1}"}, ["id", "dict"], True),
        # NULL children print "None" in a template
        ({"template": "{0}~{1}"}, ["null_dict", "long"], True),
        ({"separator": " "}, ["id", "text"], False),  # Text: no charset
        ({"template": "{0:>9}"}, ["id"], False),  # pads with spaces
        ({"template": "{0!r}"}, ["dict"], False),  # repr adds quotes
    ])
    def test_known_children_and_literals(self, params, children, known):
        specs = {
            "id": GeneratorSpec("IdGenerator"),
            "long": GeneratorSpec("LongGenerator", {"min": -50, "max": 50}),
            "dict": GeneratorSpec("DictListGenerator", {"values": ["a b", "é|", "x"]}),
            "null_dict": GeneratorSpec("NullGenerator", {"probability": 0.5}, [
                GeneratorSpec("DictListGenerator", {"values": ["q", "r"]}),
            ]),
            "text": GeneratorSpec("TextGenerator", {"min": 1, "max": 3}),
        }
        engine = _engine([Field.of("s", "VARCHAR(40)", GeneratorSpec(
            "SequentialGenerator", params, [specs[child] for child in children]
        ))])
        column = engine.generate_columns("t", 0, ROWS).columns[0]
        assert column.kind == "str"
        if known:
            assert column.charset is not None
            assert set("".join(column.data)) <= column.charset
        else:
            assert column.charset is None
        _assert_block_is_scalar(engine)

    #: a child of each column kind the charset knows (a float twice:
    #: ``repr`` writes small ones with an exponent)
    KINDS = {
        "int": GeneratorSpec("LongGenerator", {"min": -50, "max": 10**12}),
        "float": GeneratorSpec("DoubleGenerator", {"min": -3.0, "max": 3.0, "places": 2}),
        "float-small": GeneratorSpec("DoubleGenerator", {"min": -1e-4, "max": 1e-4}),
        "date": GeneratorSpec("DateGenerator", {"min": "0900-01-01", "max": "2099-12-31"}),
        "bool": GeneratorSpec("BooleanGenerator"),
        "str": GeneratorSpec("PatternStringGenerator", {"pattern": "^#-@@"}),
        "dict": GeneratorSpec("DictListGenerator", {"values": ["a b", "é|", "x"]}),
    }

    @settings(max_examples=40, deadline=None)
    @given(
        children=st.lists(
            st.tuples(st.sampled_from(sorted(KINDS)), st.sampled_from([0.0, 0.4])),
            min_size=1, max_size=3,
        ),
        template=st.booleans(),
        literal=st.sampled_from(["", "-", " / ", "|#"]),
    )
    def test_every_child_kind_declares_its_characters(self, children, template, literal):
        """Every value of a Sequential over any typed child — with its
        separator or in a template, NULLs included — stays inside the
        declared charset."""
        specs = [
            GeneratorSpec("NullGenerator", {"probability": probability}, [self.KINDS[kind]])
            for kind, probability in children
        ]
        params = (
            {"template": literal.join(f"{{{i}}}" for i in range(len(specs)))}
            if template else {"separator": literal}
        )
        engine = _engine([Field.of("s", "VARCHAR(200)", GeneratorSpec(
            "SequentialGenerator", params, specs
        ))], rows=64)
        column = engine.generate_columns("t", 0, 64).columns[0]
        assert column.kind == "str" and column.charset is not None
        assert set("".join(column.data)) <= column.charset


# -- ratchet -----------------------------------------------------------------


def test_suites_never_reach_the_default_loop(monkeypatch):
    """No generator class runs the base class's per-row loop on a block
    of any length, on any shipped suite. The drawn
    templates left this set when they got their kernel, Sequential and
    TpchPsSuppkey when the seed block began to advance through kernels;
    a class that joins it again fails here."""
    reached = set()
    default_loop = Generator.generate_block

    def recording(self, ctx, rows):
        reached.add(type(self).__name__)
        return default_loop(self, ctx, rows)

    monkeypatch.setattr(Generator, "generate_block", recording)
    for suite in ("tpch", "ssb", "bigbench"):
        engine = GenerationEngine(*suite_model(suite, 0.01))
        for table, size in engine.sizes.items():
            engine.generate_columns(table, 0, min(size, 2000))
    assert reached == set()


def test_tpch_object_value_share_stays_low():
    """The share of TPC-H values that come back as ``ObjectColumn`` (the
    per-value fallback of generation *and* formatting): 0.3998 before the
    Markov/formula/reference kernels, 0.0453 with them, 0.0426 with the
    drawn templates, 0.000024 with the Sequential, static and
    partsupp-supplier kernels, 0.000013 with integer dictionaries as
    int64, 0 since the kernels run at any block length (``r_comment``
    and ``n_comment``, Markov text on 5- and 25-row tables, were the
    last). A kernel that silently falls back fails here, not only in
    the benchmark."""
    engine = GenerationEngine(*suite_model("tpch", 0.02))
    values = object_values = 0
    for table, size in engine.sizes.items():
        block = engine.generate_columns(table, 0, min(size, 10_000))
        for column in block.columns:
            values += size
            object_values += size * isinstance(column, columnar.ObjectColumn)
    assert object_values / values == 0
