"""The array kernels of MarkovChain / Formula / RowFormula / reference keys
against the scalar oracle, on inputs picked to break them.

``tests/test_batch_generation.py`` proves block == scalar on a schema that
covers every generator; here each kernel meets the cases its shortcuts
could get wrong — chains with dead ends, padded start states and
unreachable minimum lengths, formulas that must decline array evaluation,
decimal rounding at exact ties — plus the cache discipline of the shared
chain tables and the ratchet that keeps TPC-H off the object fallback.
"""

from __future__ import annotations

import json
import math
import pickle
import sys
import threading

import numpy as np
import pytest

from repro import columnar
from repro.engine import GenerationEngine
from repro.exceptions import FormulaError, GenerationError, ModelError
from repro.generators.base import ArtifactStore, _KERNEL_MIN_ROWS
from repro.model.formula import compile_formula
from repro.model.schema import Field, GeneratorSpec, Schema, Table
from repro.suites import suite_model
from repro.suites.tpch.schema import COMMENT_MODEL
from repro.text.markov import MarkovChain, train_chain

ROWS = 400  # well above _KERNEL_MIN_ROWS


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


CUTS = ((0, ROWS), (3, 3 + _KERNEL_MIN_ROWS), (117, 350))


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
        _, counts, exhausted = chain.block_tables().sample(
            np.arange(1, 101, dtype=np.uint64), 4, 6
        )
        assert sorted(exhausted) == list(range(100)) and not counts.any()

    def test_some_rows_retry(self):
        # min=5 is reachable only through the long documents, so many
        # rows need retries (and keep drawing from their own stream).
        chain = CHAINS["order1"]()
        _, counts, exhausted = chain.block_tables().sample(
            np.arange(1, 2001, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15), 5, 9
        )
        assert not exhausted and counts.min() >= 5 and counts.max() <= 9

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
            generator.generate_block(ctx, 0, ROWS)

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

    def test_small_blocks_and_previews_build_no_tables(self):
        engine, chain = self._engine()
        engine.preview("t", rows=1)
        engine.generate_columns("t", 5, 5 + _KERNEL_MIN_ROWS - 1)
        assert chain._tables is None
        engine.generate_columns("t", 5, 5 + _KERNEL_MIN_ROWS)
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
        tokens, _, _ = tables.sample(np.arange(1, 10_001, dtype=np.uint64), 3, 14)
        assert tokens.nbytes <= 10_000 * 15 * 2


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


# -- ratchet -----------------------------------------------------------------


def test_tpch_object_value_share_stays_low():
    """The share of TPC-H values that come back as ``ObjectColumn`` (the
    per-value fallback of generation *and* formatting): 0.3998 before the
    Markov/formula/reference kernels, 0.0454 with them. A kernel that
    silently falls back fails here, not only in the benchmark."""
    engine = GenerationEngine(*suite_model("tpch", 0.02))
    values = object_values = 0
    for table, size in engine.sizes.items():
        block = engine.generate_columns(table, 0, min(size, 10_000))
        for column in block.columns:
            values += size
            object_values += size * isinstance(column, columnar.ObjectColumn)
    assert object_values / values <= 0.10
