"""Block generation equivalence: generate_block == per-row generate.

The generator contract requires byte-exact agreement between
``BoundTable.generate_columns`` and repeated ``generate_row`` calls for
every registered generator, every suite, and every writer/backend
combination. These tests enforce it property-style: a kitchen-sink
schema covers every registered generator (a coverage assertion fails
when a new generator is registered without being added here), one
oracle compares the block formatter against the reference
``write_rows``/``write_row`` formatters over it, and the benchmark
suites are compared writer-for-writer inline and on the process pool.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro import columnar
from repro.engine import GenerationEngine
from repro.exceptions import GenerationError
from repro.generators.base import ArtifactStore, _KERNEL_MIN_ROWS
from repro.generators.registry import _REGISTRY, known_generators
from repro.model.schema import Field, GeneratorSpec, Schema, Table
from repro.output.config import OutputConfig
from repro.scheduler import Scheduler
from repro.scheduler import node_ranges
from repro.suites import SUITE_NAMES, suite_model
import repro.suites.tpch  # noqa: F401 - registers TpchPsSuppkeyGenerator
from repro.text.markov import train_chain

#: above the generators' small-block constant, so whole-table blocks
#: (and the 38-row cut below) run the array kernels, not the per-row loop
WIDE_ROWS = 96


def kitchen_sink_schema() -> tuple[Schema, ArtifactStore]:
    """One table using every registered generator (plus a ref target)."""
    schema = Schema("sink", seed=20150604)
    schema.add_table(Table("supplier", "10", [
        Field.of("s_id", "BIGINT", GeneratorSpec("IdGenerator"), primary=True),
        Field.of("s_city", "VARCHAR(30)", GeneratorSpec("CityGenerator")),
        Field.of("s_country", "VARCHAR(30)", GeneratorSpec("CountryGenerator")),
    ]))
    schema.add_table(Table("wide", str(WIDE_ROWS), [
        Field.of("w_id", "BIGINT", GeneratorSpec(
            "IdGenerator", {"base": 10, "step": 3}
        ), primary=True),
        Field.of("w_rowf", "BIGINT", GeneratorSpec(
            "RowFormulaGenerator", {"formula": "row // 4 + 1"}
        )),
        Field.of("w_static", "CHAR(1)", GeneratorSpec(
            "StaticValueGenerator", {"constant": "X"}
        )),
        Field.of("w_long", "BIGINT", GeneratorSpec(
            "LongGenerator", {"min": 5, "max": 5000}
        )),
        Field.of("w_zipf", "INTEGER", GeneratorSpec(
            "IntGenerator",
            {"min": 1, "max": 100, "distribution": "zipf", "exponent": 0.8},
        )),
        Field.of("w_double", "DOUBLE", GeneratorSpec(
            "DoubleGenerator", {"min": -5.0, "max": 5.0, "places": 3}
        )),
        Field.of("w_norm", "DOUBLE", GeneratorSpec(
            "DoubleGenerator",
            {"distribution": "normal", "mean": 0.0, "stddev": 2.0},
        )),
        Field.of("w_bool", "BOOLEAN", GeneratorSpec(
            "BooleanGenerator", {"true_probability": 0.3}
        )),
        Field.of("w_date", "DATE", GeneratorSpec(
            "DateGenerator", {"min": "1995-01-01", "max": "1996-12-31"}
        )),
        Field.of("w_ts", "TIMESTAMP", GeneratorSpec(
            "TimestampGenerator", {"min": "1995-01-01", "max": "1995-12-31"}
        )),
        Field.of("w_hist", "INTEGER", GeneratorSpec(
            "HistogramGenerator",
            {"bounds": [0, 10, 100], "weights": [3, 1], "as_int": True},
        )),
        Field.of("w_seq", "VARCHAR(10)", GeneratorSpec(
            "SequentialGenerator", {"separator": "-"},
            [
                GeneratorSpec("IntGenerator", {"min": 1, "max": 9}),
                GeneratorSpec("IntGenerator", {"min": 1, "max": 9}),
            ],
        )),
        Field.of("w_prob", "VARCHAR(10)", GeneratorSpec(
            "ProbabilityGenerator", {"weights": [1.0, 3.0]},
            [
                GeneratorSpec("StaticValueGenerator", {"constant": "rare"}),
                GeneratorSpec("IntGenerator", {"min": 0, "max": 99}),
            ],
        )),
        Field.of("w_switch", "VARCHAR(10)", GeneratorSpec(
            "SwitchGenerator", {"field": "w_bool", "cases": ["True"]},
            [
                GeneratorSpec("StaticValueGenerator", {"constant": "yes"}),
                GeneratorSpec("PatternStringGenerator", {"pattern": "n#"}),
            ],
        )),
        Field.of("w_name", "VARCHAR(40)", GeneratorSpec("PersonNameGenerator")),
        Field.of("w_company", "VARCHAR(60)", GeneratorSpec("CompanyNameGenerator")),
        Field.of("w_addr", "VARCHAR(80)", GeneratorSpec("AddressGenerator")),
        Field.of("w_email", "VARCHAR(60)", GeneratorSpec("EmailGenerator")),
        Field.of("w_phone", "VARCHAR(20)", GeneratorSpec("PhoneGenerator")),
        Field.of("w_url", "VARCHAR(80)", GeneratorSpec("UrlGenerator")),
        Field.of("w_text", "VARCHAR(120)", GeneratorSpec(
            "TextGenerator", {"min": 2, "max": 6}
        )),
        Field.of("w_null", "VARCHAR(120)", GeneratorSpec(
            "NullGenerator", {"probability": 0.3},
            [GeneratorSpec("TextGenerator", {"min": 1, "max": 4})],
        )),
        Field.of("w_dict", "VARCHAR(10)", GeneratorSpec(
            "DictListGenerator",
            {"values": ["red", "green", "blue"], "weights": [5, 3, 2]},
        )),
        Field.of("w_dict_sfx", "VARCHAR(20)", GeneratorSpec(
            "DictListGenerator",
            {"values": ["alpha", "beta"], "unique_suffix": True, "domain": 50},
        )),
        Field.of("w_dict_byrow", "VARCHAR(10)", GeneratorSpec(
            "DictListGenerator", {"values": ["n0", "n1", "n2"], "by_row": True}
        )),
        Field.of("w_rand", "VARCHAR(12)", GeneratorSpec(
            "RandomStringGenerator", {"min": 3, "max": 9, "alphabet": "alnum"}
        )),
        Field.of("w_pat", "VARCHAR(12)", GeneratorSpec(
            "PatternStringGenerator", {"pattern": "##-@@-^^x"}
        )),
        Field.of("w_form", "DOUBLE", GeneratorSpec(
            "FormulaGenerator", {"formula": "[w_long] * 2 + 1", "places": 1}
        )),
        Field.of("w_form_int", "BIGINT", GeneratorSpec(
            "FormulaGenerator",
            {"formula": "([w_long] // 7) % 13 - [w_double] / 3", "as_int": True},
        )),
        Field.of("w_form_fn", "DOUBLE", GeneratorSpec(
            "FormulaGenerator",
            {"formula": "min([w_long], 900) + round([w_double], 1) ** 2"},
        )),
        Field.of("w_form_fwd", "DOUBLE", GeneratorSpec(
            "FormulaGenerator", {"formula": "[w_ref] * 0.25", "places": 2}
        )),
        Field.of("w_rowf_mod", "INTEGER", GeneratorSpec(
            "RowFormulaGenerator", {"formula": "-(row % 7) + 1"}
        )),
        Field.of("w_rowf_float", "DOUBLE", GeneratorSpec(
            "RowFormulaGenerator", {"formula": "row * 0.1 + 1 / 8", "as_int": False}
        )),
        Field.of("w_rowf_trunc", "INTEGER", GeneratorSpec(
            "RowFormulaGenerator", {"formula": "(row - 40) / 3"}
        )),
        Field.of("w_markov", "VARCHAR(120)", GeneratorSpec(
            "MarkovChainGenerator", {"model": "markov:test", "min": 2, "max": 5}
        )),
        Field.of("w_markov_clip", "VARCHAR(12)", GeneratorSpec(
            "MarkovChainGenerator", {"model": "markov:test", "min": 3, "max": 9}
        )),
        *(
            Field.of(f"w_markov_null{index}", "VARCHAR(40)", GeneratorSpec(
                "NullGenerator", {"probability": probability},
                [GeneratorSpec(
                    "MarkovChainGenerator",
                    {"model": "markov:test", "min": 4, "max": 7},
                )],
            ))
            for index, probability in enumerate((0.0, 0.3, 1.0))
        ),
        Field.of("w_ref", "BIGINT", GeneratorSpec(
            "DefaultReferenceGenerator", {"table": "supplier", "field": "s_id"}
        )),
        Field.of("w_ref_zipf", "VARCHAR(30)", GeneratorSpec(
            "DefaultReferenceGenerator",
            {"table": "supplier", "field": "s_city", "distribution": "zipf"},
        )),
        Field.of("w_ref_zipf_id", "BIGINT", GeneratorSpec(
            "DefaultReferenceGenerator",
            {"table": "supplier", "field": "s_id", "distribution": "zipf"},
        )),
        Field.of("w_suppkey", "BIGINT", GeneratorSpec("TpchPsSuppkeyGenerator")),
    ]))
    artifacts = ArtifactStore()
    artifacts.put("markov:test", train_chain([
        "the quick brown fox jumps over the lazy dog",
        "pack my box with five dozen liquor jugs",
        "how vexingly quick daft zebras jump",
    ]))
    return schema, artifacts


@pytest.fixture(scope="module")
def sink_engine() -> GenerationEngine:
    schema, artifacts = kitchen_sink_schema()
    return GenerationEngine(schema, artifacts)


def _spec_names(spec: GeneratorSpec) -> set[str]:
    names = {spec.name}
    for child in spec.children:
        names |= _spec_names(child)
    return names


def _rowwise(engine: GenerationEngine, table: str, start: int, stop: int) -> list:
    bound = engine.bound_table(table)
    ctx = engine.new_context(table)
    return [bound.generate_row(row, ctx) for row in range(start, stop)]


def _library_generators() -> set[str]:
    """Registered names owing block coverage: other test modules register
    throwaway generators, only the library's own (repro.*) count."""
    return {
        name
        for name in known_generators()
        if _REGISTRY[name].__module__.startswith("repro.")
    }


class TestRegistryCoverage:
    def test_every_registered_generator_is_exercised(self, sink_engine):
        covered: set[str] = set()
        for table in sink_engine.schema.tables:
            for field in table.fields:
                covered |= _spec_names(field.generator)
        missing = _library_generators() - covered
        assert not missing, (
            f"generators without block-equivalence coverage: {sorted(missing)}; "
            "add them to kitchen_sink_schema"
        )

    def test_every_registered_generate_block_returns_a_column(self, sink_engine):
        # Each library class owns a top-level field, so its own
        # generate_block (not a wrapping parent's) fills one column.
        start, count = 3, 5
        top_level: set[str] = set()
        for table in sink_engine.schema.tables:
            bound = sink_engine.bound_table(table.name)
            block = sink_engine.generate_columns(table.name, start, start + count)
            for generator, column in zip(bound.generators, block.columns):
                assert isinstance(column, columnar.Column), generator.describe()
                assert len(column) == count, generator.describe()
                top_level.add(generator.spec_name)
        missing = _library_generators() - top_level
        assert not missing, sorted(missing)


#: block cuts: one row, a block straddling typical package edges, and
#: the whole table (clipped to the table size)
BLOCK_CUTS = [(17, 18), (29, 67), (0, WIDE_ROWS)]


class TestBlockFormatOracle:
    """The one generate→format path against its two references.

    ``write_block`` over ``generate_columns`` is what every run emits;
    ``write_rows`` and ``write_row`` over the scalar ``generate_row``
    are the reference formatters it must reproduce byte for byte.
    """

    @pytest.mark.parametrize("cut", BLOCK_CUTS, ids=lambda cut: f"{cut[0]}-{cut[1]}")
    @pytest.mark.parametrize("fmt", ["csv", "json", "sql", "xml"])
    def test_block_equals_rows_equals_row(self, sink_engine, fmt, cut):
        for table, size in sink_engine.sizes.items():
            start, stop = min(cut[0], size - 1), min(cut[1], size)
            bound = sink_engine.bound_table(table)
            ctx = sink_engine.new_context(table)
            writer = OutputConfig(kind="null", format=fmt).new_writer(
                table, bound.column_names
            )
            block = bound.generate_columns(start, stop, ctx)
            by_block = writer.write_block(block, first=start == 0)
            by_rows = writer.write_rows(block.to_rows())
            by_row = "".join(
                writer.write_row(bound.generate_row(row, ctx))
                for row in range(start, stop)
            )
            assert by_block == by_rows == by_row, f"{table} [{fmt}] {start}-{stop}"


class TestKitchenSinkEquivalence:
    def test_full_table_batch_equals_row(self, sink_engine):
        for table in ("supplier", "wide"):
            size = sink_engine.sizes[table]
            assert sink_engine.generate_rows(table) == _rowwise(
                sink_engine, table, 0, size
            )

    def test_single_row_batches(self, sink_engine):
        for start in (0, 1, WIDE_ROWS // 2, WIDE_ROWS - 1):
            assert sink_engine.generate_rows("wide", start, start + 1) == _rowwise(
                sink_engine, "wide", start, start + 1
            )

    def test_batch_spanning_package_edges(self, sink_engine):
        # A block straddling typical package boundaries must agree with
        # the row path and with the concatenation of smaller blocks.
        start, stop = 29, 67
        whole = sink_engine.generate_rows("wide", start, stop)
        assert whole == _rowwise(sink_engine, "wide", start, stop)
        split = sink_engine.generate_rows("wide", start, 48) + sink_engine.generate_rows(
            "wide", 48, stop
        )
        assert whole == split

    def test_batch_crossing_reference_partition(self, sink_engine):
        # Meta-scheduler node shares partition each table; a batch that
        # crosses the node boundary must still agree cell-for-cell.
        ranges = node_ranges(sink_engine.sizes, 2, 0)
        boundary = ranges["wide"][1]
        assert 0 < boundary < WIDE_ROWS
        lo, hi = boundary - 5, min(boundary + 5, WIDE_ROWS)
        assert sink_engine.generate_rows("wide", lo, hi) == _rowwise(
            sink_engine, "wide", lo, hi
        )

    def test_iter_rows_block_size_invariant(self, sink_engine):
        reference = sink_engine.generate_rows("wide")
        for block_size in (1, 7, 64, 1024):
            assert list(sink_engine.iter_rows("wide", block_size=block_size)) == reference

    def test_random_cuts(self, sink_engine):
        rng = random.Random(20150604)
        reference = _rowwise(sink_engine, "wide", 0, WIDE_ROWS)
        for _ in range(25):
            start = rng.randrange(WIDE_ROWS)
            stop = rng.randrange(start + 1, WIDE_ROWS + 1)
            assert sink_engine.generate_rows("wide", start, stop) == reference[start:stop]

    def test_array_kernels_are_hit(self, sink_engine):
        # The equivalence tests above prove nothing about a kernel that
        # silently fell back to the per-row loop: pin the column kinds.
        assert WIDE_ROWS >= _KERNEL_MIN_ROWS
        block = sink_engine.generate_columns("wide")
        kinds = dict(zip(block.names, (column.kind for column in block.columns)))
        expected = {
            "w_rowf": "int", "w_rowf_mod": "int", "w_rowf_float": "float",
            "w_rowf_trunc": "int", "w_form": "float", "w_form_int": "int",
            "w_form_fn": "object", "w_form_fwd": "object", "w_double": "float",
            "w_markov": "str", "w_markov_clip": "str", "w_markov_null0": "str",
            "w_markov_null1": "str", "w_markov_null2": "object",
            "w_ref": "int", "w_ref_zipf_id": "int", "w_ref_zipf": "object",
        }
        assert {name: kinds[name] for name in expected} == expected
        assert block.columns[block.names.index("w_markov_null1")].nulls.any()

    def test_wrong_block_length_raises(self, sink_engine):
        bound = sink_engine.bound_table("supplier")
        generator = bound.generators[0]
        cls = type(generator)
        original_block = cls.generate_block
        try:
            cls.generate_block = lambda self, ctx, start, count: (
                columnar.ObjectColumn([1])
            )
            with pytest.raises(GenerationError, match="returned 1 values"):
                sink_engine.generate_rows("supplier", 0, 4)
        finally:
            cls.generate_block = original_block


class TestEnginePickleMidRun:
    def test_pickle_round_trips_batch_state(self, sink_engine):
        schema, artifacts = kitchen_sink_schema()
        engine = GenerationEngine(schema, artifacts)
        # Drive block generation far enough to populate every lazy cache
        # (date memos, dictionary int/value caches, numpy CDFs) ...
        first = engine.generate_rows("wide", 0, 40)
        # ... then pickle mid-run; caches must be rebuilt, not shipped.
        restored = pickle.loads(pickle.dumps(engine))
        assert restored.generate_rows("wide", 0, 40) == first
        assert restored.generate_rows("wide", 40, WIDE_ROWS) == engine.generate_rows(
            "wide", 40, WIDE_ROWS
        )
        assert restored.generate_rows("supplier") == engine.generate_rows("supplier")


_suite_cache: dict[str, tuple[GenerationEngine, dict[str, list]]] = {}


def _suite_rows(name: str) -> tuple[GenerationEngine, dict[str, list]]:
    """Engine plus per-row reference rows for every table (cached)."""
    if name not in _suite_cache:
        engine = GenerationEngine(*suite_model(name, 0.001))
        rows = {
            table.name: _rowwise(engine, table.name, 0, engine.sizes[table.name])
            for table in engine.schema.tables
        }
        _suite_cache[name] = (engine, rows)
    return _suite_cache[name]


class TestSuiteByteIdentity:
    @pytest.mark.parametrize("suite", sorted(SUITE_NAMES))
    @pytest.mark.parametrize("fmt", ["csv", "json", "sql"])
    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_batch_output_matches_rowwise(self, suite, fmt, backend):
        engine, reference_rows = _suite_rows(suite)
        config = OutputConfig(kind="memory", format=fmt)
        scheduler = Scheduler(
            engine, config, workers={"inline": 1, "process": 2}[backend],
            package_size=512,
        )
        assert scheduler.run().backend == backend
        for table, rows in reference_rows.items():
            writer = config.new_writer(
                table, engine.bound_table(table).column_names
            )
            expected = (
                writer.header()
                + "".join(writer.write_row(row) for row in rows)
                + writer.footer()
            )
            assert config.memory_output(table) == expected, (
                f"{suite}.{table} [{fmt}/{backend}] batch output diverged"
            )

    def test_xml_writer_blocks_match_rowwise(self):
        engine, reference_rows = _suite_rows("tpch")
        config = OutputConfig(kind="memory", format="xml")
        Scheduler(engine, config, workers=2, package_size=512).run(["region", "nation"])
        for table in ("region", "nation"):
            writer = config.new_writer(
                table, engine.bound_table(table).column_names
            )
            expected = (
                writer.header()
                + "".join(writer.write_row(row) for row in reference_rows[table])
                + writer.footer()
            )
            assert config.memory_output(table) == expected
