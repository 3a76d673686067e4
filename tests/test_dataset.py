"""The ``Dataset`` slicing facade and the bound-engine cache.

The contract under test: a slice is byte-identical to the matching
range of a batch-generated file, whatever the format, wherever the
range falls relative to work-package boundaries — because both paths
run through :func:`repro.output.formats.format_package` over the same
package partitioning.
"""

from __future__ import annotations

import random

import pytest

from repro.api import (
    Dataset,
    bound_engine,
    clear_engine_cache,
    engine_cache_info,
)
from repro.engine import SCALAR_ROWS, GenerationEngine
from repro.exceptions import GenerationError, OutputError
from repro.output.config import OutputConfig
from repro.output.formats import format_spec, known_formats
from repro.scheduler import generate
from repro.suites import suite_model

from tests.conftest import demo_schema, word_model


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_engine_cache()
    yield
    clear_engine_cache()


@pytest.fixture
def dataset() -> Dataset:
    # package_size smaller than the tables so slices span packages
    return Dataset(GenerationEngine(demo_schema()), package_size=50)


def batch_output(fmt: str, package_size: int = 50, **options) -> dict[str, bytes]:
    """Cold single-shot batch run into memory, per table, as bytes."""
    engine = GenerationEngine(demo_schema())
    output = OutputConfig(kind="memory", format=fmt, **options)
    generate(engine, output, package_size=package_size)
    return {
        name: output.memory_output(name).encode("utf-8")
        for name in engine.sizes
    }


class TestEngineCache:
    def test_equal_models_share_one_engine(self):
        first = bound_engine(demo_schema())
        second = bound_engine(demo_schema())
        assert first is second
        info = engine_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_different_seed_binds_fresh(self):
        first = Dataset(bound_engine(demo_schema(seed=1)))
        second = Dataset(bound_engine(demo_schema(seed=2)))
        assert first.engine is not second.engine
        assert first.fingerprint != second.fingerprint
        assert engine_cache_info()["misses"] == 2
        # models that differ in a dictionary alone are two models too
        apple = Dataset(bound_engine(*word_model("apple")))
        zebra = Dataset(bound_engine(*word_model("zebra")))
        assert apple.engine is not zebra.engine
        assert apple.fingerprint != zebra.fingerprint
        assert apple.fingerprint == apple.engine.fingerprint
        assert apple.slice("t", 0, 1) == [["apple"]]
        assert zebra.slice("t", 0, 1) == [["zebra"]]
        assert engine_cache_info()["misses"] == 4

    def test_dataset_wraps_the_callers_engine(self):
        engine = GenerationEngine(demo_schema())
        assert Dataset(engine).engine is engine
        assert engine_cache_info()["size"] == 0  # no bind, no cache entry

    def test_bound_engine_eviction(self):
        from repro import api

        engines = [bound_engine(demo_schema(seed=s)) for s in range(1, 10)]
        info = engine_cache_info()
        assert info["size"] == api.ENGINE_CACHE_SIZE
        # seed=1 was evicted (LRU): binding it again is a miss
        again = bound_engine(demo_schema(seed=1))
        assert again is not engines[0]

    def test_clear_resets_counters(self):
        bound_engine(demo_schema())
        clear_engine_cache()
        info = engine_cache_info()
        assert info == {"hits": 0, "misses": 0, "size": 0, "maxsize": 8}


class TestIntrospection:
    def test_tables_and_columns(self, dataset):
        assert dataset.tables == {"customer": 60, "orders": 180}
        assert dataset.columns("customer")[0] == "c_id"

    def test_from_suite(self):
        ds = Dataset.from_suite("tpch", scale_factor=0.001)
        assert ds.tables["nation"] == 25
        assert Dataset.from_suite("tpch", scale_factor=0.001).engine is ds.engine
        with pytest.raises(GenerationError, match="unknown suite"):
            Dataset.from_suite("nope")


class TestRowAndColumnSlices:
    def test_rows_matches_engine(self, dataset):
        rows = dataset.slice("customer", 5, 9)
        assert rows == dataset.engine.generate_rows("customer", 5, 9)
        assert len(rows) == 4

    def test_columns_form(self, dataset):
        block = dataset.slice("orders", 0, 7, format="columns")
        assert block.count == 7
        assert block.to_rows() == dataset.slice("orders", 0, 7)

    def test_default_range_is_whole_table(self, dataset):
        assert len(dataset.slice("customer")) == 60

    def test_rows_reject_format_options(self, dataset):
        with pytest.raises(OutputError, match="takes no formatting options"):
            dataset.slice("customer", 0, 5, format="rows", delimiter=",")

    def test_bad_ranges(self, dataset):
        with pytest.raises(GenerationError, match="outside table"):
            dataset.slice("customer", -1, 5)
        with pytest.raises(GenerationError, match="outside table"):
            dataset.slice("customer", 0, 61)
        with pytest.raises(GenerationError, match="outside table"):
            dataset.slice("customer", 9, 4)
        with pytest.raises(GenerationError, match="no such table"):
            dataset.slice("nope", 0, 1)


class TestByteIdentity:
    @pytest.mark.parametrize("fmt", ["csv", "json", "xml", "sql"])
    def test_full_slice_equals_batch_file(self, dataset, fmt):
        batch = batch_output(fmt)
        for table, size in dataset.tables.items():
            assert dataset.slice(table, 0, size, format=fmt) == batch[table]

    def test_adjacent_slices_concatenate_to_batch_file(self, dataset):
        batch = batch_output("csv")["orders"]
        # boundaries straddle package edges (package_size=50, size=180)
        cuts = [0, 3, 50, 77, 100, 149, 150, 180]
        joined = b"".join(
            dataset.slice("orders", a, b, format="csv")
            for a, b in zip(cuts, cuts[1:])
        )
        assert joined == batch

    @pytest.mark.parametrize("fmt", ["csv", "json", "sql", "xml"])
    @pytest.mark.parametrize("model", ["tpch", "ssb", "bigbench", "kitchen-sink"])
    def test_drawn_short_slices_concatenate_to_batch_file(self, model, fmt):
        """Every table cut into slices of drawn lengths 0..2·SCALAR_ROWS
        — row by row under the cut, blocks at and over it — joins to
        the batch file (a small table is cut afresh until about 2 000
        rows are sliced), and the batch file is the whole table's
        column block rendered by ``write_block`` (so a table shorter
        than the cut, which the batch run renders row by row, is
        checked against the block too)."""
        from tests.test_batch_generation import kitchen_sink_schema

        engine = GenerationEngine(
            *(kitchen_sink_schema() if model == "kitchen-sink" else suite_model(model, 0.001))
        )
        output = OutputConfig(kind="memory", format=fmt)
        generate(engine, output)
        dataset = Dataset(engine)
        rng = random.Random(f"{model}/{fmt}")
        for table, size in engine.sizes.items():
            batch = output.memory_output(table).encode("utf-8")
            writer = output.new_writer(table, dataset.columns(table))
            block = writer.write_block(engine.generate_columns(table))
            assert batch == (writer.header() + block + writer.footer()).encode("utf-8"), table
            for _ in range(min(20, max(1, 2000 // max(size, 1)))):
                cuts = [0]
                while cuts[-1] < size:
                    cuts.append(min(size, cuts[-1] + rng.randint(0, 2 * SCALAR_ROWS)))
                joined = b"".join(
                    dataset.slice(table, start, stop, format=fmt)
                    for start, stop in zip(cuts, cuts[1:])
                )
                assert joined == batch, (table, cuts)

    def test_interior_slice_equals_batch_lines(self, dataset):
        batch = batch_output("json")["customer"].decode("utf-8")
        lines = batch.splitlines(keepends=True)
        sliced = dataset.slice("customer", 12, 58, format="json")
        assert sliced == "".join(lines[12:58]).encode("utf-8")

    def test_header_and_footer_only_at_edges(self, dataset):
        whole = dataset.slice("customer", format="xml")
        interior = dataset.slice("customer", 1, 59, format="xml")
        assert whole.startswith(b"<?xml")
        assert whole.endswith(b"</table>\n")
        assert not interior.startswith(b"<?xml")
        assert not interior.endswith(b"</table>\n")

    def test_csv_options_flow_through(self, dataset):
        batch = batch_output("csv", delimiter=",", include_header=True)
        sliced = dataset.slice(
            "customer", format="csv", delimiter=",", include_header=True
        )
        assert sliced == batch["customer"]
        assert sliced.startswith(b"c_id,c_name")

    def test_slice_independent_of_package_size_for_text(self):
        engine = GenerationEngine(demo_schema())
        small = Dataset(engine, package_size=7)
        large = Dataset(engine, package_size=10_000)
        assert (
            small.slice("orders", 30, 120, format="csv")
            == large.slice("orders", 30, 120, format="csv")
        )


class TestRegistrySingleSource:
    def test_unknown_format_error_lists_known(self, dataset):
        with pytest.raises(OutputError, match="known formats"):
            dataset.slice("customer", 0, 5, format="bogus")
        with pytest.raises(OutputError, match="known formats"):
            OutputConfig(kind="null", format="bogus")
        with pytest.raises(OutputError, match="known formats"):
            format_spec("bogus")

    def test_error_text_is_identical_everywhere(self, dataset):
        def message(callable_):
            with pytest.raises(OutputError) as info:
                callable_()
            return str(info.value)

        assert (
            message(lambda: dataset.slice("customer", format="bogus"))
            == message(lambda: OutputConfig(format="bogus"))
            == message(lambda: format_spec("bogus"))
        )

    def test_unknown_option_error(self, dataset):
        with pytest.raises(OutputError, match="unknown slice option"):
            dataset.slice("customer", 0, 5, format="csv", sparkles=True)

    def test_mime_types_cover_registry(self):
        for name in known_formats():
            assert "/" in format_spec(name).mime_type


class TestColumnarAlignment:
    def test_arrow_misaligned_slice_refused(self, dataset):
        pytest.importorskip("pyarrow")
        with pytest.raises(OutputError, match="package-aligned"):
            dataset.slice("customer", 3, 50, format="arrow")

    def test_arrow_full_slice_equals_batch(self, dataset):
        pytest.importorskip("pyarrow")
        engine = GenerationEngine(demo_schema())
        output = OutputConfig(kind="memory", format="arrow")
        generate(engine, output, package_size=50)
        batch = output.memory_output("customer")
        assert dataset.slice("customer", 0, 60, format="arrow") == batch

    def test_parquet_slices_refused(self, dataset):
        pytest.importorskip("pyarrow")
        with pytest.raises(OutputError, match="not streamable"):
            dataset.slice("customer", 0, 50, format="parquet")

    def test_arrow_without_pyarrow_raises_cleanly(self, dataset):
        from repro.output.arrow import have_pyarrow

        if have_pyarrow():
            pytest.skip("pyarrow installed")
        with pytest.raises(OutputError, match="requires pyarrow"):
            dataset.slice("customer", 0, 50, format="arrow")
