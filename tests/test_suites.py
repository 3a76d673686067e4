"""Tests for the benchmark suites: TPC-H, SSB, BigBench-like, IMDb-like."""

from __future__ import annotations

import pytest

from repro.db.sqlite_adapter import SQLiteAdapter
from repro.core.loader import DataLoader
from repro.core.translator import SchemaTranslator
from repro.engine import GenerationEngine
from repro.model.validation import ensure_valid
from repro.output.config import OutputConfig
from repro.output.sinks import MemorySink, NullSink
from repro.scheduler import generate
from repro.suites import suite_model
from repro.suites.bigbench import bigbench_schema
from repro.suites.imdb import build_imdb_database
from repro.suites.ssb import ssb_schema
from repro.suites.tpch import (
    ALL_QUERIES,
    BASE_CARDINALITIES,
    DbgenBaseline,
    scaled_size,
    tpch_schema,
)


class TestTpchSchema:
    def test_model_valid(self):
        ensure_valid(tpch_schema(0.01))

    def test_cardinalities_at_sf1(self):
        schema = tpch_schema(1.0)
        for table, base in BASE_CARDINALITIES.items():
            assert schema.table_size(table) == base

    def test_fixed_tables_do_not_scale(self):
        schema = tpch_schema(10.0)
        assert schema.table_size("region") == 5
        assert schema.table_size("nation") == 25
        assert schema.table_size("customer") == 1_500_000

    def test_nations_and_regions_are_spec_values(self):
        engine = GenerationEngine(*suite_model("tpch", 0.001))
        regions = [row[1] for row in engine.iter_rows("region")]
        assert regions == ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
        nations = list(engine.iter_rows("nation"))
        assert nations[0][1] == "ALGERIA"
        assert nations[24][1] == "UNITED STATES"
        # n_regionkey maps into the region table.
        region_keys = {row[0] for row in engine.iter_rows("region")}
        assert all(row[2] in region_keys for row in nations)

    def test_partsupp_structure(self):
        engine = GenerationEngine(*suite_model("tpch", 0.001))
        rows = list(engine.iter_rows("partsupp", 0, 8))
        # 4 suppliers per part, distinct suppliers within a part.
        assert [r[0] for r in rows] == [1, 1, 1, 1, 2, 2, 2, 2]
        assert len({r[1] for r in rows[:4]}) == 4

    def test_partsupp_suppkey_in_range(self):
        engine = GenerationEngine(*suite_model("tpch", 0.001))
        suppliers = engine.sizes["supplier"]
        for row in engine.iter_rows("partsupp"):
            assert 1 <= row[1] <= suppliers

    def test_lineitem_order_linkage(self):
        engine = GenerationEngine(*suite_model("tpch", 0.001))
        rows = list(engine.iter_rows("lineitem", 0, 8))
        assert [r[0] for r in rows] == [1, 1, 1, 1, 2, 2, 2, 2]
        assert [r[3] for r in rows] == [1, 2, 3, 4, 1, 2, 3, 4]

    def test_retailprice_formula(self):
        engine = GenerationEngine(*suite_model("tpch", 0.001))
        for row in engine.iter_rows("part", 0, 20):
            partkey, retail = row[0], row[7]
            expected = (90000 + ((partkey // 10) % 20001) + 100 * (partkey % 1000)) / 100
            assert retail == pytest.approx(round(expected, 2))

    def test_extendedprice_correlates_with_quantity(self):
        engine = GenerationEngine(*suite_model("tpch", 0.001))
        for row in engine.iter_rows("lineitem", 0, 50):
            quantity, price = row[4], row[5]
            assert price > 0
            assert price >= quantity * 8.99  # 900/100 floor per unit

    def test_foreign_keys_valid(self):
        engine = GenerationEngine(*suite_model("tpch", 0.0005))
        customers = engine.sizes["customer"]
        parts = engine.sizes["part"]
        for row in engine.iter_rows("orders"):
            assert 1 <= row[1] <= customers
        for row in engine.iter_rows("lineitem"):
            assert 1 <= row[1] <= parts

    def test_comment_lengths_respect_columns(self):
        engine = GenerationEngine(*suite_model("tpch", 0.001))
        for row in engine.iter_rows("part", 0, 100):
            assert len(row[8]) <= 23

    def test_deterministic(self):
        a = OutputConfig(kind="memory")
        generate(GenerationEngine(*suite_model("tpch", 0.0005)), a, workers=2, package_size=64)
        b = OutputConfig(kind="memory")
        generate(GenerationEngine(*suite_model("tpch", 0.0005)), b, workers=1)
        for table in BASE_CARDINALITIES:
            assert a.memory_output(table) == b.memory_output(table)

    def test_loads_into_sqlite_and_answers_queries(self):
        engine = GenerationEngine(*suite_model("tpch", 0.001))
        target = SQLiteAdapter(":memory:")
        SchemaTranslator().apply(engine.schema, target)
        DataLoader(target).load(engine)
        for name, sql in ALL_QUERIES.items():
            rows = target.execute(sql)
            assert rows is not None, name
        # Q1 groups by returnflag/linestatus: at most 6 combinations.
        assert 1 <= len(target.execute(ALL_QUERIES["Q1"])) <= 6
        target.close()

    def test_scaled_size_floor(self):
        assert scaled_size("supplier", 0.00001) == 1


class TestDbgenBaseline:
    def test_row_counts(self):
        baseline = DbgenBaseline(0.001)
        sink = MemorySink()
        rows = baseline.generate_table("customer", sink)
        assert rows == 150
        assert len(sink.getvalue().splitlines()) == 150

    def test_same_schema_shape_as_pdgf(self):
        baseline = DbgenBaseline(0.001)
        engine = GenerationEngine(*suite_model("tpch", 0.001))
        for table in baseline.TABLES:
            sink = MemorySink()
            baseline.generate_table(table, sink)
            first = sink.getvalue().splitlines()[0]
            dbgen_fields = first.rstrip("|").split("|")
            pdgf_fields = engine.bound_table(table).column_names
            assert len(dbgen_fields) == len(pdgf_fields), table

    def test_deterministic(self):
        a, b = MemorySink(), MemorySink()
        DbgenBaseline(0.001).generate_table("orders", a)
        DbgenBaseline(0.001).generate_table("orders", b)
        assert a.getvalue() == b.getvalue()

    def test_chunked_parallelism_covers_table(self):
        baseline = DbgenBaseline(0.001)
        total = 0
        for chunk in range(3):
            total += baseline.generate_table("orders", NullSink(), chunk, 3)
        assert total == baseline.table_size("orders")

    def test_chunk_validation(self):
        from repro.exceptions import GenerationError

        with pytest.raises(GenerationError):
            DbgenBaseline(0.001).generate_table("orders", NullSink(), 3, 3)

    def test_unknown_table(self):
        from repro.exceptions import GenerationError

        with pytest.raises(GenerationError):
            DbgenBaseline(0.001).generate_table("ghost", NullSink())

    def test_generate_all(self):
        baseline = DbgenBaseline(0.0005)
        counts = baseline.generate_all(lambda table, chunk: NullSink())
        assert set(counts) == set(baseline.TABLES)
        assert counts["lineitem"] == 3000


class TestSsb:
    def test_model_valid(self):
        ensure_valid(ssb_schema(0.01))

    def test_generates(self):
        engine = GenerationEngine(*suite_model("ssb", 0.001))
        rows = list(engine.iter_rows("lineorder", 0, 20))
        assert len(rows) == 20

    def test_revenue_formula(self):
        engine = GenerationEngine(*suite_model("ssb", 0.001))
        columns = engine.bound_table("lineorder").column_names
        price_index = columns.index("lo_extendedprice")
        discount_index = columns.index("lo_discount")
        revenue_index = columns.index("lo_revenue")
        for row in engine.iter_rows("lineorder", 0, 30):
            expected = round(row[price_index] * (100 - row[discount_index]) / 100, 2)
            assert row[revenue_index] == pytest.approx(expected)

    def test_skewed_references_concentrate(self):
        uniform_engine = GenerationEngine(ssb_schema(0.001, skew=0.0))
        skewed_engine = GenerationEngine(ssb_schema(0.001, skew=1.2))
        columns = uniform_engine.bound_table("lineorder").column_names
        cust_index = columns.index("lo_custkey")

        def top_share(engine):
            refs = [row[cust_index] for row in engine.iter_rows("lineorder")]
            counts = sorted(
                (refs.count(k) for k in set(refs)), reverse=True
            )
            top = sum(counts[: max(len(counts) // 100, 1)])
            return top / len(refs)

        assert top_share(skewed_engine) > top_share(uniform_engine) * 2


class TestBigBench:
    def test_model_valid(self):
        ensure_valid(bigbench_schema(0.01))

    def test_reviews_reference_structured_entities(self):
        engine = GenerationEngine(*suite_model("bigbench", 0.001))
        customers = engine.sizes["customer"]
        items = engine.sizes["item"]
        for row in engine.iter_rows("product_reviews"):
            assert 1 <= row[1] <= items
            assert 1 <= row[2] <= customers
            assert 1 <= row[3] <= 5
            assert isinstance(row[4], str) and row[4]

    def test_clickstream_anonymous_sessions(self):
        engine = GenerationEngine(*suite_model("bigbench", 0.001))
        users = [row[2] for row in engine.iter_rows("web_clickstreams", 0, 2000)]
        anonymous = sum(1 for u in users if u is None)
        assert 0.2 < anonymous / len(users) < 0.4

    def test_net_paid_formula(self):
        engine = GenerationEngine(*suite_model("bigbench", 0.001))
        for row in engine.iter_rows("store_sales", 0, 50):
            quantity, price, net = row[4], row[5], row[6]
            assert net == pytest.approx(round(quantity * price, 2))


class TestImdbBuilder:
    def test_deterministic(self):
        a = build_imdb_database(movies=30, people=40, seed=5)
        b = build_imdb_database(movies=30, people=40, seed=5)
        assert a.execute("SELECT * FROM movies ORDER BY movie_id") == b.execute(
            "SELECT * FROM movies ORDER BY movie_id"
        )
        a.close()
        b.close()

    def test_different_seeds_differ(self):
        a = build_imdb_database(movies=30, seed=5)
        b = build_imdb_database(movies=30, seed=6)
        assert a.execute("SELECT title FROM movies") != b.execute(
            "SELECT title FROM movies"
        )
        a.close()
        b.close()

    def test_referential_integrity(self, imdb_adapter):
        orphans = imdb_adapter.execute(
            "SELECT COUNT(*) FROM cast_members cm LEFT JOIN movies m "
            "ON cm.movie_id = m.movie_id WHERE m.movie_id IS NULL"
        )[0][0]
        assert orphans == 0

    def test_has_nulls_to_profile(self, imdb_adapter):
        assert imdb_adapter.null_fraction("movies", "plot") > 0

    def test_has_free_text(self, imdb_adapter):
        plots = imdb_adapter.sample_column("movies", "plot", limit=10)
        assert any(len(p.split()) > 3 for p in plots)
