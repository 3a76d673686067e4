"""Tests for remaining uncovered paths: contexts, reports, dialects."""

from __future__ import annotations

import pytest

from repro.db.ddl import create_schema_sql
from repro.engine import GenerationEngine
from repro.exceptions import GenerationError
from repro.generators.base import GenerationContext
from repro.prng.xorshift import XorShift64Star
from repro.scheduler.scheduler import RunReport
from tests.conftest import demo_schema


class TestGenerationContextOutsideEngine:
    def test_sibling_without_engine_raises(self):
        ctx = GenerationContext(rng=XorShift64Star(1))
        with pytest.raises(GenerationError, match="outside an engine run"):
            ctx.sibling("x")

    def test_foreign_without_engine_raises(self):
        ctx = GenerationContext(rng=XorShift64Star(1))
        with pytest.raises(GenerationError, match="outside an engine run"):
            ctx.foreign("t", "c", 0)

    def test_sibling_cache_miss_falls_through(self):
        ctx = GenerationContext(rng=XorShift64Star(1))
        ctx.row_values = [1]
        ctx.field_indices = {"a": 0, "b": 1}
        ctx.compute_sibling = lambda name, row: f"computed:{name}"
        assert ctx.sibling("a") == 1          # cached (index 0 < len 1)
        assert ctx.sibling("b") == "computed:b"  # not yet generated


class TestReports:
    def test_run_report_rates(self):
        report = RunReport(rows=1000, bytes_written=2 * 1024 * 1024,
                           seconds=2.0, workers=4)
        assert report.rows_per_second == 500
        assert report.mb_per_second == 1.0

    def test_run_report_zero_seconds(self):
        report = RunReport(rows=10, bytes_written=10, seconds=0.0, workers=1)
        assert report.rows_per_second == 0.0
        assert report.mb_per_second == 0.0


class TestDdlDialects:
    @pytest.mark.parametrize("dialect", ["ansi", "sqlite", "postgres", "mysql"])
    def test_full_schema_renders_for_every_dialect(self, dialect):
        sql = create_schema_sql(demo_schema(), dialect)
        assert "CREATE TABLE customer" in sql
        assert sql.count("CREATE TABLE") == 2

    def test_tpch_renders_for_every_dialect(self):
        from repro.suites.tpch import tpch_schema

        schema = tpch_schema(0.001)
        for dialect in ("ansi", "sqlite", "postgres", "mysql"):
            sql = create_schema_sql(schema, dialect)
            assert sql.count("CREATE TABLE") == 8


class TestEngineContexts:
    def test_new_context_for_unknown_table_still_usable(self, engine):
        # new_context tolerates unknown names (no field map); compute
        # paths that need the table fail later with a clear error.
        ctx = engine.new_context("nonexistent")
        assert ctx.field_indices is None

    def test_scratch_contexts_are_pooled(self, engine):
        # Repeated recomputation must not grow memory unboundedly: the
        # pool caps at the dependency-depth limit.
        for row in range(50):
            engine.compute_value("orders", "o_total", row)
        state = engine._scratch()
        assert len(state._pool) <= 16


class TestGeneratorDescribe:
    def test_known_generators_listing(self):
        from repro.generators import known_generators

        names = known_generators()
        for expected in ("IdGenerator", "NullGenerator", "MarkovChainGenerator",
                         "DefaultReferenceGenerator", "HistogramGenerator",
                         "RowFormulaGenerator", "TpchPsSuppkeyGenerator"):
            assert expected in names

    def test_unknown_generator_error_lists_known(self):
        from repro.exceptions import ModelError
        from repro.generators.registry import build
        from repro.model.schema import GeneratorSpec

        with pytest.raises(ModelError, match="known:"):
            build(GeneratorSpec("NoSuchGenerator"))

    def test_duplicate_registration_rejected(self):
        from repro.exceptions import ModelError
        from repro.generators.base import Generator
        from repro.generators.registry import register

        with pytest.raises(ModelError, match="registered twice"):
            @register("IdGenerator")
            class Clash(Generator):  # pragma: no cover - never instantiated
                def generate(self, ctx):
                    return None


class TestCliTranslateAndPreviewVariants:
    def test_translate_ssb(self, capsys):
        from repro.cli.main import main

        assert main(["translate", "--suite", "ssb"]) == 0
        assert "lineorder" in capsys.readouterr().out

    def test_preview_bigbench(self, capsys):
        from repro.cli.main import main

        assert main(["preview", "--suite", "bigbench", "--sf", "0.0001",
                     "--table", "product_reviews", "-n", "2"]) == 0
        assert "pr_review_content" in capsys.readouterr().out

    def test_unknown_suite_rejected(self, capsys):
        from repro.cli.main import main

        with pytest.raises(SystemExit):
            main(["preview", "--suite", "nosuch"])
