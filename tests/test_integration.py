"""End-to-end integration tests across the full DBSynth/PDGF stack."""

from __future__ import annotations

import pytest

from repro.config import schema_xml
from repro.core import DBSynthProject
from repro.core.fidelity import FidelityChecker, default_queries
from repro.core.loader import load
from repro.db.ddl import create_schema_sql
from repro.db.sqlite_adapter import SQLiteAdapter
from repro.engine import GenerationEngine
from repro.output.config import OutputConfig
from repro.scheduler import ClusterScheduler, generate
from repro.suites.imdb import build_imdb_database
from repro.suites import suite_model
from repro.suites.tpch import ALL_QUERIES
from repro.update import UpdateBlackBox


class TestFullSynthesisWorkflow:
    """The paper's Figure 3 pipeline: source DB → model → data → target DB
    → verification, fully automatic."""

    def test_imdb_workflow(self, tmp_path):
        source = build_imdb_database(
            str(tmp_path / "source.db"), movies=150, people=200, seed=21
        )
        project = DBSynthProject(name="imdb", source=source)
        project.extract()
        project.profile()
        project.build_model()
        project.save(str(tmp_path / "project"))

        # Reload from disk (a vendor receiving only the model + artifacts,
        # never the data — the paper's privacy story).
        schema, artifacts = DBSynthProject.load_saved(str(tmp_path / "project"))
        engine = GenerationEngine(schema, artifacts)

        target = SQLiteAdapter(str(tmp_path / "target.db"))
        target.execute_script(create_schema_sql(schema, "sqlite"))
        load(engine, target)

        report = FidelityChecker(source, target).run(default_queries(schema))
        assert report.pass_rate > 0.85, "\n".join(report.summary_lines())

        # Scaled-up synthesis: 3x the original size, still valid refs.
        schema.properties.override("SF", 3)
        big_engine = GenerationEngine(schema, artifacts)
        big_target = SQLiteAdapter(":memory:")
        big_target.execute_script(create_schema_sql(schema, "sqlite"))
        # Outside a script: a script is one transaction, where SQLite
        # ignores this pragma. Every foreign key is then enforced.
        big_target.execute("PRAGMA foreign_keys = ON")
        assert big_target.execute("PRAGMA foreign_keys") == [(1,)]
        load(big_engine, big_target)
        assert big_target.row_count("movies") == 450
        orphans = big_target.execute(
            "SELECT COUNT(*) FROM cast_members cm LEFT JOIN movies m "
            "ON cm.movie_id = m.movie_id WHERE m.movie_id IS NULL"
        )[0][0]
        assert orphans == 0

        source.close()
        target.close()
        big_target.close()

    def test_model_edit_then_generate(self, tmp_path):
        # The demo's final act: edit an extracted model (add a column,
        # refine a correlation) and regenerate.
        source = build_imdb_database(movies=50, people=60, seed=33)
        project = DBSynthProject(name="imdb", source=source)
        result = project.build_model()
        schema = result.schema

        from repro.model.schema import Field, GeneratorSpec

        movies = schema.table_by_name("movies")
        movies.fields.append(Field.of(
            "synthetic_score", "DOUBLE",
            GeneratorSpec("FormulaGenerator",
                          {"formula": "[rating] * 10", "places": 1}),
        ))
        engine = GenerationEngine(schema, result.artifacts)
        names = engine.bound_table("movies").column_names
        rating_index = names.index("rating")
        score_index = names.index("synthetic_score")
        for row in engine.iter_rows("movies", 0, 20):
            assert row[score_index] == pytest.approx(
                round(row[rating_index] * 10, 1)
            )
        source.close()


class TestTpchRoundTrip:
    def test_xml_save_load_generate(self, tmp_path):
        engine = GenerationEngine(*suite_model("tpch", 0.001))
        path = str(tmp_path / "tpch.xml")
        schema_xml.dump(engine.schema, path)
        reloaded = schema_xml.load(path)
        engine2 = GenerationEngine(reloaded, engine.artifacts)
        a = [tuple(map(str, r)) for r in engine.iter_rows("orders", 0, 50)]
        b = [tuple(map(str, r)) for r in engine2.iter_rows("orders", 0, 50)]
        assert a == b

    def test_queries_stable_across_parallelism(self, tmp_path):
        # Load the same SF via 1 worker and 4 workers; queries must agree
        # exactly (ordering-independent aggregates).
        results = []
        for workers in (1, 4):
            engine = GenerationEngine(*suite_model("tpch", 0.0005))
            target = SQLiteAdapter(":memory:")
            target.execute_script(create_schema_sql(engine.schema, "sqlite"))
            # Generate through the scheduler into SQL, then load.
            config = OutputConfig(kind="memory", format="sql")
            generate(engine, config, workers=workers, package_size=128)
            for table in engine.sizes:
                target.execute_script(config.memory_output(table))
            results.append(target.execute(ALL_QUERIES["Q6"]))
            target.close()
        assert results[0] == results[1]


class TestUpdateWorkflow:
    def test_epochs_applied_to_database(self):
        from tests.conftest import demo_schema

        schema = demo_schema()
        adapter = SQLiteAdapter(":memory:")
        adapter.execute_script(create_schema_sql(schema, "sqlite"))
        engine = GenerationEngine(schema)
        load(engine, adapter)

        blackbox = UpdateBlackBox(
            engine, insert_fraction=0.1, update_fraction=0.2, delete_fraction=0.05
        )
        for epoch in (1, 2, 3):
            blackbox.apply_epoch(adapter, "customer", epoch, "c_id")
        expected = 60 + 3 * 6 - 3 * 3
        assert adapter.row_count("customer") == expected
        adapter.close()


class TestClusterSimulation:
    def test_multiprocess_cluster_produces_counted_output(self):
        from repro.suites.bigbench import bigbench_schema, bigbench_artifacts

        schema = bigbench_schema(0.0003)
        cluster = ClusterScheduler(schema, bigbench_artifacts()).run(nodes=2)
        single = ClusterScheduler(schema, bigbench_artifacts()).run(nodes=1)
        assert cluster.rows == single.rows
        assert cluster.bytes_written == single.bytes_written
