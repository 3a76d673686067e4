"""The query-parameter contract over the generated suites: a template
parameter is a cell of the data, so an equality filter on it matches at
least one row of the loaded database, for every column of every table."""

from __future__ import annotations

import functools

import pytest

from repro.core.loader import load
from repro.core.queries import ParameterSpec, QueryParameterGenerator, QueryTemplate
from repro.db.ddl import create_schema_sql
from repro.db.sqlite_adapter import SQLiteAdapter
from repro.engine import GenerationEngine
from repro.suites import suite_model
from repro.workload import WorkloadReplayer, WorkloadStream, auto_spec

SUITES = ("tpch", "ssb", "bigbench")
INSTANCES = 3


@functools.lru_cache(maxsize=None)
def loaded(suite: str):
    """A suite at SF 0.001, bound, and the in-memory database it was
    loaded into."""
    engine = GenerationEngine(*suite_model(suite, 0.001))
    adapter = SQLiteAdapter(":memory:")
    adapter.execute_script(create_schema_sql(engine.schema, "sqlite"))
    load(engine, adapter)
    return engine, adapter


@pytest.mark.parametrize("suite", SUITES)
def test_every_column_parameter_matches_a_row(suite):
    engine, adapter = loaded(suite)
    generator = QueryParameterGenerator(engine)
    misses = []
    for table in engine.schema.tables:
        for field in table.fields:
            template = QueryTemplate(
                f"{table.name}.{field.name}",
                f"SELECT COUNT(*) FROM {table.name} WHERE {field.name} = :p",
                [ParameterSpec("p", table.name, field.name)],
            )
            for index in range(INSTANCES):
                if generator.parameters_for(template, index)["p"] is None:
                    continue
                sql = generator.instantiate(template, index)
                if adapter.execute(sql)[0][0] < 1:
                    misses.append(sql)
    assert not misses


@pytest.mark.parametrize("suite", SUITES)
def test_auto_spec_stream_replays_clean(suite):
    engine, adapter = loaded(suite)
    spec = auto_spec(engine.schema, count=40)
    events = WorkloadStream(engine, spec).events()
    report = WorkloadReplayer(engine, adapter).replay(events)
    assert len(report.executions) == 40
    assert report.failed == 0, [e.error for e in report.executions if e.error]
    filtered = [e for e in report.executions if "WHERE" in e.sql]
    assert filtered and all(e.first_row[0] >= 1 for e in filtered)
