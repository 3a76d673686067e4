"""Query workloads and exact answers from the model (paper §7 future work).

The paper's conclusion promises two extensions, both implemented here:

1. "generate the queries consistently using PDGF" — a query-template
   parameter is a cell of the data: its column's value at a row drawn
   through the same seed hierarchy, so a benchmark's query stream is
   exactly as repeatable as its data and every parameter is a value the
   data holds;
2. "directly execute the query without ever generating the data" —
   the virtual executor answers aggregate queries from the model alone:
   it computes only the columns a query reads, block by block, writes
   nothing and loads nothing, and its answers equal SQL's on the data.

Run: ``python examples/query_workloads.py``
"""

from __future__ import annotations

from repro.core import (
    Aggregate,
    Op,
    ParameterSpec,
    Predicate,
    Query,
    QueryParameterGenerator,
    QueryTemplate,
    VirtualExecutor,
    load,
)
from repro.core.driver import same_answer
from repro.db import SQLiteAdapter, create_schema_sql
from repro.engine import GenerationEngine
from repro.suites.tpch import tpch_artifacts, tpch_schema

SCALE_FACTOR = 0.002


def main() -> None:
    schema = tpch_schema(SCALE_FACTOR)
    engine = GenerationEngine(schema, tpch_artifacts())  # bound once, used by all

    print("== 1. repeatable query streams ==")
    template = QueryTemplate(
        "q6-style",
        "SELECT SUM(l_extendedprice * l_discount) FROM lineitem "
        "WHERE l_shipdate >= :start AND l_quantity < :qty "
        "AND l_shipmode = :mode",
        [
            ParameterSpec("start", "lineitem", "l_shipdate"),
            ParameterSpec("qty", "lineitem", "l_quantity"),
            ParameterSpec("mode", "lineitem", "l_shipmode"),
        ],
    )
    generator = QueryParameterGenerator(engine)
    for index, sql in enumerate(generator.stream(template, 3)):
        print(f"  Q{index}: {sql}")
    assert generator.stream(template, 3) == generator.stream(template, 3)
    print("  (re-deriving the stream yields identical queries)")

    print("\n== 2. answer a query without a database ==")
    query = Query(
        "lineitem",
        [Aggregate("count"), Aggregate("avg", "l_quantity"),
         Aggregate("sum", "l_extendedprice")],
        [Predicate("l_quantity", Op.LT, 24),
         Predicate("l_discount", Op.BETWEEN, 0.05, 0.07)],
    )
    executor = VirtualExecutor(engine)
    answers = executor.execute(query)
    print(f"  {query.to_sql()}")

    print("\n== 3. the same SQL against a real database load ==")
    target = SQLiteAdapter(":memory:")
    target.execute_script(create_schema_sql(schema, "sqlite"))
    load(engine, target)
    actual = target.execute(query.to_sql())[0]
    for (key, answer), value in zip(answers.items(), actual):
        status = "equal" if same_answer(answer, value) else "DIFFERENT"
        print(f"    {key:<22} model {answer:15.4f}  SQL {value:15.4f}  [{status}]")
        assert same_answer(answer, value), "the model's answer is SQL's"

    print("\n== 4. a full timestamped workload, replayed ==")
    from repro.workload import ArrivalSpec, WorkloadReplayer, WorkloadStream
    from repro.suites.tpch.workload import tpch_workload_spec

    spec = tpch_workload_spec(
        count=20, repetition=0.3,
        arrival=ArrivalSpec(process="poisson", rate=40.0),
    )
    stream = WorkloadStream(engine, spec)
    events = stream.events()
    assert events == stream.events(0, 10) + stream.events(10), \
        "slices compose to the whole stream"
    for event in events[:3]:
        print(f"  t={event.ts:7.3f}s {event.template}#{event.index}")
    replayer = WorkloadReplayer(engine, target)
    report = replayer.replay(events, checks=spec.checks)
    for line in report.summary_lines():
        print(f"  {line}")
    assert report.ok
    target.close()


if __name__ == "__main__":
    main()
