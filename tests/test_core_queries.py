"""Tests for query workload generation and virtual execution (§7
future work: consistent query generation + verification results): the
virtual executor's answer is the one SQL gives on the loaded data."""

from __future__ import annotations

import datetime

import pytest

from repro.core.driver import same_answer
from repro.core.loader import load
from repro.core.queries import (
    Aggregate,
    Op,
    ParameterSpec,
    Predicate,
    Query,
    QueryParameterGenerator,
    QueryTemplate,
    VirtualExecutor,
)
from repro.db.ddl import create_schema_sql
from repro.db.sqlite_adapter import SQLiteAdapter
from repro.engine import GenerationEngine
from repro.exceptions import GenerationError, ModelError
from repro.model.schema import Field, GeneratorSpec, Schema, Table


def assert_answers_equal(answers, row) -> None:
    """The model's answers are SQL's (see :func:`same_answer`)."""
    answers = list(answers)
    assert len(answers) == len(row)
    for answer, actual in zip(answers, row):
        assert same_answer(answer, actual), (answers, row)


def query_schema() -> Schema:
    schema = Schema("qtest", seed=808)
    schema.add_table(Table("sales", "2000", [
        Field.of("s_id", "BIGINT", GeneratorSpec("IdGenerator"), primary=True),
        Field.of("s_quantity", "INTEGER", GeneratorSpec(
            "IntGenerator", {"min": 1, "max": 100}
        )),
        Field.of("s_price", "DECIMAL(8,2)", GeneratorSpec(
            "DoubleGenerator", {"min": 0.0, "max": 100.0, "places": 2}
        )),
        Field.of("s_region", "VARCHAR(10)", GeneratorSpec(
            "DictListGenerator",
            {"values": ["NORTH", "SOUTH", "EAST", "WEST"],
             "weights": [0.4, 0.3, 0.2, 0.1]},
        )),
        Field.of("s_date", "DATE", GeneratorSpec(
            "DateGenerator", {"min": "2023-01-01", "max": "2023-12-31"}
        )),
        Field.of("s_note", "VARCHAR(30)", GeneratorSpec(
            "NullGenerator", {"probability": 0.25},
            [GeneratorSpec("TextGenerator", {"min": 1, "max": 3})],
        )),
    ]))
    return schema


@pytest.fixture(scope="module")
def schema():
    return query_schema()


@pytest.fixture(scope="module")
def executor(schema):
    return VirtualExecutor(GenerationEngine(schema))


@pytest.fixture(scope="module")
def database(schema):
    adapter = SQLiteAdapter(":memory:")
    adapter.execute_script(create_schema_sql(schema, "sqlite"))
    load(GenerationEngine(schema), adapter)
    yield adapter
    adapter.close()


class TestQuerySql:
    def test_simple_count(self):
        query = Query("sales", [Aggregate("count")])
        assert query.to_sql() == "SELECT COUNT(*) FROM sales"

    def test_predicates_rendered(self):
        query = Query("sales", [Aggregate("sum", "s_price")], [
            Predicate("s_quantity", Op.LT, 10),
            Predicate("s_region", Op.EQ, "NORTH"),
            Predicate("s_price", Op.BETWEEN, 1.0, 2.0),
            Predicate("s_note", Op.IS_NULL),
        ])
        sql = query.to_sql()
        assert "s_quantity < 10" in sql
        assert "s_region = 'NORTH'" in sql
        assert "s_price BETWEEN 1.0 AND 2.0" in sql
        assert "s_note IS NULL" in sql

    def test_in_and_quoting(self):
        sql = Query("sales", [Aggregate("count")], [
            Predicate("s_region", Op.IN, ["NO'RTH", "SOUTH"]),
        ]).to_sql()
        assert "IN ('NO''RTH', 'SOUTH')" in sql

    def test_date_literal(self):
        sql = Query("sales", [Aggregate("count")], [
            Predicate("s_date", Op.GE, datetime.date(2023, 6, 1)),
        ]).to_sql()
        assert "s_date >= '2023-06-01'" in sql


class TestExactExecution:
    """The exact path must agree with SQL on a loaded database."""

    @pytest.mark.parametrize("query", [
        Query("sales", [Aggregate("count")]),
        Query("sales", [Aggregate("count")], [Predicate("s_quantity", Op.LE, 50)]),
        Query("sales", [Aggregate("count"), Aggregate("sum", "s_quantity")],
              [Predicate("s_region", Op.EQ, "NORTH")]),
        Query("sales", [Aggregate("avg", "s_price")],
              [Predicate("s_price", Op.BETWEEN, 10.0, 20.0)]),
        Query("sales", [Aggregate("min", "s_quantity"),
                        Aggregate("max", "s_quantity")],
              [Predicate("s_quantity", Op.GT, 90)]),
        Query("sales", [Aggregate("count")], [Predicate("s_note", Op.IS_NULL)]),
        Query("sales", [Aggregate("count")], [Predicate("s_note", Op.NOT_NULL)]),
        Query("sales", [Aggregate("count")],
              [Predicate("s_region", Op.IN, ["EAST", "WEST"])]),
        Query("sales", [Aggregate("count")],
              [Predicate("s_date", Op.GE, datetime.date(2023, 7, 1))]),
    ])
    def test_matches_sql(self, executor, database, query):
        virtual = executor.execute(query)
        sql_row = database.execute(query.to_sql())[0]
        assert_answers_equal(virtual.values(), sql_row)


class TestUnmodelledComparisons:
    """A comparison SQLite makes in a way the model does not reproduce
    is refused with a GenerationError, so a driver leaves the query
    timing-only instead of grading a false miss."""

    def test_date_column_against_an_int(self, executor, database):
        # a DATE column loads as TEXT, so SQLite compares '2023-…' with
        # '300000' as text (always less); day ordinals (~738 000) are not
        query = Query("sales", [Aggregate("count")],
                      [Predicate("s_date", Op.LT, 300_000)])
        assert database.execute(query.to_sql())[0] == (2000,)
        with pytest.raises(GenerationError, match="s_date"):
            executor.execute(query)

    @pytest.mark.parametrize("value", [0.5, True, b"NORTH"])
    def test_text_column_against_a_float_bool_or_bytes(self, executor, value):
        with pytest.raises(GenerationError):
            executor.execute(Query("sales", [Aggregate("count")],
                                   [Predicate("s_region", Op.EQ, value)]))

    def test_text_column_of_numbers_against_a_float(self):
        # the property oracle once nudged a number drawn from the sink's
        # VARCHAR column w_prob ("rare" or an int stored as text) to 61.5
        from tests.test_batch_generation import kitchen_sink_schema

        query = Query("wide", [Aggregate("count")], [Predicate("w_prob", Op.EQ, 61.5)])
        with pytest.raises(GenerationError, match="61.5 is not modelled"):
            VirtualExecutor(GenerationEngine(*kitchen_sink_schema())).execute(query)

    @pytest.mark.parametrize("dtype, constant", [
        ("VARCHAR(30)", 0.1 + 0.2),  # SQLite stores the text '0.3'
        ("VARCHAR(30)", True),  # stored as 1
        ("TIMESTAMP", datetime.datetime(2024, 5, 1, 8, 0, 0, 500_000)),  # stored to the second
    ])
    def test_value_shapes_stored_otherwise(self, dtype, constant):
        schema = Schema("shapes", seed=5)
        schema.add_table(Table("t", "10", [
            Field.of("t_value", dtype, GeneratorSpec(
                "StaticValueGenerator", {"constant": constant}
            )),
        ]))
        with pytest.raises(GenerationError, match="not modelled"):
            VirtualExecutor(GenerationEngine(schema)).execute(
                Query("t", [Aggregate("count")], [Predicate("t_value", Op.NOT_NULL)])
            )


class TestAnalyticPrediction:
    """Counts, sums, averages and bounds under range, dictionary, NULL
    and date predicates: the model's answer is SQL's, exactly."""

    @pytest.mark.parametrize("query", [
        Query("sales", [Aggregate("count")]),
        Query("sales", [Aggregate("count")], [Predicate("s_quantity", Op.LT, 26)]),
        Query("sales", [Aggregate("count")],
              [Predicate("s_region", Op.EQ, "NORTH")]),
        Query("sales", [Aggregate("count")],
              [Predicate("s_price", Op.BETWEEN, 25.0, 75.0)]),
        Query("sales", [Aggregate("count")], [Predicate("s_note", Op.IS_NULL)]),
        Query("sales", [Aggregate("count"), Aggregate("avg", "s_quantity")],
              [Predicate("s_quantity", Op.BETWEEN, 20, 40)]),
        Query("sales", [Aggregate("sum", "s_price")],
              [Predicate("s_region", Op.IN, ["NORTH", "SOUTH"])]),
        Query("sales", [Aggregate("count")],
              [Predicate("s_date", Op.LT, datetime.date(2023, 4, 1))]),
    ])
    def test_prediction_within_band(self, executor, database, query):
        exact = executor.execute(query)
        actual_row = database.execute(query.to_sql())[0]
        assert_answers_equal(exact.values(), actual_row)

    def test_count_of_whole_table_is_exact(self, executor, schema):
        answer = executor.execute(Query("sales", [Aggregate("count")]))
        assert answer["COUNT(*)"] == schema.table_size("sales")

    def test_min_max_track_predicate_bounds(self, executor, database):
        query = Query(
            "sales",
            [Aggregate("min", "s_quantity"), Aggregate("max", "s_quantity")],
            [Predicate("s_quantity", Op.BETWEEN, 10, 20)],
        )
        answer = executor.execute(query)
        assert (answer["MIN(s_quantity)"], answer["MAX(s_quantity)"]) == (10, 20)
        assert tuple(answer.values()) == database.execute(query.to_sql())[0]

    def test_rounding_step_widens_between(self, executor, database):
        # The l_discount-style case: EQ / BETWEEN on a 2-places column
        # hits exactly the rows whose rounded value is inside.
        for predicate in (
            Predicate("s_price", Op.EQ, 50.0),
            Predicate("s_price", Op.BETWEEN, 0.05, 0.07),
            Predicate("s_price", Op.LT, 12.5),
        ):
            query = Query("sales", [Aggregate("count")], [predicate])
            expected = database.execute(query.to_sql())[0][0]
            assert executor.execute(query)["COUNT(*)"] == expected

    def test_unsupported_column_raises(self, executor):
        # SUM and AVG need a numeric column; a number never equals text
        for query in (
            Query("sales", [Aggregate("sum", "s_note")]),
            Query("sales", [Aggregate("avg", "s_date")]),
            Query("sales", [Aggregate("count")],
                  [Predicate("s_quantity", Op.EQ, "x")]),
            Query("sales", [Aggregate("median", "s_quantity")]),
        ):
            with pytest.raises(GenerationError):
                executor.execute(query)


class TestVerifyQueriesFromTheModel:
    """Verify's checks read the query type the virtual executor
    answers: on each suite's loaded data, the model's answer to every
    default query is the database's."""

    @pytest.mark.parametrize("suite", ["tpch", "ssb", "bigbench"])
    def test_every_default_query_matches_sql(self, suite, tmp_path):
        from repro.core.fidelity import default_queries
        from repro.suites import suite_model

        engine = GenerationEngine(*suite_model(suite, 0.001))
        with SQLiteAdapter(str(tmp_path / "loaded.db")) as adapter:
            adapter.execute_script(create_schema_sql(engine.schema, "sqlite"))
            load(engine, adapter)
            queries = {c.query.to_sql(): c.query for c in default_queries(engine.schema)}
            assert len(queries) == len(engine.schema.tables)
            executor = VirtualExecutor(engine)
            for sql, query in queries.items():
                answer = executor.execute(query)
                assert_answers_equal(answer.values(), adapter.execute(sql)[0])


class TestQueryParameterGenerator:
    TEMPLATE = QueryTemplate(
        "scan",
        "SELECT COUNT(*) FROM sales WHERE s_region = :region "
        "AND s_quantity < :qty AND s_date >= :start",
        [
            ParameterSpec("region", "sales", "s_region"),
            ParameterSpec("qty", "sales", "s_quantity"),
            ParameterSpec("start", "sales", "s_date"),
        ],
    )

    def test_deterministic_stream(self, schema):
        a = QueryParameterGenerator(GenerationEngine(schema)).stream(self.TEMPLATE, 10)
        b = QueryParameterGenerator(GenerationEngine(schema)).stream(self.TEMPLATE, 10)
        assert a == b

    def test_instances_differ(self, schema):
        generator = QueryParameterGenerator(GenerationEngine(schema))
        stream = generator.stream(self.TEMPLATE, 10)
        assert len(set(stream)) > 1

    def test_parameters_drawn_from_model_domains(self, schema):
        generator = QueryParameterGenerator(GenerationEngine(schema))
        for index in range(20):
            values = generator.parameters_for(self.TEMPLATE, index)
            assert values["region"] in ("NORTH", "SOUTH", "EAST", "WEST")
            assert 1 <= values["qty"] <= 100
            assert datetime.date(2023, 1, 1) <= values["start"] <= datetime.date(2023, 12, 31)

    def test_generated_queries_run(self, schema, database):
        generator = QueryParameterGenerator(GenerationEngine(schema))
        for sql in generator.stream(self.TEMPLATE, 5):
            rows = database.execute(sql)
            assert rows[0][0] >= 0

    def test_seed_changes_parameters(self, schema):
        other = query_schema()
        other.seed = 809
        a = QueryParameterGenerator(GenerationEngine(schema)).stream(self.TEMPLATE, 5)
        b = QueryParameterGenerator(GenerationEngine(other)).stream(self.TEMPLATE, 5)
        assert a != b

    def test_unknown_placeholder_rejected(self, schema):
        template = QueryTemplate(
            "bad", "SELECT :ghost", [ParameterSpec("x", "sales", "s_quantity")]
        )
        with pytest.raises(ModelError, match="no parameter"):
            QueryParameterGenerator(GenerationEngine(schema)).instantiate(template, 0)

    @pytest.mark.parametrize("table, column, message", [
        ("sales", "s_ghost", "no field 's_ghost'"),
        ("ghost", "s_quantity", "no such table 'ghost'"),
    ])
    def test_unknown_column_or_table_rejected(self, schema, table, column, message):
        template = QueryTemplate(
            "bad2", "SELECT :x", [ParameterSpec("x", table, column)]
        )
        with pytest.raises(ModelError, match=message):
            QueryParameterGenerator(GenerationEngine(schema)).instantiate(template, 0)

    @pytest.mark.parametrize("column", [
        "s_id", "s_quantity", "s_price", "s_region", "s_date", "s_note",
    ])
    def test_every_parameter_is_a_cell_of_the_data(self, schema, database, column):
        template = QueryTemplate(
            f"eq_{column}", f"SELECT COUNT(*) FROM sales WHERE {column} = :p",
            [ParameterSpec("p", "sales", column)],
        )
        generator = QueryParameterGenerator(GenerationEngine(schema))
        # a quarter of s_note is NULL: some of 40 first draws hit one and
        # are redrawn
        for index in range(40):
            assert generator.parameters_for(template, index)["p"] is not None
            sql = generator.instantiate(template, index)
            assert database.execute(sql)[0][0] >= 1, sql

    @pytest.mark.parametrize("size, spec", [
        ("100", GeneratorSpec("NullGenerator", {"probability": 1.0},
                              [GeneratorSpec("IntGenerator", {"min": 1, "max": 9})])),
        ("0", GeneratorSpec("IntGenerator", {"min": 1, "max": 9})),
    ])
    def test_all_null_column_or_empty_table_gives_null(self, size, spec):
        schema = Schema("nulls", seed=3)
        schema.add_table(Table("t", size, [Field.of("v", "INTEGER", spec)]))
        template = QueryTemplate(
            "v", "SELECT COUNT(*) FROM t WHERE v = :p", [ParameterSpec("p", "t", "v")]
        )
        sql = QueryParameterGenerator(GenerationEngine(schema)).instantiate(template, 0)
        assert sql == "SELECT COUNT(*) FROM t WHERE v = NULL"
        with SQLiteAdapter(":memory:") as adapter:
            adapter.execute_script(create_schema_sql(schema, "sqlite"))
            load(GenerationEngine(schema), adapter)
            assert adapter.execute(sql) == [(0,)]


def duplicate_value_schema() -> Schema:
    """A dictionary column carrying the same value in several entries."""
    schema = Schema("dups", seed=77)
    schema.add_table(Table("t", "1000", [
        Field.of("d_id", "BIGINT", GeneratorSpec("IdGenerator"), primary=True),
        Field.of("d_tag", "VARCHAR(8)", GeneratorSpec(
            "DictListGenerator",
            {"values": ["HOT", "HOT", "COLD", "WARM"],
             "weights": [0.3, 0.3, 0.3, 0.1]},
        )),
    ]))
    return schema


class TestDictionarySelectivity:
    """A dictionary carrying the same value in several entries: EQ and
    IN count every row that holds the value, once."""

    @pytest.fixture(scope="class")
    def duplicates(self):
        schema = duplicate_value_schema()
        with SQLiteAdapter(":memory:") as adapter:
            adapter.execute_script(create_schema_sql(schema, "sqlite"))
            load(GenerationEngine(schema), adapter)
            yield VirtualExecutor(GenerationEngine(schema)), adapter

    def test_eq_sums_duplicate_entries(self, duplicates):
        executor, adapter = duplicates
        hot = executor.execute(Query(
            "t", [Aggregate("count")], [Predicate("d_tag", Op.EQ, "HOT")]
        ))["COUNT(*)"]
        by_tag = dict(adapter.execute("SELECT d_tag, COUNT(*) FROM t GROUP BY d_tag"))
        assert hot == by_tag["HOT"]
        assert 500 <= hot <= 700  # both HOT entries, 0.3 + 0.3 of 1000 rows

    def test_in_counts_each_value_once(self, duplicates):
        executor, adapter = duplicates
        both = executor.execute(Query(
            "t", [Aggregate("count")],
            [Predicate("d_tag", Op.IN, ["HOT", "HOT", "COLD"])],
        ))["COUNT(*)"]
        expected = adapter.execute(
            "SELECT COUNT(*) FROM t WHERE d_tag IN ('HOT', 'COLD')"
        )[0][0]
        assert both == expected

    def test_prediction_matches_loaded_database(self, duplicates):
        executor, adapter = duplicates
        query = Query("t", [Aggregate("count"), Aggregate("min", "d_tag"),
                            Aggregate("max", "d_tag")],
                      [Predicate("d_tag", Op.GE, "HOT")])
        assert tuple(executor.execute(query).values()) == (
            adapter.execute(query.to_sql())[0]
        )


class TestInPredicateSemantics:
    """IN requires a collection and compares elementwise, never substrings."""

    def test_string_value_rejected_in_exact_path(self, executor):
        with pytest.raises(GenerationError, match="requires a collection"):
            executor.execute(Query(
                "sales", [Aggregate("count")],
                [Predicate("s_region", Op.IN, "NORTHEAST")],
            ))

    def test_scalar_value_rejected(self, executor):
        with pytest.raises(GenerationError, match="requires a collection"):
            executor.execute(Query(
                "sales", [Aggregate("count")],
                [Predicate("s_quantity", Op.IN, 5)],
            ))

    def test_elementwise_numeric_membership(self, executor, database):
        query = Query("sales", [Aggregate("count")],
                      [Predicate("s_quantity", Op.IN, [7, 13, 13])])
        virtual = executor.execute(query)
        actual = database.execute(query.to_sql())[0][0]
        assert virtual["COUNT(*)"] == actual

    def test_no_substring_containment(self, executor):
        # "EAST" is a substring member of "NORTHEAST"; elementwise EQ
        # semantics must not count it.
        exact = executor.execute(Query(
            "sales", [Aggregate("count")],
            [Predicate("s_region", Op.IN, ["NORTHEAST"])],
        ))
        assert exact["COUNT(*)"] == 0
