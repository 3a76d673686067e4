"""Tests for query workload generation and virtual execution (§7
future work: consistent query generation + verification results)."""

from __future__ import annotations

import datetime

import pytest

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
from repro.core.translator import SchemaTranslator
from repro.db.sqlite_adapter import SQLiteAdapter
from repro.engine import GenerationEngine
from repro.exceptions import GenerationError, ModelError
from repro.model.schema import Field, GeneratorSpec, Schema, Table


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
    return VirtualExecutor(schema)


@pytest.fixture(scope="module")
def database(schema):
    adapter = SQLiteAdapter(":memory:")
    SchemaTranslator().apply(schema, adapter)
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
        for value, expected in zip(virtual.values(), sql_row):
            if value is None:
                assert expected is None
            else:
                assert value == pytest.approx(expected, rel=1e-9)


class TestAnalyticPrediction:
    """Closed-form predictions land within their own tolerance bands."""

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
        predictions = executor.predict(query)
        actual_row = database.execute(query.to_sql())[0]
        for (key, predicted), actual in zip(predictions.items(), actual_row):
            assert predicted.value is not None
            if actual in (None, 0):
                continue
            error = abs(predicted.value - actual) / abs(actual)
            assert error <= max(predicted.tolerance, 0.12), (
                f"{key}: predicted {predicted.value}, actual {actual}"
            )

    def test_count_of_whole_table_is_exact(self, executor, schema):
        predicted = executor.predict(Query("sales", [Aggregate("count")]))
        assert predicted["COUNT(*)"].value == schema.table_size("sales")

    def test_min_max_track_predicate_bounds(self, executor):
        predicted = executor.predict(Query(
            "sales",
            [Aggregate("min", "s_quantity"), Aggregate("max", "s_quantity")],
            [Predicate("s_quantity", Op.BETWEEN, 10, 20)],
        ))
        assert predicted["MIN(s_quantity)"].value == 10
        assert predicted["MAX(s_quantity)"].value == 20

    def test_rounding_step_widens_between(self, executor, database):
        # The l_discount-style case: BETWEEN on a 2-places column.
        query = Query("sales", [Aggregate("count")],
                      [Predicate("s_price", Op.EQ, 50.0)])
        predicted = executor.predict(query)["COUNT(*)"]
        # EQ on a rounded double has selectivity step/span = 0.01/100.
        assert predicted.value == pytest.approx(2000 * 0.0001, rel=1e-6)

    def test_unsupported_column_raises(self, executor):
        with pytest.raises(GenerationError):
            executor.predict(Query("sales", [Aggregate("count")],
                                   [Predicate("s_note", Op.EQ, "x")]))

    def test_verification_result_alias(self, executor):
        query = Query("sales", [Aggregate("count")])
        assert executor.verification_result(query) == executor.predict(query)


class TestQueryParameterGenerator:
    TEMPLATE = QueryTemplate(
        "scan",
        "SELECT COUNT(*) FROM sales WHERE s_region = :region "
        "AND s_quantity < :qty AND s_date >= :start",
        [
            ParameterSpec("region", "sales", "s_region", "dictionary"),
            ParameterSpec("qty", "sales", "s_quantity", "numeric"),
            ParameterSpec("start", "sales", "s_date", "date"),
        ],
    )

    def test_deterministic_stream(self, schema):
        a = QueryParameterGenerator(schema).stream(self.TEMPLATE, 10)
        b = QueryParameterGenerator(schema).stream(self.TEMPLATE, 10)
        assert a == b

    def test_instances_differ(self, schema):
        stream = QueryParameterGenerator(schema).stream(self.TEMPLATE, 10)
        assert len(set(stream)) > 1

    def test_parameters_drawn_from_model_domains(self, schema):
        generator = QueryParameterGenerator(schema)
        for index in range(20):
            values = generator.parameters_for(self.TEMPLATE, index)
            assert values["region"] in ("NORTH", "SOUTH", "EAST", "WEST")
            assert 1 <= values["qty"] <= 100
            assert datetime.date(2023, 1, 1) <= values["start"] <= datetime.date(2023, 12, 31)

    def test_generated_queries_run(self, schema, database):
        for sql in QueryParameterGenerator(schema).stream(self.TEMPLATE, 5):
            rows = database.execute(sql)
            assert rows[0][0] >= 0

    def test_seed_changes_parameters(self, schema):
        other = query_schema()
        other.seed = 809
        a = QueryParameterGenerator(schema).stream(self.TEMPLATE, 5)
        b = QueryParameterGenerator(other).stream(self.TEMPLATE, 5)
        assert a != b

    def test_unknown_placeholder_rejected(self, schema):
        template = QueryTemplate(
            "bad", "SELECT :ghost", [ParameterSpec("x", "sales", "s_quantity", "numeric")]
        )
        with pytest.raises(ModelError, match="no parameter"):
            QueryParameterGenerator(schema).instantiate(template, 0)

    def test_bad_parameter_kind(self, schema):
        template = QueryTemplate(
            "bad2", "SELECT :x",
            [ParameterSpec("x", "sales", "s_quantity", "gaussian")],
        )
        with pytest.raises(ModelError, match="unknown parameter kind"):
            QueryParameterGenerator(schema).instantiate(template, 0)

    def test_dictionary_param_on_numeric_column_rejected(self, schema):
        template = QueryTemplate(
            "bad3", "SELECT :x",
            [ParameterSpec("x", "sales", "s_quantity", "dictionary")],
        )
        with pytest.raises(ModelError, match="no dictionary"):
            QueryParameterGenerator(schema).instantiate(template, 0)


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
    """EQ/IN mass must sum over duplicate dictionary entries."""

    def test_eq_sums_duplicate_entries(self):
        executor = VirtualExecutor(duplicate_value_schema())
        predicted = executor.predict(Query(
            "t", [Aggregate("count")], [Predicate("d_tag", Op.EQ, "HOT")]
        ))
        assert predicted["COUNT(*)"].value == pytest.approx(600.0)

    def test_in_counts_each_value_once(self):
        executor = VirtualExecutor(duplicate_value_schema())
        predicted = executor.predict(Query(
            "t", [Aggregate("count")],
            [Predicate("d_tag", Op.IN, ["HOT", "HOT", "COLD"])],
        ))
        assert predicted["COUNT(*)"].value == pytest.approx(900.0)

    def test_prediction_matches_loaded_database(self):
        schema = duplicate_value_schema()
        with SQLiteAdapter(":memory:") as adapter:
            SchemaTranslator().apply(schema, adapter)
            load(GenerationEngine(schema), adapter)
            actual = adapter.execute(
                "SELECT COUNT(*) FROM t WHERE d_tag = 'HOT'"
            )[0][0]
        predicted = VirtualExecutor(schema).predict(Query(
            "t", [Aggregate("count")], [Predicate("d_tag", Op.EQ, "HOT")]
        ))["COUNT(*)"]
        assert abs(predicted.value - actual) / actual <= 0.12


class TestInPredicateSemantics:
    """IN requires a collection and compares elementwise, never substrings."""

    def test_string_value_rejected_in_exact_path(self, executor):
        with pytest.raises(GenerationError, match="requires a collection"):
            executor.execute(Query(
                "sales", [Aggregate("count")],
                [Predicate("s_region", Op.IN, "NORTHEAST")],
            ))

    def test_string_value_rejected_in_prediction(self, executor):
        with pytest.raises(GenerationError, match="requires a collection"):
            executor.predict(Query(
                "sales", [Aggregate("count")],
                [Predicate("s_region", Op.IN, "NORTH")],
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
