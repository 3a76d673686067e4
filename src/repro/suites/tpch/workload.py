"""The default TPC-H query workload.

Parameterized templates in the spirit of the TPC-H substitution
parameters (clause 2.4: each query has randomized predicates), plus
structured filter-aggregate queries the virtual executor can predict.
Parameters are drawn from the model through the seed hierarchy, so the
workload is exactly as repeatable as the data (paper §7).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.queries import (
    Aggregate,
    Op,
    ParameterSpec,
    Predicate,
    Query,
    QueryTemplate,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.workload.spec import ArrivalSpec, WorkloadSpec

# Q1-style pricing summary with a parameterized date cut-off.
PRICING_SUMMARY = QueryTemplate(
    "pricing_summary",
    "SELECT l_returnflag, l_linestatus, SUM(l_quantity), "
    "SUM(l_extendedprice), AVG(l_discount), COUNT(*) "
    "FROM lineitem WHERE l_shipdate <= :cutoff "
    "GROUP BY l_returnflag, l_linestatus "
    "ORDER BY l_returnflag, l_linestatus",
    [ParameterSpec("cutoff", "lineitem", "l_shipdate", "date")],
)

# Q6-style revenue forecast with parameterized quantity and ship mode.
FORECAST_REVENUE = QueryTemplate(
    "forecast_revenue",
    "SELECT SUM(l_extendedprice * l_discount) FROM lineitem "
    "WHERE l_quantity < :quantity AND l_shipmode = :mode",
    [
        ParameterSpec("quantity", "lineitem", "l_quantity", "numeric"),
        ParameterSpec("mode", "lineitem", "l_shipmode", "dictionary"),
    ],
)

# Q3-style shipping priority for a parameterized market segment.
SHIPPING_PRIORITY = QueryTemplate(
    "shipping_priority",
    "SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue "
    "FROM customer, orders, lineitem "
    "WHERE c_mktsegment = :segment AND c_custkey = o_custkey "
    "AND l_orderkey = o_orderkey AND o_orderdate < :date "
    "GROUP BY l_orderkey ORDER BY revenue DESC LIMIT 10",
    [
        ParameterSpec("segment", "customer", "c_mktsegment", "dictionary"),
        ParameterSpec("date", "orders", "o_orderdate", "date"),
    ],
)


def tpch_workload_spec(
    count: int = 50,
    repetition: float = 0.3,
    arrival: ArrivalSpec | None = None,
    name: str = "tpch",
) -> WorkloadSpec:
    """The default TPC-H stream spec for :mod:`repro.workload`.

    Template weights follow the classic emphasis: the cheap Q6-style
    probe dominates, the two heavier reporting queries share the rest.
    The spec carries the predicted queries as replay-time checks.
    """
    from repro.workload.spec import ArrivalSpec, WeightedTemplate, WorkloadSpec

    return WorkloadSpec(
        name=name,
        templates=[
            WeightedTemplate(FORECAST_REVENUE, 3.0),
            WeightedTemplate(PRICING_SUMMARY, 1.0),
            WeightedTemplate(SHIPPING_PRIORITY, 1.0),
        ],
        count=count,
        repetition=repetition,
        arrival=arrival or ArrivalSpec(),
        checks=list(PREDICTED_QUERIES),
    )


# Structured queries the virtual executor predicts and grades.
PREDICTED_QUERIES: list[tuple[str, Query]] = [
    ("lineitem_count", Query("lineitem", [Aggregate("count")])),
    (
        "cheap_lines",
        Query(
            "lineitem",
            [Aggregate("count"), Aggregate("avg", "l_quantity")],
            [Predicate("l_quantity", Op.LT, 24)],
        ),
    ),
    (
        "discount_band",
        Query(
            "lineitem",
            [Aggregate("count")],
            [Predicate("l_discount", Op.BETWEEN, 0.05, 0.07)],
        ),
    ),
    (
        "big_orders",
        Query(
            "orders",
            [Aggregate("count"), Aggregate("avg", "o_totalprice")],
            [Predicate("o_totalprice", Op.GE, 300000.0)],
        ),
    ),
    (
        "one_segment",
        Query(
            "customer",
            [Aggregate("count")],
            [Predicate("c_mktsegment", Op.EQ, "BUILDING")],
        ),
    ),
]
