"""Star Schema Benchmark (SSB) model.

PDGF was used to implement SSB variants that test data skew (paper §2,
[19]). This model is the classic O'Neil SSB: one ``lineorder`` fact
table and four dimensions, denormalized from TPC-H. The optional
``skew`` parameter switches the fact table's dimension references from
uniform to Zipf-distributed — the knob the skew variations paper turns.
"""

from __future__ import annotations

from repro.model.schema import Field, GeneratorSpec, Schema, Table
from repro.suites.tpch import data as tpch_data

BASE_CARDINALITIES = {
    "ddate": 2556,  # 7 years of days
    "supplier": 2_000,
    "customer": 30_000,
    "part": 200_000,
    "lineorder": 6_000_000,
}

FIXED_TABLES = ("ddate",)


def _dict(values, **params) -> GeneratorSpec:
    merged: dict[str, object] = {"values": list(values)}
    merged.update(params)
    return GeneratorSpec("DictListGenerator", merged)


def _ref(table: str, field: str, skew: float = 0.0) -> GeneratorSpec:
    params: dict[str, object] = {"table": table, "field": field}
    if skew > 0:
        params["distribution"] = "zipf"
        params["exponent"] = skew
    return GeneratorSpec("DefaultReferenceGenerator", params)


def ssb_schema(
    scale_factor: float = 1.0, skew: float = 0.0, seed: int = 987654321
) -> Schema:
    """The SSB model; ``skew > 0`` makes fact-table references Zipfian."""
    schema = Schema("ssb", seed=seed)
    props = schema.properties
    props.define("SF", str(scale_factor))
    for table, base in BASE_CARDINALITIES.items():
        if table in FIXED_TABLES:
            props.define(f"{table}_size", str(base))
        else:
            props.define(f"{table}_size", f"max(1, {base} * ${{SF}})")

    month_names = [
        "January", "February", "March", "April", "May", "June", "July",
        "August", "September", "October", "November", "December",
    ]
    schema.add_table(Table("ddate", "${ddate_size}", [
        Field.of("d_datekey", "BIGINT", GeneratorSpec("IdGenerator"), primary=True),
        Field.of("d_year", "INTEGER", GeneratorSpec(
            "RowFormulaGenerator", {"formula": "1992 + (row // 365) % 7"}
        )),
        Field.of("d_month", "VARCHAR(9)", _dict(month_names)),
        Field.of("d_weeknuminyear", "INTEGER", GeneratorSpec(
            "RowFormulaGenerator", {"formula": "(row % 365) // 7 + 1"}
        )),
    ]))

    schema.add_table(Table("supplier", "${supplier_size}", [
        Field.of("s_suppkey", "BIGINT", GeneratorSpec("IdGenerator"), primary=True),
        Field.of("s_name", "CHAR(25)", GeneratorSpec(
            "SequentialGenerator", {"template": "Supplier#{0:09d}"},
            [GeneratorSpec("RowFormulaGenerator", {"formula": "row + 1"})],
        )),
        Field.of("s_city", "CHAR(10)", GeneratorSpec("CityGenerator")),
        Field.of("s_nation", "CHAR(15)", _dict([n for n, _ in tpch_data.NATIONS])),
        Field.of("s_region", "CHAR(12)", _dict(tpch_data.REGIONS)),
        Field.of("s_phone", "CHAR(15)", GeneratorSpec("PhoneGenerator")),
    ]))

    schema.add_table(Table("customer", "${customer_size}", [
        Field.of("c_custkey", "BIGINT", GeneratorSpec("IdGenerator"), primary=True),
        Field.of("c_name", "VARCHAR(25)", GeneratorSpec(
            "SequentialGenerator", {"template": "Customer#{0:09d}"},
            [GeneratorSpec("RowFormulaGenerator", {"formula": "row + 1"})],
        )),
        Field.of("c_city", "CHAR(10)", GeneratorSpec("CityGenerator")),
        Field.of("c_nation", "CHAR(15)", _dict([n for n, _ in tpch_data.NATIONS])),
        Field.of("c_region", "CHAR(12)", _dict(tpch_data.REGIONS)),
        Field.of("c_mktsegment", "CHAR(10)", _dict(tpch_data.MARKET_SEGMENTS)),
    ]))

    schema.add_table(Table("part", "${part_size}", [
        Field.of("p_partkey", "BIGINT", GeneratorSpec("IdGenerator"), primary=True),
        Field.of("p_name", "VARCHAR(22)", GeneratorSpec(
            "SequentialGenerator", {"separator": " "},
            [_dict(tpch_data.PART_NAME_WORDS), _dict(tpch_data.PART_NAME_WORDS)],
        )),
        Field.of("p_category", "CHAR(7)", GeneratorSpec(
            "SequentialGenerator", {"template": "MFGR#{0}{1}"},
            [GeneratorSpec("IntGenerator", {"min": 1, "max": 5}),
             GeneratorSpec("IntGenerator", {"min": 1, "max": 5})],
        )),
        Field.of("p_brand1", "CHAR(9)", GeneratorSpec(
            "SequentialGenerator", {"template": "MFGR#{0}{1}{2:02d}"},
            [GeneratorSpec("IntGenerator", {"min": 1, "max": 5}),
             GeneratorSpec("IntGenerator", {"min": 1, "max": 5}),
             GeneratorSpec("IntGenerator", {"min": 1, "max": 40})],
        )),
        Field.of("p_color", "VARCHAR(11)", _dict(tpch_data.PART_NAME_WORDS[:30])),
        Field.of("p_size", "INTEGER", GeneratorSpec("IntGenerator", {"min": 1, "max": 50})),
    ]))

    schema.add_table(Table("lineorder", "${lineorder_size}", [
        Field.of("lo_orderkey", "BIGINT", GeneratorSpec(
            "RowFormulaGenerator", {"formula": "row // 4 + 1"}
        ), primary=True),
        Field.of("lo_linenumber", "INTEGER", GeneratorSpec(
            "RowFormulaGenerator", {"formula": "row % 4 + 1"}
        ), primary=True),
        Field.of("lo_custkey", "BIGINT", _ref("customer", "c_custkey", skew)),
        Field.of("lo_partkey", "BIGINT", _ref("part", "p_partkey", skew)),
        Field.of("lo_suppkey", "BIGINT", _ref("supplier", "s_suppkey", skew)),
        Field.of("lo_orderdate", "BIGINT", _ref("ddate", "d_datekey")),
        Field.of("lo_quantity", "INTEGER", GeneratorSpec("IntGenerator", {"min": 1, "max": 50})),
        Field.of("lo_extendedprice", "DECIMAL(15,2)", GeneratorSpec(
            "FormulaGenerator",
            {"formula": "[lo_quantity] * (900 + ([lo_partkey] % 1000) * 100) / 100",
             "places": 2},
        )),
        Field.of("lo_discount", "INTEGER", GeneratorSpec("IntGenerator", {"min": 0, "max": 10})),
        Field.of("lo_revenue", "DECIMAL(15,2)", GeneratorSpec(
            "FormulaGenerator",
            {"formula": "[lo_extendedprice] * (100 - [lo_discount]) / 100",
             "places": 2},
        )),
        Field.of("lo_supplycost", "DECIMAL(15,2)", GeneratorSpec(
            "DoubleGenerator", {"min": 1.0, "max": 1000.0, "places": 2}
        )),
    ]))
    return schema
