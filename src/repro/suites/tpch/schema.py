"""The PDGF model of TPC-H — all eight tables.

This mirrors "our custom implementation of the TPC-H data set" (paper
§4, developed in cooperation with the TPC-H subcommittee per §5):
surrogate keys from row formulas, recomputed references, formula-derived
prices, categorical dictionaries, and a Markov-generated comment column
trained on a dbgen-grammar corpus (paper §3 reports ~1500 words and 95
starting states for the l_comment model — the same order as here).

Structural simplifications (documented for honesty, irrelevant to the
performance experiments): order keys are dense rather than sparse, each
order has exactly four line items (the spec's average), and supplier
assignment within partsupp uses the spec's permutation formula via a
suite-registered plugin generator.
"""

from __future__ import annotations

from repro.generators.base import (
    ArtifactStore,
    BindContext,
    GenerationContext,
    Generator,
)
from repro.generators.registry import register
from repro.model.schema import Field, GeneratorSpec, Schema, Table
from repro.prng.xorshift import XorShift64Star
from repro.suites.tpch import data as D
from repro.text.corpus import comment_sentences
from repro.text.markov import MarkovChain

COMMENT_MODEL = "markov:tpch.comment"


@register("TpchPsSuppkeyGenerator")
class TpchPsSuppkeyGenerator(Generator):
    """The partsupp supplier permutation (spec clause 4.2.3 shape).

    The spec formula
    ``(ps_partkey + i * (S/4 + (ps_partkey - 1) / S)) mod S + 1`` spreads
    a part's four suppliers around the supplier key space. At the exact
    spec sizes the four slots never collide, but tiny scaled-down
    supplier counts can make them collide, violating the (partkey,
    suppkey) primary key. We therefore use slot offsets ``(i * S) // 4``
    — four values that are pairwise distinct modulo S for every S >= 4 —
    preserving the spec's spread while staying collision-free at any
    scale. Registered from the suite: an example of PDGF's plugin
    mechanism.
    """

    def bind(self, ctx: BindContext) -> None:
        self._suppliers = ctx.table_sizes.get("supplier") or ctx.schema.table_size(
            "supplier"
        )

    def generate(self, ctx: GenerationContext) -> int:
        part = ctx.row // D.SUPPLIERS_PER_PART + 1
        slot = ctx.row % D.SUPPLIERS_PER_PART
        s = self._suppliers
        return (part + (slot * s) // D.SUPPLIERS_PER_PART) % s + 1


def _dict(values, weights=None, **params) -> GeneratorSpec:
    merged: dict[str, object] = {"values": list(values)}
    if weights is not None:
        merged["weights"] = list(weights)
    merged.update(params)
    return GeneratorSpec("DictListGenerator", merged)


def _ref(table: str, field: str) -> GeneratorSpec:
    return GeneratorSpec("DefaultReferenceGenerator", {"table": table, "field": field})


def _formatted_key(prefix: str, width: int = 9) -> GeneratorSpec:
    """``Prefix#000000001`` names derived from the row number."""
    return GeneratorSpec(
        "SequentialGenerator",
        {"template": prefix + "#{0:0" + str(width) + "d}"},
        [GeneratorSpec("RowFormulaGenerator", {"formula": "row + 1"})],
    )


def _comment(size: int) -> GeneratorSpec:
    return GeneratorSpec(
        "MarkovChainGenerator",
        {"model": COMMENT_MODEL, "min": 3, "max": 14, "max_chars": size},
    )


def tpch_schema(scale_factor: float = 1.0, seed: int = 12456789) -> Schema:
    """Build the TPC-H model at a scale factor."""
    schema = Schema("tpch", seed=seed)
    props = schema.properties
    props.define("SF", str(scale_factor))
    for table, base in D.BASE_CARDINALITIES.items():
        if table in D.FIXED_TABLES:
            props.define(f"{table}_size", str(base))
        else:
            props.define(f"{table}_size", f"max(1, {base} * ${{SF}})")

    schema.add_table(_region())
    schema.add_table(_nation())
    schema.add_table(_supplier())
    schema.add_table(_customer())
    schema.add_table(_part())
    schema.add_table(_partsupp())
    schema.add_table(_orders())
    schema.add_table(_lineitem())
    return schema


def tpch_artifacts(seed: int = 20150531, sentences: int = 400) -> ArtifactStore:
    """Artifacts for the model: the shared comment Markov chain.

    Trained on a dbgen-grammar corpus so vocabulary (~1500-word class)
    and branching match the paper's l_comment model in spirit.
    """
    store = ArtifactStore()
    chain = MarkovChain(order=1)
    chain.train_all(comment_sentences(XorShift64Star(seed), count=sentences))
    store.put(COMMENT_MODEL, chain)
    return store


# -- table definitions -------------------------------------------------------


def _region() -> Table:
    return Table("region", "${region_size}", [
        Field.of("r_regionkey", "BIGINT", GeneratorSpec("IdGenerator", {"base": 0}), primary=True),
        Field.of("r_name", "VARCHAR(25)", _dict(D.REGIONS, by_row=True)),
        Field.of("r_comment", "VARCHAR(152)", _comment(152)),
    ])


def _nation() -> Table:
    names = [name for name, _ in D.NATIONS]
    region_keys = [str(region) for _, region in D.NATIONS]
    return Table("nation", "${nation_size}", [
        Field.of("n_nationkey", "BIGINT", GeneratorSpec("IdGenerator", {"base": 0}), primary=True),
        Field.of("n_name", "VARCHAR(25)", _dict(names, by_row=True)),
        Field.of("n_regionkey", "BIGINT", _dict(region_keys, by_row=True, as_int=True)),
        Field.of("n_comment", "VARCHAR(152)", _comment(152)),
    ])


def _supplier() -> Table:
    return Table("supplier", "${supplier_size}", [
        Field.of("s_suppkey", "BIGINT", GeneratorSpec("IdGenerator"), primary=True),
        Field.of("s_name", "CHAR(25)", _formatted_key("Supplier")),
        Field.of("s_address", "VARCHAR(40)", GeneratorSpec("AddressGenerator")),
        Field.of("s_nationkey", "BIGINT", _ref("nation", "n_nationkey")),
        Field.of("s_phone", "CHAR(15)", GeneratorSpec("PhoneGenerator")),
        Field.of("s_acctbal", "DECIMAL(15,2)", GeneratorSpec(
            "DoubleGenerator",
            {"min": D.ACCTBAL_MIN, "max": D.ACCTBAL_MAX, "places": 2},
        )),
        Field.of("s_comment", "VARCHAR(101)", _comment(101)),
    ])


def _customer() -> Table:
    return Table("customer", "${customer_size}", [
        Field.of("c_custkey", "BIGINT", GeneratorSpec("IdGenerator"), primary=True),
        Field.of("c_name", "VARCHAR(25)", _formatted_key("Customer")),
        Field.of("c_address", "VARCHAR(40)", GeneratorSpec("AddressGenerator")),
        Field.of("c_nationkey", "BIGINT", _ref("nation", "n_nationkey")),
        Field.of("c_phone", "CHAR(15)", GeneratorSpec("PhoneGenerator")),
        Field.of("c_acctbal", "DECIMAL(15,2)", GeneratorSpec(
            "DoubleGenerator",
            {"min": D.ACCTBAL_MIN, "max": D.ACCTBAL_MAX, "places": 2},
        )),
        Field.of("c_mktsegment", "CHAR(10)", _dict(D.MARKET_SEGMENTS)),
        Field.of("c_comment", "VARCHAR(117)", _comment(117)),
    ])


def _part() -> Table:
    name_word = _dict(D.PART_NAME_WORDS)
    return Table("part", "${part_size}", [
        Field.of("p_partkey", "BIGINT", GeneratorSpec("IdGenerator"), primary=True),
        Field.of("p_name", "VARCHAR(55)", GeneratorSpec(
            "SequentialGenerator", {"separator": " "},
            [name_word, _dict(D.PART_NAME_WORDS), _dict(D.PART_NAME_WORDS),
             _dict(D.PART_NAME_WORDS), _dict(D.PART_NAME_WORDS)],
        )),
        Field.of("p_mfgr", "CHAR(25)", GeneratorSpec(
            "SequentialGenerator", {"template": "Manufacturer#{0}"},
            [GeneratorSpec("IntGenerator", {"min": 1, "max": 5})],
        )),
        Field.of("p_brand", "CHAR(10)", GeneratorSpec(
            "SequentialGenerator", {"template": "Brand#{0}{1}"},
            [GeneratorSpec("IntGenerator", {"min": 1, "max": 5}),
             GeneratorSpec("IntGenerator", {"min": 1, "max": 5})],
        )),
        Field.of("p_type", "VARCHAR(25)", GeneratorSpec(
            "SequentialGenerator", {"separator": " "},
            [_dict(D.TYPE_SYLLABLE_1), _dict(D.TYPE_SYLLABLE_2), _dict(D.TYPE_SYLLABLE_3)],
        )),
        Field.of("p_size", "INTEGER", GeneratorSpec("IntGenerator", {"min": 1, "max": 50})),
        Field.of("p_container", "CHAR(10)", GeneratorSpec(
            "SequentialGenerator", {"separator": " "},
            [_dict(D.CONTAINER_SYLLABLE_1), _dict(D.CONTAINER_SYLLABLE_2)],
        )),
        # Spec formula 4.2.3: retailprice is a pure function of partkey.
        Field.of("p_retailprice", "DECIMAL(15,2)", GeneratorSpec(
            "FormulaGenerator",
            {"formula": "(90000 + (([p_partkey] // 10) % 20001) "
                        "+ 100 * ([p_partkey] % 1000)) / 100",
             "places": 2},
        )),
        Field.of("p_comment", "VARCHAR(23)", _comment(23)),
    ])


def _partsupp() -> Table:
    return Table("partsupp", "${partsupp_size}", [
        Field.of("ps_partkey", "BIGINT", GeneratorSpec(
            "RowFormulaGenerator", {"formula": f"row // {D.SUPPLIERS_PER_PART} + 1"}
        ), primary=True),
        Field.of("ps_suppkey", "BIGINT", GeneratorSpec("TpchPsSuppkeyGenerator"), primary=True),
        Field.of("ps_availqty", "INTEGER", GeneratorSpec("IntGenerator", {"min": 1, "max": 9999})),
        Field.of("ps_supplycost", "DECIMAL(15,2)", GeneratorSpec(
            "DoubleGenerator", {"min": 1.0, "max": 1000.0, "places": 2}
        )),
        Field.of("ps_comment", "VARCHAR(199)", _comment(199)),
    ])


def _orders() -> Table:
    return Table("orders", "${orders_size}", [
        Field.of("o_orderkey", "BIGINT", GeneratorSpec("IdGenerator"), primary=True),
        Field.of("o_custkey", "BIGINT", _ref("customer", "c_custkey")),
        Field.of("o_orderstatus", "CHAR(1)", _dict(D.ORDER_STATUS, D.ORDER_STATUS_WEIGHTS)),
        Field.of("o_totalprice", "DECIMAL(15,2)", GeneratorSpec(
            "DoubleGenerator", {"min": 850.0, "max": 555000.0, "places": 2}
        )),
        Field.of("o_orderdate", "DATE", GeneratorSpec(
            "DateGenerator", {"min": D.START_DATE, "max": D.ORDER_END_DATE}
        )),
        Field.of("o_orderpriority", "CHAR(15)", _dict(D.ORDER_PRIORITIES)),
        Field.of("o_clerk", "CHAR(15)", GeneratorSpec(
            "SequentialGenerator", {"template": "Clerk#{0:09d}"},
            [GeneratorSpec("IntGenerator", {"min": 1, "max": 1000})],
        )),
        Field.of("o_shippriority", "INTEGER", GeneratorSpec(
            "StaticValueGenerator", {"constant": 0}
        )),
        Field.of("o_comment", "VARCHAR(79)", _comment(79)),
    ])


def _lineitem() -> Table:
    lines = D.LINES_PER_ORDER_AVG
    return Table("lineitem", "${lineitem_size}", [
        Field.of("l_orderkey", "BIGINT", GeneratorSpec(
            "RowFormulaGenerator", {"formula": f"row // {lines} + 1"}
        ), primary=True),
        Field.of("l_partkey", "BIGINT", _ref("part", "p_partkey")),
        Field.of("l_suppkey", "BIGINT", _ref("supplier", "s_suppkey")),
        Field.of("l_linenumber", "INTEGER", GeneratorSpec(
            "RowFormulaGenerator", {"formula": f"row % {lines} + 1"}
        ), primary=True),
        Field.of("l_quantity", "DECIMAL(15,2)", GeneratorSpec(
            "IntGenerator", {"min": 1, "max": 50}
        )),
        # Extended price correlates with quantity and part, like the spec's
        # quantity * part retail price.
        Field.of("l_extendedprice", "DECIMAL(15,2)", GeneratorSpec(
            "FormulaGenerator",
            {"formula": "[l_quantity] * (900 + ([l_partkey] % 1001) * 0.1 "
                        "+ ([l_partkey] % 1000) * 100) / 100",
             "places": 2},
        )),
        Field.of("l_discount", "DECIMAL(15,2)", GeneratorSpec(
            "DoubleGenerator", {"min": 0.0, "max": 0.10, "places": 2}
        )),
        Field.of("l_tax", "DECIMAL(15,2)", GeneratorSpec(
            "DoubleGenerator", {"min": 0.0, "max": 0.08, "places": 2}
        )),
        Field.of("l_returnflag", "CHAR(1)", _dict(D.RETURN_FLAGS, D.RETURN_FLAG_WEIGHTS)),
        Field.of("l_linestatus", "CHAR(1)", _dict(D.LINE_STATUS)),
        Field.of("l_shipdate", "DATE", GeneratorSpec(
            "DateGenerator", {"min": D.START_DATE, "max": D.END_DATE}
        )),
        Field.of("l_commitdate", "DATE", GeneratorSpec(
            "DateGenerator", {"min": D.START_DATE, "max": D.END_DATE}
        )),
        Field.of("l_receiptdate", "DATE", GeneratorSpec(
            "DateGenerator", {"min": D.START_DATE, "max": D.END_DATE}
        )),
        Field.of("l_shipinstruct", "CHAR(25)", _dict(D.SHIP_INSTRUCTIONS)),
        Field.of("l_shipmode", "CHAR(10)", _dict(D.SHIP_MODES)),
        Field.of("l_comment", "VARCHAR(44)", GeneratorSpec(
            "NullGenerator", {"probability": 0.0}, [_comment(44)]
        )),
    ])
