"""BigBench-like retail model.

BigBench (paper §1, [7]) extends a TPC-DS-style retail warehouse with
semi-structured web logs and unstructured product reviews — the data set
of the paper's Figure 4 scale-out experiment (SF 5000 ≈ 4.4 TB on their
cluster). This model reproduces its *structure* at laptop scale: store /
web sales, items, customers, a clickstream table, and a free-text
``product_reviews`` table whose review text comes from a Markov model —
the mix of structured, semi-structured, and text data that makes the
BigBench workload representative.
"""

from __future__ import annotations

from repro.generators.base import ArtifactStore
from repro.model.schema import Field, GeneratorSpec, Schema, Table
from repro.prng.xorshift import XorShift64Star
from repro.text.corpus import comment_sentences
from repro.text.markov import MarkovChain

REVIEW_MODEL = "markov:bigbench.review"

BASE_CARDINALITIES = {
    "customer": 100_000,
    "item": 18_000,
    "store_sales": 2_880_000,
    "web_sales": 720_000,
    "web_clickstreams": 6_000_000,
    "product_reviews": 60_000,
}

ITEM_CATEGORIES = [
    "Books", "Electronics", "Home", "Jewelry", "Men", "Music", "Shoes",
    "Sports", "Toys", "Women",
]

WEB_PAGE_TYPES = ["home", "search", "product", "cart", "checkout", "account", "help"]


def _dict(values, **params) -> GeneratorSpec:
    merged: dict[str, object] = {"values": list(values)}
    merged.update(params)
    return GeneratorSpec("DictListGenerator", merged)


def _ref(table: str, field: str) -> GeneratorSpec:
    return GeneratorSpec("DefaultReferenceGenerator", {"table": table, "field": field})


def bigbench_schema(scale_factor: float = 1.0, seed: int = 5000_2013) -> Schema:
    schema = Schema("bigbench", seed=seed)
    props = schema.properties
    props.define("SF", str(scale_factor))
    for table, base in BASE_CARDINALITIES.items():
        props.define(f"{table}_size", f"max(1, {base} * ${{SF}})")

    schema.add_table(Table("customer", "${customer_size}", [
        Field.of("c_customer_sk", "BIGINT", GeneratorSpec("IdGenerator"), primary=True),
        Field.of("c_name", "VARCHAR(40)", GeneratorSpec("PersonNameGenerator")),
        Field.of("c_email", "VARCHAR(60)", GeneratorSpec("EmailGenerator")),
        Field.of("c_address", "VARCHAR(80)", GeneratorSpec("AddressGenerator")),
        Field.of("c_country", "VARCHAR(30)", GeneratorSpec("CountryGenerator")),
        Field.of("c_birth_year", "INTEGER", GeneratorSpec(
            "IntGenerator", {"min": 1930, "max": 2005}
        )),
    ]))

    schema.add_table(Table("item", "${item_size}", [
        Field.of("i_item_sk", "BIGINT", GeneratorSpec("IdGenerator"), primary=True),
        Field.of("i_name", "VARCHAR(60)", GeneratorSpec(
            "SequentialGenerator", {"separator": " "},
            [_dict(ITEM_CATEGORIES), GeneratorSpec("RandomStringGenerator",
                                                   {"min": 4, "max": 10})],
        )),
        Field.of("i_category", "VARCHAR(20)", _dict(ITEM_CATEGORIES)),
        Field.of("i_current_price", "DECIMAL(7,2)", GeneratorSpec(
            "DoubleGenerator", {"min": 0.99, "max": 999.99, "places": 2}
        )),
    ]))

    schema.add_table(Table("store_sales", "${store_sales_size}", [
        Field.of("ss_ticket_number", "BIGINT", GeneratorSpec("IdGenerator"), primary=True),
        Field.of("ss_sold_date", "DATE", GeneratorSpec(
            "DateGenerator", {"min": "2010-01-01", "max": "2014-12-31"}
        )),
        Field.of("ss_customer_sk", "BIGINT", _ref("customer", "c_customer_sk")),
        Field.of("ss_item_sk", "BIGINT", _ref("item", "i_item_sk")),
        Field.of("ss_quantity", "INTEGER", GeneratorSpec("IntGenerator", {"min": 1, "max": 100})),
        Field.of("ss_sales_price", "DECIMAL(7,2)", GeneratorSpec(
            "DoubleGenerator", {"min": 0.99, "max": 999.99, "places": 2}
        )),
        Field.of("ss_net_paid", "DECIMAL(10,2)", GeneratorSpec(
            "FormulaGenerator",
            {"formula": "[ss_quantity] * [ss_sales_price]", "places": 2},
        )),
    ]))

    schema.add_table(Table("web_sales", "${web_sales_size}", [
        Field.of("ws_order_number", "BIGINT", GeneratorSpec("IdGenerator"), primary=True),
        Field.of("ws_sold_date", "DATE", GeneratorSpec(
            "DateGenerator", {"min": "2010-01-01", "max": "2014-12-31"}
        )),
        Field.of("ws_customer_sk", "BIGINT", _ref("customer", "c_customer_sk")),
        Field.of("ws_item_sk", "BIGINT", _ref("item", "i_item_sk")),
        Field.of("ws_quantity", "INTEGER", GeneratorSpec("IntGenerator", {"min": 1, "max": 20})),
        Field.of("ws_net_paid", "DECIMAL(10,2)", GeneratorSpec(
            "DoubleGenerator", {"min": 0.99, "max": 9999.99, "places": 2}
        )),
    ]))

    # Semi-structured: web clickstream events referencing sales entities.
    schema.add_table(Table("web_clickstreams", "${web_clickstreams_size}", [
        Field.of("wcs_click_sk", "BIGINT", GeneratorSpec("IdGenerator"), primary=True),
        Field.of("wcs_click_time", "TIMESTAMP", GeneratorSpec(
            "TimestampGenerator",
            {"min": "2010-01-01 00:00:00", "max": "2014-12-31 23:59:59"},
        )),
        Field.of("wcs_user_sk", "BIGINT", GeneratorSpec(
            "NullGenerator", {"probability": 0.3},  # anonymous sessions
            [_ref("customer", "c_customer_sk")],
        )),
        Field.of("wcs_item_sk", "BIGINT", _ref("item", "i_item_sk")),
        Field.of("wcs_web_page_type", "VARCHAR(10)", _dict(WEB_PAGE_TYPES)),
    ]))

    # Unstructured: free-text reviews from the Markov model; structured
    # references into customer/item (the cross-data-type references that
    # BigBench needs and BDGS lacks, paper §6).
    schema.add_table(Table("product_reviews", "${product_reviews_size}", [
        Field.of("pr_review_sk", "BIGINT", GeneratorSpec("IdGenerator"), primary=True),
        Field.of("pr_item_sk", "BIGINT", _ref("item", "i_item_sk")),
        Field.of("pr_user_sk", "BIGINT", _ref("customer", "c_customer_sk")),
        Field.of("pr_rating", "INTEGER", GeneratorSpec("IntGenerator", {"min": 1, "max": 5})),
        Field.of("pr_review_content", "VARCHAR(500)", GeneratorSpec(
            "MarkovChainGenerator",
            {"model": REVIEW_MODEL, "min": 10, "max": 60, "max_chars": 500},
        )),
    ]))
    return schema


def bigbench_artifacts(seed: int = 777, sentences: int = 500) -> ArtifactStore:
    store = ArtifactStore()
    chain = MarkovChain(order=1)
    chain.train_all(comment_sentences(XorShift64Star(seed), count=sentences))
    store.put(REVIEW_MODEL, chain)
    return store
