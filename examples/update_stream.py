"""ETL update streams: the TPC-DI-style update black box.

PDGF's update black box (paper Figure 2; the machinery behind TPC-DI's
generator) derives deterministic insert/update/delete batches per
"abstract time unit". This example loads a base data set into SQLite and
then applies three epochs of changes, showing that:

* every epoch is repeatable (re-deriving it yields the same batch);
* inserted rows extend the key sequence and keep references valid;
* updates touch only mutable attribute columns.

Run: ``python examples/update_stream.py``
"""

from __future__ import annotations

from repro.core import load
from repro.db import SQLiteAdapter, create_schema_sql
from repro.engine import GenerationEngine
from repro.model import Field, GeneratorSpec, Schema, Table
from repro.update import UpdateBlackBox


def build_schema() -> Schema:
    schema = Schema("warehouse", seed=777)
    schema.add_table(Table("product", "50", [
        Field.of("p_id", "BIGINT", GeneratorSpec("IdGenerator"), primary=True),
        Field.of("p_name", "VARCHAR(40)", GeneratorSpec("CompanyNameGenerator")),
        Field.of("p_price", "DECIMAL(8,2)", GeneratorSpec(
            "DoubleGenerator", {"min": 1.0, "max": 500.0, "places": 2}
        )),
        Field.of("p_stock", "INTEGER", GeneratorSpec(
            "IntGenerator", {"min": 0, "max": 1000}
        )),
    ]))
    return schema


def main() -> None:
    schema = build_schema()
    adapter = SQLiteAdapter(":memory:")
    adapter.execute_script(create_schema_sql(schema, "sqlite"))
    engine = GenerationEngine(schema)
    load(engine, adapter)
    print(f"== base load: {adapter.row_count('product')} products ==")

    blackbox = UpdateBlackBox(
        engine,  # the loaded model: epochs reuse its bound generators
        insert_fraction=0.10,   # 5 new products per epoch
        update_fraction=0.20,   # 10 price/stock changes per epoch
        delete_fraction=0.04,   # 2 retirements per epoch
    )

    for epoch in (1, 2, 3):
        plan = blackbox.plan("product", epoch)
        print(f"\n== epoch {epoch}: +{plan.inserts} / ~{plan.updates} / "
              f"-{plan.deletes} (inserts start at key {plan.insert_start + 1}) ==")

        # Peek at the first update of the batch before applying it.
        for event in blackbox.epoch_events("product", epoch):
            if event.kind == "update":
                print(f"  e.g. update row {event.row}: "
                      f"{dict(zip(event.columns, event.values))}")
                break

        counts = blackbox.apply_epoch(adapter, "product", epoch, "p_id")
        total = adapter.row_count("product")
        max_key = adapter.execute("SELECT MAX(p_id) FROM product")[0][0]
        print(f"  applied {counts}; table now {total} rows, max key {max_key}")

    # Epochs are repeatable: re-deriving epoch 2 gives the identical batch.
    first = list(blackbox.epoch_events("product", 2))
    second = list(blackbox.epoch_events("product", 2))
    assert first == second
    print("\n== epoch 2 re-derived bit-identically (repeatable updates) ==")
    adapter.close()


if __name__ == "__main__":
    main()
