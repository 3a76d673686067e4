"""§2 claim — recomputation vs re-reading for dependency resolution.

Paper (the claim is §2's, the numbers §4's): "While generating complex
values might cost up to 2000 ns, doing a single random read will cost
ca. 10 ms on disk, which means the computational approach is 5000 times
faster than an approach that reads previously generated data to solve
dependencies."

Here: resolving a foreign key by (a) PDGF-style recomputation of the
referenced cell — the scalar ``compute_value`` a dependency takes — vs
(b) reading the previously generated value back from a SQLite table by
random key (the "tracking references" strategy of Bruno et al., paper
§6). The read-back comparator sits on SQLite's page cache, the most
favourable case possible for it, which compresses the paper's 10 ms
spinning-disk gap enormously: the *ordering* is the reproduction target
(asserted > 1.2x), the measured factor is reported.
"""

from __future__ import annotations

from repro.core.loader import DataLoader
from repro.core.translator import SchemaTranslator
from repro.db.sqlite_adapter import SQLiteAdapter
from repro.engine import GenerationEngine
from repro.model.schema import Field, GeneratorSpec, Schema, Table
from repro.prng.xorshift import XorShift64Star

from conftest import interleaved_min, record

SERIES = "§2 claim (recompute vs read-back): strategy | ns/dependency"
ROWS = 5000
BATCH = 1000


def _schema() -> Schema:
    schema = Schema("recompute", seed=31)
    schema.add_table(Table("parent", str(ROWS), [
        Field.of("p_id", "BIGINT", GeneratorSpec("IdGenerator"), primary=True),
        Field.of("p_value", "BIGINT", GeneratorSpec(
            "LongGenerator", {"min": 0, "max": 10**9}
        )),
    ]))
    return schema


def test_recompute_beats_readback(benchmark, tmp_path):
    schema = _schema()
    engine = GenerationEngine(schema)
    adapter = SQLiteAdapter(str(tmp_path / "readback.db"))
    SchemaTranslator().apply(schema, adapter)
    DataLoader(adapter).load(engine)
    rng = XorShift64Star(1)

    def recompute():
        compute_value = engine.compute_value
        for _ in range(BATCH):
            compute_value("parent", "p_value", rng.next_long(ROWS))  # hot-loop-ok: the scalar recompute is what §2 prices

    def readback():
        execute = adapter.execute
        for _ in range(BATCH):
            execute("SELECT p_value FROM parent WHERE p_id = ?", (rng.next_long(ROWS) + 1,))

    # Alternating batches, best of 25 each: a busy spell on a shared
    # host hits both strategies, not one.
    best = benchmark.pedantic(
        interleaved_min, args=({"recompute": recompute, "readback": readback},),
        rounds=1, iterations=1,
    )
    adapter.close()
    recompute_ns, readback_ns = (best[name] * 1e9 / BATCH for name in ("recompute", "readback"))
    record(SERIES, ("recompute (PDGF)", round(recompute_ns)))
    record(SERIES, ("read back (tracking)", round(readback_ns)))
    record(SERIES, ("speedup factor", round(readback_ns / recompute_ns, 2)))
    assert readback_ns > 1.2 * recompute_ns
