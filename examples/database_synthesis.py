"""The paper's demo workflow: synthesize a database you're not allowed
to ship.

A "customer" owns an IMDb-like database (the paper demos on the real
IMDb dump). They cannot give a vendor the data — only a model. DBSynth:

1. extracts schema metadata (tables, types, keys, sizes);
2. profiles statistics (min/max, NULL probabilities, distinct counts);
3. samples text columns into dictionaries and Markov chains;
4. saves a model the vendor can use *without ever seeing a single
   original row beyond the trained statistics*;
5. the vendor regenerates realistic data at any scale and verifies
   fidelity with SQL comparisons.

Run: ``python examples/database_synthesis.py``
"""

from __future__ import annotations

import tempfile

from repro.core import DBSynthProject, load
from repro.db import SQLiteAdapter, create_schema_sql
from repro.engine import GenerationEngine
from repro.suites.imdb import build_imdb_database


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        print("== customer side: profile the private database ==")
        source = build_imdb_database(
            f"{workdir}/private.db", movies=300, people=450, seed=1894
        )
        project = DBSynthProject(name="imdb", source=source)
        project.extract()
        project.profile()
        result = project.build_model()

        print(f"  {len(result.schema.tables)} tables modelled; decisions:")
        for decision in result.decisions[:8]:
            print(f"    {decision.table}.{decision.column:<18} "
                  f"-> {decision.generator} ({decision.reason})")
        print(f"    ... and {len(result.decisions) - 8} more")

        paths = project.save(f"{workdir}/model")
        print(f"  model + {len(result.artifacts.names())} artifacts saved "
              f"to {paths.root} (this is ALL the vendor receives)")

        print("\n== vendor side: regenerate from the model alone ==")
        schema, artifacts = DBSynthProject.load_saved(f"{workdir}/model")
        schema.properties.override("SF", 2)  # twice the customer's size
        engine = GenerationEngine(schema, artifacts)

        target = SQLiteAdapter(f"{workdir}/synthetic.db")
        target.execute_script(create_schema_sql(schema, "sqlite"))
        report = load(engine, target)
        print(f"  loaded {report.rows:,} synthetic rows: " + ", ".join(
            f"{table.name} {table.rows}" for table in report.tables
        ))

        sample = target.execute(
            "SELECT title, genre, rating, substr(plot, 1, 40) FROM movies LIMIT 3"
        )
        print("  synthetic movies:")
        for row in sample:
            print(f"    {row}")

        print("\n== verification: same queries, original vs synthetic ==")
        schema.properties.override("SF", 1)  # compare at original scale
        compare_target = SQLiteAdapter(f"{workdir}/synthetic_sf1.db")
        compare_target.execute_script(create_schema_sql(schema, "sqlite"))
        load(GenerationEngine(schema, artifacts), compare_target)
        fidelity = project.verify(compare_target)
        for line in fidelity.summary_lines()[:10]:
            print("  " + line)
        print(f"  ... pass rate over {len(fidelity.comparisons)} checks: "
              f"{fidelity.pass_rate:.0%}")

        source.close()
        target.close()
        compare_target.close()


if __name__ == "__main__":
    main()
