"""Target-database loader.

"The data can be loaded into the target database either using SQL
statements generated by PDGF or a bulk load option, if featured by the
target database" (paper §3). Every load here takes the first: a
``generate()`` run into the SQLite sink — the SQL text of the one
writer (:func:`~repro.output.formats.format_package`), one transaction
per work package on the one package grid, referenced tables first.
``dbsynth generate --kind sqlite`` is the same run from the command line.
"""

from __future__ import annotations

from repro.db.adapter import DatabaseAdapter
from repro.engine import GenerationEngine
from repro.model.validation import topological_load_order
from repro.output.config import OutputConfig
from repro.scheduler.scheduler import RunReport, generate


def load(
    engine: GenerationEngine, target: DatabaseAdapter | str, tables: list[str] | None = None
) -> RunReport:
    """Generate every table (or the given subset) into *target* — an
    open adapter, borrowed and left open, or a SQLite path — referenced
    tables first. The target schema must already exist."""
    order = topological_load_order(engine.schema)
    if tables is not None:
        order = [name for name in order if name in tables]
    output = OutputConfig(kind="sqlite", database=target)
    return generate(engine, output, tables=order)
