"""Target-database loader.

"The data can be loaded into the target database either using SQL
statements generated by PDGF or a bulk load option, if featured by the
target database" (paper §3). Both paths are implemented: ``bulk=True``
streams parameterized batches through the adapter's ``insert_rows``
(executemany); ``bulk=False`` renders literal INSERT statements through
:func:`~repro.output.formats.format_package` — the SQL column formatter
every ``--format sql`` run uses — and executes each chunk as a script.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass

from repro.db.adapter import DatabaseAdapter
from repro.engine import GenerationEngine
from repro.model.validation import topological_load_order
from repro.output.config import OutputConfig
from repro.output.formats import format_package
from repro.scheduler.work import partition_rows


@dataclass(frozen=True)
class LoadReport:
    """Rows loaded per table."""

    rows_by_table: dict[str, int]

    @property
    def total_rows(self) -> int:
        return sum(self.rows_by_table.values())


def _db_value(value: object) -> object:
    """Generated value → driver-level parameter."""
    if isinstance(value, datetime.datetime):
        return value.strftime("%Y-%m-%d %H:%M:%S")
    if isinstance(value, datetime.date):
        return value.isoformat()
    if isinstance(value, bool):
        return int(value)
    return value


class DataLoader:
    """Loads an engine's output into a database, referenced tables first."""

    def __init__(self, adapter: DatabaseAdapter, batch_size: int = 1000) -> None:
        self.adapter = adapter
        self.batch_size = batch_size

    def load(
        self,
        engine: GenerationEngine,
        tables: list[str] | None = None,
        bulk: bool = True,
    ) -> LoadReport:
        """Generate and load every table (or the given subset)."""
        order = topological_load_order(engine.schema)
        if tables is not None:
            wanted = set(tables)
            order = [name for name in order if name in wanted]
        counts: dict[str, int] = {}
        for name in order:
            if bulk:
                counts[name] = self._load_bulk(engine, name)
            else:
                counts[name] = self._load_sql(engine, name)
        return LoadReport(counts)

    def _load_bulk(self, engine: GenerationEngine, table: str) -> int:
        columns = engine.bound_table(table).column_names
        loaded = 0
        batch: list[tuple] = []
        for values in engine.iter_rows(table):
            batch.append(tuple(_db_value(v) for v in values))
            if len(batch) >= self.batch_size:
                loaded += self.adapter.insert_rows(table, columns, batch)
                batch.clear()
        if batch:
            loaded += self.adapter.insert_rows(table, columns, batch)
        return loaded

    def _load_sql(self, engine: GenerationEngine, table: str) -> int:
        """One ``batch_size``-row chunk of INSERT statements per script."""
        output = OutputConfig(format="sql")
        size = engine.sizes[table]
        for package in partition_rows(table, size, self.batch_size):
            self.adapter.execute_script(format_package(engine, output, package))
        return size
