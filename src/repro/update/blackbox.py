"""The update black box: deterministic insert/update/delete streams.

PDGF's architecture (paper Figure 2) routes every worker through an
"update black box" that maps abstract time units onto the seeding
hierarchy — this is what made PDGF the basis of the TPC-DI ETL benchmark
generator (paper §1, [6]). Epoch 0 is the base data; each later epoch
deterministically derives a batch of

* **inserts** — brand-new rows appended beyond the current table size,
  generated with the ordinary column generators (so references stay
  consistent),
* **updates** — existing rows whose non-key columns are regenerated
  under the epoch's update seed (same row, new values, repeatable), and
* **deletes** — existing row keys retired this epoch.

Event selection is seed-addressed: the same model and epoch always
produce the same stream, and epochs can be generated independently and
in parallel, like everything else in PDGF.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Iterator

from repro.engine import GenerationEngine
from repro.exceptions import GenerationError
from repro.model.sqlnames import sql_name
from repro.output.rows import ValueFormatter
from repro.prng.xorshift import XorShift64Star, combine64, hash_string64

_KIND_INSERT = "insert"
_KIND_UPDATE = "update"
_KIND_DELETE = "delete"


@dataclass(frozen=True)
class UpdateEvent:
    """One change event of an epoch's batch."""

    kind: str
    table: str
    row: int
    values: tuple | None = None
    columns: tuple[str, ...] | None = None


@dataclass(frozen=True)
class EpochPlan:
    """Row counts of one epoch's batch for one table."""

    table: str
    epoch: int
    inserts: int
    updates: int
    deletes: int
    insert_start: int


class UpdateBlackBox:
    """Generates per-epoch change batches for a model.

    Runs off the caller's bound engine: the base data (epoch 0) and each
    epoch's updates come from :meth:`GenerationEngine.at_update`, which
    shares its bound generators. ``insert_fraction`` /
    ``update_fraction`` / ``delete_fraction`` size each epoch's batch
    relative to the base table size. Key columns (primary fields and ID
    generators) are never updated — updates touch the mutable attribute
    columns only.
    """

    def __init__(
        self,
        engine: GenerationEngine,
        *,
        insert_fraction: float = 0.01,
        update_fraction: float = 0.01,
        delete_fraction: float = 0.005,
    ) -> None:
        for name, fraction in (
            ("insert", insert_fraction),
            ("update", update_fraction),
            ("delete", delete_fraction),
        ):
            if fraction < 0:
                raise GenerationError(f"{name}_fraction must be >= 0, got {fraction}")
        self.schema = engine.schema
        self.insert_fraction = insert_fraction
        self.update_fraction = update_fraction
        self.delete_fraction = delete_fraction
        self._base = engine.at_update(0)

    def plan(self, table: str, epoch: int) -> EpochPlan:
        """Batch sizes and the insert row offset for one epoch."""
        if epoch < 1:
            raise GenerationError(f"epochs start at 1, got {epoch}")
        self._base.bound_table(table)  # an unknown table is a ModelError
        base_size = self._base.sizes[table]
        inserts = int(base_size * self.insert_fraction)
        updates = int(base_size * self.update_fraction)
        deletes = int(base_size * self.delete_fraction)
        insert_start = base_size + (epoch - 1) * inserts
        return EpochPlan(table, epoch, inserts, updates, deletes, insert_start)

    def _updatable_columns(self, table: str) -> list[int]:
        bound = self._base.bound_table(table)
        indices = []
        for index, field in enumerate(bound.table.fields):
            if field.primary or field.generator.name == "IdGenerator":
                continue
            if field.generator.name == "DefaultReferenceGenerator":
                continue
            indices.append(index)
        return indices

    def _choose_rows(
        self,
        table: str,
        epoch: int,
        kind: str,
        count: int,
        exclude: frozenset[int] = frozenset(),
    ) -> list[int]:
        """Deterministic distinct row picks for update/delete batches.

        ``exclude`` removes rows from the candidate pool — the update
        draw passes the epoch's delete set so one epoch never emits an
        UPDATE for a row it already DELETEd.
        """
        base_size = self._base.sizes[table]
        available = base_size - len(exclude)
        if base_size == 0 or count == 0 or available <= 0:
            return []
        count = min(count, available)
        kind_tag = 1 if kind == _KIND_UPDATE else 2
        seed = combine64(
            hash_string64(table) ^ self.schema.seed, (epoch << 4) ^ kind_tag
        )
        rng = XorShift64Star(seed)
        chosen: set[int] = set()
        # Rejection sampling; count << base_size in realistic use, and the
        # min() above bounds the loop for degenerate configurations.
        while len(chosen) < count:
            row = rng.next_long(base_size)
            if row not in exclude:
                chosen.add(row)
        return sorted(chosen)

    def epoch_events(self, table: str, epoch: int) -> Iterator[UpdateEvent]:
        """Yield the full change batch for a table and epoch.

        Order: deletes, then updates, then inserts (a load-friendly order;
        consumers that need another order can sort by ``kind``).
        """
        plan = self.plan(table, epoch)
        base_bound = self._base.bound_table(table)
        column_names = base_bound.column_names

        deletes = self._choose_rows(table, epoch, _KIND_DELETE, plan.deletes)
        for row in deletes:
            yield UpdateEvent(_KIND_DELETE, table, row)

        # updates: one block of the epoch engine at the chosen rows;
        # inserts: one block of the base engine past the table's end
        rows = self._choose_rows(
            table, epoch, _KIND_UPDATE, plan.updates, exclude=frozenset(deletes)
        )
        updatable = self._updatable_columns(table)
        update_columns = tuple(column_names[i] for i in updatable)
        epoch_engine = self._base.at_update(epoch)
        block = epoch_engine.bound_table(table).gather(
            rows, epoch_engine.new_context(table), update_columns
        )
        cells = [block.columns[i].to_pylist() for i in updatable]
        for row, values in zip(rows, zip(*cells) if cells else [()] * len(rows)):
            yield UpdateEvent(_KIND_UPDATE, table, row, values, update_columns)

        stop = plan.insert_start + plan.inserts
        block = base_bound.generate_columns(
            plan.insert_start, stop, self._base.new_context(table)
        )
        for row, values in zip(range(plan.insert_start, stop), block.to_rows()):
            yield UpdateEvent(_KIND_INSERT, table, row, tuple(values), tuple(column_names))

    def apply_epoch(self, adapter, table: str, epoch: int, key_column: str) -> dict:
        """Apply one epoch's batch to a live database via an adapter.

        Returns counters ``{"insert": n, "update": n, "delete": n}`` of
        rows the database reports as *affected* (adapter rowcount), not
        of events emitted — an UPDATE or DELETE whose key matches
        nothing (e.g. a row retired in an earlier epoch) contributes 0,
        so a silently no-op batch is visible to the caller.
        ``key_column`` must identify rows as ``row + 1`` (an IdGenerator
        key), which holds for DBSynth-built models.
        """
        counts = {_KIND_INSERT: 0, _KIND_UPDATE: 0, _KIND_DELETE: 0}
        name, key = sql_name(table), sql_name(key_column)
        for event in self.epoch_events(table, epoch):
            if event.kind == _KIND_DELETE:
                affected = adapter.execute_dml(
                    f"DELETE FROM {name} WHERE {key} = ?", (event.row + 1,)
                )
            elif event.kind == _KIND_UPDATE:
                assert event.columns is not None and event.values is not None
                assignments = ", ".join(f"{sql_name(c)} = ?" for c in event.columns)
                affected = adapter.execute_dml(
                    f"UPDATE {name} SET {assignments} WHERE {key} = ?",
                    (*_to_db(event.values), event.row + 1),
                )
            else:
                assert event.columns is not None and event.values is not None
                affected = adapter.insert_rows(
                    table, list(event.columns), [_to_db(event.values)]
                )
            counts[event.kind] += affected
        return counts


def _to_db(values: tuple) -> tuple:
    """Generated values → driver parameters. Dates and timestamps are
    rendered as the SQL writer renders them (its default ``date_format``
    and ``timestamp_format``), so an inserted row stores what a load
    stores and compares with it as text."""
    formatter = ValueFormatter()
    return tuple(
        formatter.format(value) if isinstance(value, datetime.date) else value
        for value in values
    )
