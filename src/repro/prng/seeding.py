"""PDGF's hierarchical seeding strategy (paper Figure 1).

Starting from a single *project seed*, one seed is derived per table,
from that one per column, from that one per update (abstract time unit),
and finally one per row. The row seed drives the field value generator.
Because every derivation is a stateless hash (``combine64`` /
``combine_name64``), the seed of any cell ``(table, column, update,
row)`` is computable in O(1) without touching any other cell — this is
what makes reference recomputation and embarrassingly parallel
generation possible.

Table and column seeds are derived from their *names* rather than their
positions: adding, dropping, or reordering unrelated columns leaves
every other column's generated data bit-identical, which is what a model
author editing a DBSynth-extracted configuration expects. (Renaming a
column intentionally re-rolls its data, exactly like changing the
project seed re-rolls everything, paper §3.)

Seeds at the table/column/update levels are cached: a worker generating
a work package of one column re-derives only the per-row seed in its
inner loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.prng.xorshift import combine64, combine_name64, mix64

if TYPE_CHECKING:
    from repro.prng import blocks


class SeedHierarchy:
    """Derives and caches the seed tree below a project seed."""

    __slots__ = ("project_seed", "_table_cache", "_column_cache", "_update_cache")

    def __init__(self, project_seed: int) -> None:
        self.project_seed = project_seed & 0xFFFFFFFFFFFFFFFF
        self._table_cache: dict[str, int] = {}
        self._column_cache: dict[tuple[str, str], int] = {}
        self._update_cache: dict[tuple[str, str, int], int] = {}

    def table_seed(self, table: str) -> int:
        """Seed for the named table (cached)."""
        seed = self._table_cache.get(table)
        if seed is None:
            seed = combine_name64(self.project_seed, table)
            self._table_cache[table] = seed
        return seed

    def column_seed(self, table: str, column: str) -> int:
        """Seed for one column of one table (cached)."""
        key = (table, column)
        seed = self._column_cache.get(key)
        if seed is None:
            seed = combine_name64(self.table_seed(table), column)
            self._column_cache[key] = seed
        return seed

    def update_seed(self, table: str, column: str, update: int = 0) -> int:
        """Seed for one abstract time unit of one column (cached).

        Update 0 is the base data set; updates 1..n are the incremental
        epochs produced by the update black box.
        """
        key = (table, column, update)
        seed = self._update_cache.get(key)
        if seed is None:
            seed = combine64(self.column_seed(table, column), update)
            self._update_cache[key] = seed
        return seed

    def row_seed(self, table: str, column: str, row: int, update: int = 0) -> int:
        """Seed for a single cell. Not cached: rows are visited once per
        work package, and the derivation is a single hash."""
        return combine64(self.update_seed(table, column, update), row)


class ColumnSeeder:
    """Pre-resolved per-column seeder for tight generation loops.

    Workers hold one of these per field while generating a work package;
    the update seed is resolved once, so producing a row seed is a single
    ``combine64`` call (or a single ``mix64`` when the row hash is shared
    across the columns of a row). ``update_seed`` is the column's seed
    at its update, the one input of every cell seed below.
    """

    __slots__ = ("update_seed",)

    def __init__(
        self,
        hierarchy: SeedHierarchy,
        table: str,
        column: str,
        update: int = 0,
    ) -> None:
        self.update_seed = hierarchy.update_seed(table, column, update)

    def seed_for_row(self, row: int) -> int:
        return combine64(self.update_seed, row)

    def seed_from_row_hash(self, row_hash: int) -> int:
        """Row seed given a precomputed ``mix64(row)``.

        ``combine64(seed, row)`` is ``mix64(seed ^ mix64(row))``; a worker
        generating all columns of a row hashes the row once and derives
        each column's cell seed with a single additional mix.
        """
        return mix64(self.update_seed ^ row_hash)

    def seed_block_from_hashes(self, row_hashes) -> "blocks.SeedBlock":
        """Cell seeds for a whole row block given its shared row hashes.

        The block analogue of :meth:`seed_from_row_hash`:
        *row_hashes* comes from :func:`repro.prng.blocks.row_hash_block`
        (computed once per block, shared by every column of the table)
        and the per-column mix is one vector operation.
        """
        from repro.prng import blocks

        return blocks.seed_block_from_hashes(self.update_seed, row_hashes)
