"""The generation engine — PDGF's controller.

Binds a :class:`~repro.model.schema.Schema` to runnable generators,
wires the seeding hierarchy, and exposes the core primitive everything
else is built on: *compute the value of any cell in O(1)*. On top of
that primitive sit row iteration, previews (the paper's instant preview
generation), sibling/foreign recomputation for dependent values, and the
schedulers for parallel runs.
"""

from __future__ import annotations

import importlib
import threading

from repro import columnar
from repro.exceptions import GenerationError, ModelError
from repro.generators.base import (
    ArtifactStore,
    BindContext,
    GenerationContext,
)
from repro.generators.registry import build_bound, plugin_modules
from repro.model.schema import Schema, Table
from repro.model.validation import ensure_valid
from repro.obs import active_metrics
from repro.output.rows import ValueFormatter
from repro.prng import blocks
from repro.prng.seeding import ColumnSeeder, SeedHierarchy
from repro.prng.xorshift import XorShift64Star, mix64

_MAX_DEPENDENCY_DEPTH = 16

#: row-block size used when iterating a table outside the scheduler —
#: large enough to amortize vectorized kernels, small enough that a
#: block of materialized rows stays cache- and memory-friendly.
DEFAULT_GENERATION_BLOCK = 1024


class BoundTable:
    """A table with its generators instantiated and seeders resolved.

    ``generate_columns`` is the inner loop of every worker: per row
    block, one vectorized seed derivation and one ``generate_block``
    call per column. ``generate_row`` is the scalar oracle (built on
    ``Generator.generate``) the block output must stay byte-identical to.
    """

    __slots__ = ("table", "column_names", "_generators", "_seeders", "writers")

    def __init__(
        self,
        table: Table,
        hierarchy: SeedHierarchy,
        bind_contexts: list[BindContext],
        update: int = 0,
    ) -> None:
        self.table = table
        self.column_names = [f.name for f in table.fields]
        #: output writers kept with the table (``output.formats``), so
        #: rendered text outlives the work package that rendered it
        self.writers: dict = {}
        self._generators = [
            build_bound(field.generator, ctx)
            for field, ctx in zip(table.fields, bind_contexts)
        ]
        self._seeders = [
            ColumnSeeder(hierarchy, table.name, field.name, update)
            for field in table.fields
        ]

    def generate_row(self, row: int, ctx: GenerationContext) -> list[object]:
        """All field values of one row.

        The row is hashed once (one ``mix64`` shared by all columns) and
        values are published into the context as they are produced, so
        formula/switch generators referencing earlier fields read them
        back instead of recomputing.
        """
        ctx.row = row
        rng = ctx.rng
        row_hash = mix64(row)
        values: list[object] = []
        ctx.row_values = values
        try:
            for seeder, generator in zip(self._seeders, self._generators):
                rng.reseed_mixed(seeder.seed_from_row_hash(row_hash))
                values.append(generator.generate(ctx))
        finally:
            ctx.row_values = None
        return values

    def generate_columns(
        self, start: int, stop: int, ctx: GenerationContext
    ) -> columnar.ColumnBlock:
        """Rows ``[start, stop)`` as a column block.

        Column-major: the row block is hashed once (one vector ``mix64``
        shared by every column), then each generator produces its whole
        column via :meth:`Generator.generate_block`. Output is
        byte-identical to calling :meth:`generate_row` per row: every
        cell sees exactly the same reseeded PRNG stream, and sibling
        lookups read completed columns (canonical ``column[offset]``
        values) instead of recomputing, just like ``generate_row`` reads
        the current row's earlier values.
        """
        count = stop - start
        if count <= 0:
            return columnar.ColumnBlock(
                list(self.column_names),
                [columnar.ObjectColumn([]) for _ in self.column_names],
                0,
            )
        row_hashes = blocks.row_hash_block(start, count)
        columns: list[columnar.Column] = []
        ctx.batch_start = start
        ctx.batch_columns = columns
        try:
            for seeder, generator in zip(self._seeders, self._generators):
                ctx.seed_block = seeder.seed_block_from_hashes(row_hashes)
                column = generator.generate_block(ctx, start, count)
                if len(column) != count:
                    raise GenerationError(
                        f"{generator.describe()} returned "
                        f"{len(column)} values for a block of {count}"
                    )
                columns.append(column)
        finally:
            ctx.batch_columns = None
            ctx.seed_block = None
        return columnar.ColumnBlock(list(self.column_names), columns, count)

    def generate_rows(
        self, start: int, stop: int, ctx: GenerationContext
    ) -> list[list[object]]:
        """Rows ``[start, stop)`` as value lists — the column block
        transposed."""
        return self.generate_columns(start, stop, ctx).to_rows()

    def generate_value(self, column_index: int, row: int, ctx: GenerationContext) -> object:
        """One cell — the recomputation primitive.

        Must derive exactly the same PRNG state as :meth:`generate_row`
        (``reseed_mixed`` over the hierarchy seed), or recomputed
        references and formulas would disagree with the emitted data.
        """
        ctx.row = row
        ctx.rng.reseed_mixed(self._seeders[column_index].seed_for_row(row))
        return self._generators[column_index].generate(ctx)

    def field_index(self, name: str) -> int:
        return self.table.field_index(name)

    @property
    def generators(self) -> list:
        return list(self._generators)


class GenerationEngine:
    """Runs a model: deterministic value computation plus iteration.

    ``artifacts`` supplies DBSynth-built dictionaries and Markov models;
    ``update`` selects the abstract time unit (0 = base data). The engine
    validates the model on construction — invalid models must not reach
    workers (paper's controller initializes the system up front).
    """

    def __init__(
        self,
        schema: Schema,
        artifacts: ArtifactStore | None = None,
        update: int = 0,
    ) -> None:
        ensure_valid(schema)
        self.schema = schema
        self.artifacts = artifacts or ArtifactStore()
        self.update = update
        self.hierarchy = SeedHierarchy(schema.seed)
        self.sizes = schema.sizes()

        self._tables: dict[str, BoundTable] = {}
        for table in schema.tables:
            contexts = [
                BindContext(
                    schema=schema,
                    table=table,
                    field=field,
                    properties=schema.properties,
                    artifacts=self.artifacts,
                    table_sizes=self.sizes,
                )
                for field in table.fields
            ]
            self._tables[table.name] = BoundTable(
                table, self.hierarchy, contexts, update
            )
        self._local = threading.local()
        # Bound telemetry instruments, cached per active registry so the
        # recompute hot path pays one identity check when metrics are on
        # and one None check when they are off.
        self._obs_instruments: tuple | None = None

    def __reduce__(self):
        """Pickle as (schema, artifacts, update) and rebuild on load.

        Bound generators hold thread-locals and closure state that must
        not cross process boundaries; reconstructing from the model
        yields — because generation is seed-addressed — a byte-identical
        engine. This is how pool workers and cluster nodes get theirs
        where processes are spawned (a forked one inherits the parent's).
        A spawned process has imported nothing, so the pickle names the
        modules that register the model's non-built-in generators.
        """
        plugins = set().union(*(
            plugin_modules(field.generator)
            for table in self.schema.tables for field in table.fields
        ))
        model = (self.schema, self.artifacts, self.update)
        return _rebuild_engine, (sorted(plugins), *model)

    # -- contexts ----------------------------------------------------------

    def new_context(self, table_name: str) -> GenerationContext:
        """A per-worker context wired for sibling/foreign recomputation."""
        ctx = GenerationContext(rng=XorShift64Star())
        ctx.compute_sibling = self._sibling_computer(table_name)
        ctx.compute_foreign = self.compute_value
        bound = self._tables.get(table_name)
        if bound is not None:
            ctx.field_indices = {
                name: index for index, name in enumerate(bound.column_names)
            }
        return ctx

    def _sibling_computer(self, table_name: str):
        def compute(field_name: str, row: int) -> object:
            return self.compute_value(table_name, field_name, row)

        return compute

    def _scratch(self) -> "_ScratchState":
        state = getattr(self._local, "scratch", None)
        if state is None:
            state = _ScratchState()
            self._local.scratch = state
        return state

    # -- the core primitive --------------------------------------------------

    def _recompute_instruments(self):
        """``(counter, depth_gauge)`` for the active registry, or None."""
        registry = active_metrics()
        if registry is None:
            return None
        cached = self._obs_instruments
        if cached is None or cached[0] is not registry:
            cached = (
                registry,
                registry.counter(
                    "engine_recomputes_total",
                    "dependency recomputations via compute_value",
                ),
                registry.gauge(
                    "engine_recompute_depth_max",
                    "deepest nested dependency recomputation seen",
                ),
            )
            self._obs_instruments = cached
        return cached[1], cached[2]

    def compute_value(self, table_name: str, field_name: str, row: int) -> object:
        """Recompute one cell without generating anything else.

        This is PDGF's computational dependency resolution: references
        and formulas call back into this instead of reading previously
        generated output. Nested recomputation is allowed up to a fixed
        depth to catch cyclic field dependencies.
        """
        bound = self._bound(table_name)
        size = self.sizes[table_name]
        if not 0 <= row < size:
            raise GenerationError(
                f"row {row} outside table {table_name!r} (size {size})"
            )
        state = self._scratch()
        if state.depth >= _MAX_DEPENDENCY_DEPTH:
            raise GenerationError(
                f"dependency depth exceeded computing {table_name}.{field_name}; "
                "cyclic field dependency?"
            )
        instruments = self._recompute_instruments()
        if instruments is not None:
            recomputes, depth_gauge = instruments
            recomputes.inc(table=table_name)
            depth_gauge.set_max(state.depth + 1)
        ctx = state.acquire(self, table_name)
        state.depth += 1
        try:
            return bound.generate_value(bound.field_index(field_name), row, ctx)
        finally:
            state.depth -= 1
            state.release(ctx)

    # -- iteration -----------------------------------------------------------

    def _bound(self, table_name: str) -> BoundTable:
        bound = self._tables.get(table_name)
        if bound is None:
            raise ModelError(f"no such table {table_name!r}")
        return bound

    def bound_table(self, table_name: str) -> BoundTable:
        return self._bound(table_name)

    def generate_row(self, table_name: str, row: int) -> list[object]:
        """All values of one row (fresh context; use iter_rows in loops)."""
        bound = self._bound(table_name)
        return bound.generate_row(row, self.new_context(table_name))

    def generate_rows(
        self, table_name: str, start: int = 0, stop: int | None = None
    ) -> list[list[object]]:
        """Rows ``[start, stop)`` of a table as one materialized block.

        :meth:`generate_columns` transposed to row value lists.
        ``stop`` defaults to the table size.
        """
        bound = self._bound(table_name)
        size = self.sizes[table_name]
        if stop is None or stop > size:
            stop = size
        return bound.generate_rows(start, stop, self.new_context(table_name))

    def generate_columns(
        self, table_name: str, start: int = 0, stop: int | None = None
    ) -> columnar.ColumnBlock:
        """Rows ``[start, stop)`` of a table as one column block — one
        call per work package is how the scheduler drives generation.
        ``stop`` defaults to the table size."""
        bound = self._bound(table_name)
        size = self.sizes[table_name]
        if stop is None or stop > size:
            stop = size
        return bound.generate_columns(start, stop, self.new_context(table_name))

    def iter_rows(
        self,
        table_name: str,
        start: int = 0,
        stop: int | None = None,
        block_size: int = DEFAULT_GENERATION_BLOCK,
    ):
        """Yield rows ``start..stop`` of a table as value lists.

        Internally generates ``block_size`` rows at a time through
        :meth:`BoundTable.generate_columns`, the same kernels the
        scheduler drives, while emitting rows one at a time.
        """
        bound = self._bound(table_name)
        size = self.sizes[table_name]
        if stop is None or stop > size:
            stop = size
        if block_size <= 0:
            raise GenerationError(
                f"block_size must be positive, got {block_size}"
            )
        ctx = self.new_context(table_name)
        row = start
        while row < stop:
            upper = min(row + block_size, stop)
            yield from bound.generate_rows(row, upper, ctx)
            row = upper

    def preview(
        self, table_name: str, rows: int = 10, formatter: ValueFormatter | None = None
    ) -> list[list[str]]:
        """First *rows* rows, formatted — PDGF's instant preview that lets
        users iterate on a model without a full run (paper §4)."""
        formatter = formatter or ValueFormatter(null_token="NULL")
        return [
            [formatter.format(v) for v in values]
            for values in self.iter_rows(table_name, 0, rows)
        ]

    def total_rows(self) -> int:
        return sum(self.sizes.values())


def _rebuild_engine(plugins, *model) -> GenerationEngine:
    """Unpickle side of :meth:`GenerationEngine.__reduce__`."""
    for module in plugins:
        importlib.import_module(module)
    return GenerationEngine(*model)


class _ScratchState:
    """Thread-local pool of recompute contexts (avoids per-call allocation
    in the reference generator's hot path)."""

    __slots__ = ("depth", "_pool")

    def __init__(self) -> None:
        self.depth = 0
        self._pool: list[GenerationContext] = []

    def acquire(self, engine: GenerationEngine, table_name: str) -> GenerationContext:
        if self._pool:
            ctx = self._pool.pop()
        else:
            ctx = GenerationContext(rng=XorShift64Star())
        ctx.compute_sibling = engine._sibling_computer(table_name)
        ctx.compute_foreign = engine.compute_value
        return ctx

    def release(self, ctx: GenerationContext) -> None:
        if len(self._pool) < _MAX_DEPENDENCY_DEPTH:
            self._pool.append(ctx)
