"""The generation engine — PDGF's controller.

Binds a :class:`~repro.model.schema.Schema` to runnable generators,
wires the seeding hierarchy, and exposes the core primitive everything
else is built on: *compute the value of any cell in O(1)*. On top of
that primitive sit row iteration, previews (the paper's instant preview
generation), sibling/foreign recomputation for dependent values, and the
schedulers for parallel runs.
"""

from __future__ import annotations

import copy
import hashlib
import importlib
import json
import threading
from functools import cached_property
from typing import TYPE_CHECKING, Iterable

from repro.exceptions import GenerationError, ModelError
from repro.generators.base import BindContext, GenerationContext
from repro.generators.registry import build_bound, plugin_modules, sibling_reads
from repro.model.artifacts import ArtifactStore
from repro.model.schema import Schema, Table
from repro.model.validation import ensure_valid
from repro.obs import active_metrics
from repro.output.rows import ValueFormatter
from repro.prng.seeding import ColumnSeeder, SeedHierarchy
from repro.prng.xorshift import XorShift64Star, mix64

if TYPE_CHECKING:
    from repro import columnar

_MAX_DEPENDENCY_DEPTH = 16

#: row-block size used when iterating a table outside the scheduler —
#: large enough to amortize vectorized kernels, small enough that a
#: block of materialized rows stays cache- and memory-friendly.
DEFAULT_GENERATION_BLOCK = 1024

#: the one small-row rule: a row range shorter than this is computed by
#: the scalar oracle (``generate_row``, and ``write_rows`` where it
#: becomes bytes) instead of a column block, whose fixed per-column cost
#: — seed block, numpy set-up, kernel and byte-kernel preparation — a
#: short range does not amortize. Read by ``BoundTable.generate_rows``
#: and ``output.formats.format_package`` only; the two paths give the
#: same values and bytes by construction, so it sets speed, never output.
#: Measured on TPC-H SF 0.02, rows from 1000 on, block path (every kernel
#: and byte kernel on at any length) / ``write_rows`` over ``generate_row``,
#: µs, lower quartile of 31-61 rounds, best of three runs, shared 2-core
#: host:
#:
#:   rows  lineitem csv  json   orders csv   json   customer csv  json
#:      1      969/94   1056/114    1009/105   634/74     600/65    656/80
#:     16    1286/1016  1313/1120    798/577  1503/1030   918/722   881/745
#:     24    1227/1381  1331/1614    831/838  1348/1481  1125/1208 1037/1183
#:     32    1341/1940  1432/2172    824/1057  870/1204  1046/1389 1043/1492
#:     64    1466/3673  2247/5203   1015/2069 1057/2281  1267/2770 1189/2828
#:
#: The worst cell's block / scalar, per run: 1.09, 1.05 and 0.99 at 24
#: rows; 0.88, 0.86 and 0.84 at 32. 32 is the smallest measured size
#: (1/8/12/16/24/32/48/64) at which the block path is no dearer on every
#: table, format and run.
SCALAR_ROWS = 32


def _spec_tree(spec) -> list:
    """A GeneratorSpec tree as JSON-able lists (``sort_keys`` orders its
    parameters)."""
    return [spec.name, spec.params, [_spec_tree(child) for child in spec.children]]


def model_identity(
    schema: Schema, artifacts: ArtifactStore | None = None, update: int = 0,
) -> str:
    """SHA-256 over everything that determines generated *values*: the
    seed, the update, each table's resolved size, field names, types
    and generator spec trees, and each artifact's serialized text (what
    :meth:`~repro.model.artifacts.ArtifactStore.save_dir` writes).

    The model's one identity: :attr:`GenerationEngine.fingerprint`, the
    bound-engine cache key, ``Dataset.fingerprint`` and every checkpoint
    fingerprint read it. Models with equal identities generate identical
    cells. Output options and partitioning are not part of it — they
    change encoding, not values.
    """
    sizes = schema.sizes()
    canonical = json.dumps({
        "seed": schema.seed,
        "update": update,
        "tables": [
            [table.name, sizes[table.name], [
                [f.name, str(f.dtype), _spec_tree(f.generator)] for f in table.fields
            ]]
            for table in schema.tables
        ],
        "artifacts": (artifacts or ArtifactStore()).dumps(),
    }, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class BoundTable:
    """A table with its generators instantiated and seeders resolved.

    ``gather`` is the inner loop of every worker: per block of rows
    (``generate_columns`` gathers a range), one vectorized seed
    derivation and one ``generate_block`` call per column.
    ``generate_row`` is the scalar oracle (built on ``Generator.generate``)
    the block output must stay byte-identical to.
    """

    __slots__ = (
        "table", "column_names", "field_indices", "_generators", "_seeders", "_reads",
        "writers",
    )

    def __init__(
        self,
        table: Table,
        hierarchy: SeedHierarchy,
        bind_contexts: list[BindContext],
        update: int = 0,
    ) -> None:
        self.table = table
        self.column_names = [f.name for f in table.fields]
        #: ``{name: position}``, shared read-only by every new context
        self.field_indices = {name: index for index, name in enumerate(self.column_names)}
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
        #: per field, the positions of the siblings its generator tree
        #: reads; worked out by the first projection, never at bind
        self._reads: list[list[int]] | None = None

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

    def gather(
        self, rows, ctx: GenerationContext, fields: Iterable[str] | None = None,
    ) -> columnar.ColumnBlock:
        """The cells at *rows* — int64 row numbers, in any order, repeats
        allowed — as a column block, cell ``i`` being row ``rows[i]``.

        Column-major: the rows are hashed once (one vector ``mix64``
        shared by every column), then each generator produces its whole
        column via :meth:`Generator.generate_block`. Output is
        byte-identical to calling :meth:`generate_row` per row: every
        cell sees exactly the same reseeded PRNG stream, and sibling
        lookups read completed columns (canonical ``column[position]``
        values) instead of recomputing, just like ``generate_row`` reads
        the current row's earlier values.

        ``fields`` projects the block: only those fields and the siblings
        they read (:func:`~repro.generators.registry.sibling_reads`,
        transitively) are generated; every other position holds an empty
        placeholder column. A generated column equals the same column of
        the full block — a sibling read the walk does not know about
        finds an empty placeholder and is recomputed, just slower.
        """
        import numpy as np

        from repro import columnar
        from repro.prng import blocks

        rows = np.asarray(rows, dtype=np.int64)
        wanted = None if fields is None else self._closure(fields)
        count = len(rows)
        if not count:
            return columnar.ColumnBlock(
                list(self.column_names),
                [columnar.ObjectColumn([]) for _ in self.column_names],
                0,
            )
        row_hashes = blocks.row_hash_block(rows)
        columns: list[columnar.Column] = []
        ctx.batch_columns = columns
        try:
            for index, (seeder, generator) in enumerate(
                zip(self._seeders, self._generators)
            ):
                if wanted is not None and index not in wanted:
                    columns.append(columnar.ObjectColumn([]))
                    continue
                # ColumnSeeder.seed_block_from_hashes without its import:
                # this loop runs per column of every block
                ctx.seed_block = blocks.seed_block_from_hashes(seeder.update_seed, row_hashes)
                column = generator.generate_block(ctx, rows)
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

    def generate_columns(
        self, start: int, stop: int, ctx: GenerationContext,
        fields: Iterable[str] | None = None,
    ) -> columnar.ColumnBlock:
        """Rows ``[start, stop)`` as a column block: :meth:`gather` over
        their range."""
        import numpy as np

        return self.gather(np.arange(start, stop, dtype=np.int64), ctx, fields)

    def at_update(self, hierarchy: SeedHierarchy, update: int) -> "BoundTable":
        """This table's bound generators, every column seeded at *update*."""
        bound = copy.copy(self)
        bound._seeders = [
            ColumnSeeder(hierarchy, self.table.name, name, update) for name in self.column_names
        ]
        bound.writers = {}
        return bound

    def _closure(self, fields: Iterable[str]) -> set[int]:
        """Positions of *fields* and of every sibling they read."""
        if self._reads is None:
            self._reads = [
                [self.column_names.index(name) for name in sibling_reads(field.generator)
                 if name in self.column_names]
                for field in self.table.fields
            ]
        wanted: set[int] = set()
        todo = [self.field_index(name) for name in fields]
        while todo:
            index = todo.pop()
            if index not in wanted:
                wanted.add(index)
                todo += self._reads[index]
        return wanted

    def generate_rows(
        self, start: int, stop: int, ctx: GenerationContext
    ) -> list[list[object]]:
        """Rows ``[start, stop)`` as value lists: the column block
        transposed, or, for fewer than :data:`SCALAR_ROWS` rows,
        :meth:`generate_row` per row — the same values, without the
        block's fixed cost (or a numpy import)."""
        if stop - start < SCALAR_ROWS:
            return [self.generate_row(row, ctx) for row in range(start, stop)]
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
        engine. This is how pool workers get theirs
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

    @cached_property
    def fingerprint(self) -> str:
        """This model's :func:`model_identity`, digested on first read."""
        return model_identity(self.schema, self.artifacts, self.update)

    def at_update(self, update: int) -> "GenerationEngine":
        """This model at another update (abstract time unit) without a
        second bind: binding does not depend on the update, so the bound
        generators are shared and only each column's seeder changes."""
        engine = object.__new__(GenerationEngine)  # copy.copy would rebind (__reduce__)
        engine.__dict__.update(
            self.__dict__, update=update, _local=threading.local(), _obs_instruments=None,
            _tables={name: bound.at_update(self.hierarchy, update)
                     for name, bound in self._tables.items()},
        )
        engine.__dict__.pop("fingerprint", None)  # the update is part of it
        return engine

    # -- contexts ----------------------------------------------------------

    def new_context(self, table_name: str) -> GenerationContext:
        """A per-worker context wired for sibling/foreign recomputation."""
        ctx = GenerationContext(rng=XorShift64Star())
        ctx.compute_sibling = self._sibling_computer(table_name)
        ctx.compute_foreign = self.compute_value
        ctx.gather_foreign = self.gather
        bound = self._tables.get(table_name)
        if bound is not None:
            ctx.field_indices = bound.field_indices
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
        state = self._descend(table_name, field_name, (row,), 1)
        ctx = state.acquire(self, table_name)
        state.depth += 1
        try:
            return bound.generate_value(bound.field_index(field_name), row, ctx)
        finally:
            state.depth -= 1
            state.release(ctx)

    def gather(
        self, table_name: str, rows, fields: Iterable[str] | None = None
    ) -> columnar.ColumnBlock:
        """:meth:`compute_value` for many cells at once: *fields* (default
        all) of *table_name* at every row of *rows*, as one projected
        :meth:`BoundTable.gather` block. It checks the rows and the
        dependency depth as ``compute_value`` does, and shares its
        depth, so a cycle through either primitive is caught."""
        import numpy as np

        bound = self._bound(table_name)
        rows = np.asarray(rows, dtype=np.int64)
        extremes = (rows.min(), rows.max()) if len(rows) else ()
        what = "*" if fields is None else "/".join(fields)
        state = self._descend(table_name, what, extremes, len(rows))
        state.depth += 1
        try:
            return bound.gather(rows, self.new_context(table_name), fields)
        finally:
            state.depth -= 1

    def _descend(
        self, table_name: str, what: str, extremes, cells: int
    ) -> "_ScratchState":
        """The checks both recompute primitives make before going one
        dependency deeper — the *extremes* of their rows inside the
        table, the depth below the guard — and the count of *cells*
        recomputed."""
        size = self.sizes[table_name]
        for row in extremes:
            if not 0 <= row < size:
                raise GenerationError(
                    f"row {row} outside table {table_name!r} (size {size})"
                )
        state = self._scratch()
        if state.depth >= _MAX_DEPENDENCY_DEPTH:
            raise GenerationError(
                f"dependency depth exceeded computing {table_name}.{what}; "
                "cyclic field dependency?"
            )
        instruments = self._recompute_instruments()
        if instruments is not None:
            recomputes, depth_gauge = instruments
            recomputes.inc(cells, table=table_name)
            depth_gauge.set_max(state.depth + 1)
        return state

    # -- iteration -----------------------------------------------------------

    def _bound(self, table_name: str) -> BoundTable:
        bound = self._tables.get(table_name)
        if bound is None:
            raise ModelError(f"no such table {table_name!r}")
        return bound

    def bound_table(self, table_name: str) -> BoundTable:
        return self._bound(table_name)

    def _range(
        self, table_name: str, start: int, stop: int | None
    ) -> tuple[BoundTable, int]:
        """The bound table and ``stop`` clamped to ``[start, size]``
        (``None`` is the size) — the one range rule of the range methods
        below and of ``Scheduler.run(row_ranges=)``; a negative *start*
        names rows no table holds."""
        bound = self._bound(table_name)
        if start < 0:
            raise GenerationError(
                f"row {start} outside table {table_name!r} (rows start at 0)"
            )
        size = self.sizes[table_name]
        return bound, max(start, size if stop is None else min(stop, size))

    def generate_row(self, table_name: str, row: int) -> list[object]:
        """All values of one row (fresh context; use iter_rows in loops)."""
        bound = self._bound(table_name)
        return bound.generate_row(row, self.new_context(table_name))

    def generate_rows(
        self, table_name: str, start: int = 0, stop: int | None = None
    ) -> list[list[object]]:
        """Rows ``[start, stop)`` of a table as row value lists
        (:meth:`BoundTable.generate_rows`)."""
        bound, stop = self._range(table_name, start, stop)
        return bound.generate_rows(start, stop, self.new_context(table_name))

    def generate_columns(
        self, table_name: str, start: int = 0, stop: int | None = None
    ) -> columnar.ColumnBlock:
        """Rows ``[start, stop)`` of a table as one column block — one
        call per work package is how the scheduler drives generation.
        ``stop`` defaults to, and is clamped to, the table size; a
        negative ``start`` is a :class:`GenerationError`."""
        bound, stop = self._range(table_name, start, stop)
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
        :meth:`BoundTable.generate_rows` (so a short range, or a short
        tail, takes the scalar oracle), while emitting rows one at a time.
        """
        bound, stop = self._range(table_name, start, stop)
        if block_size <= 0:
            raise GenerationError(
                f"block_size must be positive, got {block_size}"
            )
        ctx = self.new_context(table_name)
        for row in range(start, stop, block_size):
            yield from bound.generate_rows(row, min(row + block_size, stop), ctx)

    def preview(
        self, table_name: str, rows: int = 10, formatter: ValueFormatter | None = None
    ) -> list[list[str]]:
        """First *rows* rows, formatted — PDGF's instant preview that lets
        users iterate on a model without a full run (paper §4).

        :meth:`iter_rows`, so fewer than :data:`SCALAR_ROWS` rows go
        through the scalar oracle and import no numpy."""
        formatter = formatter or ValueFormatter(null_token="NULL")
        return [[formatter.format(v) for v in row] for row in self.iter_rows(table_name, 0, rows)]

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
