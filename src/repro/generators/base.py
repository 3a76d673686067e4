"""Generator interfaces and binding/runtime contexts.

A PDGF field value generator is a *pure function of the row seed*: for a
given model, ``generate`` called with the same seeded PRNG and row number
always yields the same value. Generators are declared as
:class:`~repro.model.schema.GeneratorSpec` trees and instantiated once
per field at bind time; the per-value path touches no shared mutable
state, which is what permits fully parallel generation.

Two contexts are involved:

* :class:`BindContext` — available once, when a generator is attached to
  a concrete field: the schema, properties, and the artifact store with
  dictionaries/Markov models.
* :class:`GenerationContext` — the per-row state: the reseeded PRNG, the
  row number, and callbacks to *recompute* sibling or foreign field
  values (PDGF's reference strategy; paper §2's "recomputing them" is
  the fastest reference approach).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field as dc_field
from typing import Callable, TYPE_CHECKING

from repro.exceptions import GenerationError, ModelError
from repro.prng.xorshift import XorShift64Star

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    import numpy as np

    from repro import columnar
    from repro.model.artifacts import ArtifactStore
    from repro.model.properties import PropertySet
    from repro.model.schema import Field, GeneratorSpec, Schema, Table
    from repro.prng.blocks import SeedBlock


def as_bool(value: object, default: bool = False) -> bool:
    """Parse a spec parameter that may come from XML as a string.

    ``"false"``/``"0"``/``"no"`` are False; absent values take *default*.
    """
    if value is None:
        return default
    if isinstance(value, bool):
        return value
    return str(value).strip().lower() not in ("", "false", "0", "no")


def max_chars(ctx: "BindContext", value: object) -> int | None:
    """A text generator's ``max_chars``: absent means the column width
    (no clip for an unsized column); a given value, a Python number or
    model.xml text alike, goes through ``resolve_numeric`` and must be at
    least 1."""
    if value is None:
        return ctx.field.dtype.length or None
    limit = int(ctx.resolve_numeric(value, 0))
    if limit < 1:
        raise ModelError(f"max_chars must be at least 1, got {limit}")
    return limit


def clip_words(text: str, limit: int | None) -> str:
    """*text* cut to *limit* characters and then back to the last word
    boundary before the cut, so clipped text stays words (a first word
    longer than *limit* is itself cut)."""
    if limit is None or len(text) <= limit:
        return text
    clipped = text[:limit]
    space = clipped.rfind(" ")
    return clipped[:space] if space > 0 else clipped


@dataclass
class BindContext:
    """Everything a generator may inspect when it is bound to a field."""

    schema: "Schema"
    table: "Table"
    field: "Field"
    properties: "PropertySet"
    artifacts: "ArtifactStore"
    # Resolved table sizes, filled by the engine before binding.
    table_sizes: dict[str, int] = dc_field(default_factory=dict)

    def resolve_numeric(self, value: object, default: float) -> float:
        """Resolve a spec parameter that may be a number or a formula."""
        if value is None:
            return default
        if isinstance(value, (int, float)):
            return float(value)
        return float(self.properties.evaluate_expression(str(value)))


@dataclass
class GenerationContext:
    """Mutable per-row state, reused across rows of a work package.

    ``rng`` is reseeded with the cell's row seed before each ``generate``
    call. ``compute_sibling`` and ``compute_foreign`` recompute other
    cells (never read previously generated output — the computational
    approach the paper benchmarks as ~5000x faster than re-reading).
    """

    rng: XorShift64Star
    row: int = 0
    update: int = 0
    compute_sibling: Callable[[str, int], object] | None = None
    compute_foreign: Callable[[str, str, int], object] | None = None
    gather_foreign: Callable[[str, np.ndarray, tuple], "columnar.ColumnBlock"] | None = None
    # Filled by BoundTable.generate_row: the current row's already
    # generated values and the field-name → index map. Sibling lookups
    # hit this cache instead of recomputing when the sibling was
    # generated earlier in the same row (field order in the model).
    row_values: list | None = None
    field_indices: dict[str, int] | None = None
    # Filled by BoundTable.gather: the per-row cell seeds of the column
    # being generated and the completed columns of the current block
    # (the column-major analogue of ``row_values`` for sibling lookups,
    # read at the cell's ``position`` in the block).
    seed_block: "SeedBlock | None" = None
    batch_columns: list | None = None
    position: int = 0

    def sibling(self, field_name: str) -> object:
        indices = self.field_indices
        if indices is not None:
            index = indices.get(field_name)
            if index is not None:
                values = self.row_values
                if values is not None and index < len(values):
                    return values[index]
                # Block generation: columns earlier in field order are
                # already complete for the whole block.
                columns = self.batch_columns
                if columns is not None and index < len(columns):
                    column = columns[index]
                    if self.position < len(column):
                        return column[self.position]
        if self.compute_sibling is None:
            raise GenerationError(
                f"sibling value {field_name!r} requested outside an engine run"
            )
        return self.compute_sibling(field_name, self.row)

    def foreign(self, table: str, field_name: str, row: int) -> object:
        if self.compute_foreign is None:
            raise GenerationError(
                f"foreign value {table}.{field_name} requested outside an engine run"
            )
        return self.compute_foreign(table, field_name, row)

    def gather(self, table: str, field_name: str, rows: np.ndarray) -> "columnar.Column":
        """The block form of :meth:`foreign`: *field_name* of *table* at
        every row of *rows*, as one column."""
        if self.gather_foreign is None:
            raise GenerationError(
                f"foreign block {table}.{field_name} requested outside an engine run"
            )
        block = self.gather_foreign(table, rows, (field_name,))
        return block.columns[block.names.index(field_name)]


class Generator(abc.ABC):
    """Base class of all field value generators.

    Subclasses read their parameters from ``spec.params`` in ``__init__``
    (cheap validation) and finish setup in :meth:`bind` (which sees the
    schema). ``generate`` must be deterministic given the context's PRNG
    state and row number; it is the scalar oracle (``compute_value``,
    previews) that :meth:`generate_block` must agree with.
    """

    #: registry key; set by the ``@register`` decorator
    spec_name: str = ""

    def __init__(self, spec: "GeneratorSpec") -> None:
        self.spec = spec

    def bind(self, ctx: BindContext) -> None:
        """Attach to a concrete field. Default: nothing to do."""

    @abc.abstractmethod
    def generate(self, ctx: GenerationContext) -> object:
        """Produce the value for the current row."""

    def generate_block(self, ctx: GenerationContext, rows: np.ndarray) -> columnar.Column:
        """The column of the cells at *rows*.

        *rows* is an int64 array of row numbers, in any order and with
        repeats allowed; the block has ``len(rows)`` cells, cell ``i``
        being row ``rows[i]``. ``ctx.seed_block`` holds each cell's PRNG
        stream, as ``ctx.rng`` holds one row's: the result is a
        :class:`repro.columnar.Column` of exactly ``len(rows)`` values
        whose ``to_pylist()`` equals calling :meth:`generate` once per
        cell on those streams, and the block is left with each cell's
        state where ``generate`` leaves ``ctx.rng``. The engine relies on
        the first to keep every output format byte-identical to the
        scalar oracle; a meta generator relies on the second to run its
        children's kernels in turn.

        The default *is* that per-cell loop, wrapped in an
        :class:`~repro.columnar.ObjectColumn`, so every generator is
        block-correct for free. High-volume generators override it with
        vectorized kernels that draw through the block (see
        :class:`repro.prng.blocks.SeedBlock`), read a row number from
        *rows* (never from a first row plus an offset) and return typed
        columns the output layer formats at array level. Overrides may
        consult ``ctx.batch_columns`` for completed sibling columns,
        indexed by the cell's position in the block.
        """
        import numpy as np

        from repro import columnar

        seeds = ctx.seed_block
        if seeds is None:
            raise GenerationError(
                f"{type(self).__name__}.generate_block needs ctx.seed_block"
            )
        rng = ctx.rng
        generate = self.generate
        values, ends = [], []
        for position, (row, state) in enumerate(zip(rows.tolist(), seeds.ints)):
            ctx.row, ctx.position = row, position
            rng.reseed_mixed(state)
            values.append(generate(ctx))
            ends.append(rng.state)
        seeds.array = np.array(ends, dtype=np.uint64)
        return columnar.ObjectColumn(values)

    def describe(self) -> str:
        return type(self).__name__
