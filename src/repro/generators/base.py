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

from repro import columnar
from repro.exceptions import GenerationError
from repro.prng.xorshift import XorShift64Star

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.model.properties import PropertySet
    from repro.model.schema import Field, GeneratorSpec, Schema, Table
    from repro.prng.blocks import SeedBlock


#: Blocks shorter than this keep the per-row loop in the generators whose
#: array kernels have a fixed cost (MarkovChain, Formula, RowFormula), so
#: 1-row serve reads and previews pay nothing for them and never build
#: the Markov chain tables. Measured on the TPC-H model (per block, loop
#: vs kernel): ``o_comment`` 16 rows 95 vs 165 us, 32 rows 189 vs 185 us,
#: 64 rows 343 vs 268 us, 256 rows 1526 vs 448 us; the two formula
#: kernels cost 7-15 us flat and break even at 8 rows; the Markov
#: break-even decides.
_KERNEL_MIN_ROWS = 32


def as_bool(value: object, default: bool = False) -> bool:
    """Parse a spec parameter that may come from XML as a string.

    ``"false"``/``"0"``/``"no"`` are False; absent values take *default*.
    """
    if value is None:
        return default
    if isinstance(value, bool):
        return value
    return str(value).strip().lower() not in ("", "false", "0", "no")


class ArtifactStore:
    """Named store of model artifacts: dictionaries and Markov chains.

    Mirrors PDGF's ``dicts/`` and ``markov/`` directories: the schema XML
    references artifacts by name (``<file>markov/l_comment.bin</file>``)
    and the store resolves them, either from memory or from disk.
    """

    def __init__(self) -> None:
        self._items: dict[str, object] = {}

    def put(self, name: str, artifact: object) -> None:
        self._items[name] = artifact

    def get(self, name: str) -> object:
        try:
            return self._items[name]
        except KeyError:
            raise GenerationError(f"unknown model artifact {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._items

    def names(self) -> list[str]:
        return sorted(self._items)

    def save_dir(self, directory: str) -> None:
        """Persist all artifacts under *directory* (one file each)."""
        import os

        os.makedirs(directory, exist_ok=True)
        for name, artifact in self._items.items():
            safe = name.replace("/", "__")
            path = os.path.join(directory, safe)
            save = getattr(artifact, "save", None)
            if save is None:
                raise GenerationError(f"artifact {name!r} is not serializable")
            save(path)

    @classmethod
    def load_dir(cls, directory: str) -> "ArtifactStore":
        """Load artifacts saved by :meth:`save_dir`.

        Artifact kind is recovered from the name prefix used by the
        builders: ``dict:<column>`` vs ``markov:<column>``.
        """
        import os

        from repro.text.dictionary import WeightedDictionary
        from repro.text.markov import MarkovChain

        store = cls()
        for entry in sorted(os.listdir(directory)):
            name = entry.replace("__", "/")
            path = os.path.join(directory, entry)
            if name.startswith("markov:"):
                store.put(name, MarkovChain.load(path))
            else:
                store.put(name, WeightedDictionary.load(path))
        return store


@dataclass
class BindContext:
    """Everything a generator may inspect when it is bound to a field."""

    schema: "Schema"
    table: "Table"
    field: "Field"
    properties: "PropertySet"
    artifacts: ArtifactStore
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
    # Filled by BoundTable.generate_row: the current row's already
    # generated values and the field-name → index map. Sibling lookups
    # hit this cache instead of recomputing when the sibling was
    # generated earlier in the same row (field order in the model).
    row_values: list | None = None
    field_indices: dict[str, int] | None = None
    # Filled by BoundTable.generate_columns: the per-row cell seeds of
    # the column being generated, the block's first row, and the
    # completed columns of the current block (the column-major analogue
    # of ``row_values`` for sibling lookups).
    seed_block: "SeedBlock | None" = None
    batch_start: int = 0
    batch_columns: list | None = None

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
                    offset = self.row - self.batch_start
                    column = columns[index]
                    if 0 <= offset < len(column):
                        return column[offset]
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

    def generate_block(
        self, ctx: GenerationContext, start: int, count: int
    ) -> columnar.Column:
        """The column for rows ``[start, start + count)``.

        The caller sets ``ctx.seed_block`` to the block's per-row cell
        seeds (``reseed_mixed`` inputs, one per row); the result is a
        :class:`repro.columnar.Column` of exactly *count* values whose
        ``to_pylist()`` equals calling :meth:`generate` once per row
        with the same seeds — the engine relies on that to keep every
        output format byte-identical to the scalar oracle.

        The default *is* that per-row loop, wrapped in an
        :class:`~repro.columnar.ObjectColumn`, so every generator is
        block-correct for free. High-volume generators override it with
        vectorized kernels (see :mod:`repro.prng.blocks`) and typed
        columns the output layer formats at array level. Overrides may
        consult ``ctx.batch_columns`` for completed sibling columns and
        must leave ``ctx.seed_block`` as they found it.
        """
        seeds = ctx.seed_block
        if seeds is None:
            raise GenerationError(
                f"{type(self).__name__}.generate_block needs ctx.seed_block"
            )
        seed_ints = seeds.ints
        reseed = ctx.rng.reseed_mixed
        generate = self.generate
        values: list = []
        append = values.append
        for offset in range(count):
            ctx.row = start + offset
            reseed(seed_ints[offset])
            append(generate(ctx))
        return columnar.ObjectColumn(values)

    def describe(self) -> str:
        return type(self).__name__
