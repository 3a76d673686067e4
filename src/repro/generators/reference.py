"""Reference generator: recomputed foreign keys.

PDGF's defining trick (paper §2/§6): instead of *tracking* previously
generated keys (re-reading output, which the paper measures as ~5000x
slower) or generating all related data together, a reference is
*recomputed* — pick a random row of the referenced table and evaluate the
referenced field's generator for that row. Determinism of the seeding
hierarchy guarantees the recomputed value equals the value that row
actually carries in the output.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.exceptions import ModelError
from repro.generators.base import BindContext, GenerationContext, Generator
from repro.generators.id_gen import affine_column
from repro.generators.registry import register
from repro.prng.distributions import Zipf

if TYPE_CHECKING:
    import numpy as np

    from repro import columnar


@register("DefaultReferenceGenerator")
class DefaultReferenceGenerator(Generator):
    """Consistent references to another table's field.

    Parameters: ``table`` and ``field`` (the referenced column), optional
    ``distribution`` = ``uniform`` (default) or ``zipf`` for skewed fact
    tables.

    Fast path: when the referenced field is a plain ``IdGenerator``, the
    value is computed inline (``base + row * step``) without the engine
    callback — this is the overwhelmingly common PK/FK case and keeps
    reference cost in the basic-generator latency class (paper Fig. 8).
    """

    def bind(self, ctx: BindContext) -> None:
        table_name = self.spec.params.get("table")
        field_name = self.spec.params.get("field")
        if not table_name or not field_name:
            raise ModelError("DefaultReferenceGenerator requires table and field")
        self._table_name = str(table_name)
        self._field_name = str(field_name)
        try:
            target_table = ctx.schema.table_by_name(self._table_name)
            target_field = target_table.field_by_name(self._field_name)
        except ModelError as exc:
            raise ModelError(f"unresolvable reference: {exc}") from exc
        size = ctx.table_sizes.get(self._table_name)
        if size is None:
            size = ctx.schema.table_size(self._table_name)
        if size <= 0:
            raise ModelError(
                f"reference into empty table {self._table_name!r} (size {size})"
            )
        self._target_size = size

        self._id_fastpath: tuple[int, int] | None = None
        spec = target_field.generator
        if spec.name == "IdGenerator":
            self._id_fastpath = (
                int(spec.params.get("base", 1)),
                int(spec.params.get("step", 1)),
            )

        distribution = str(self.spec.params.get("distribution", "uniform"))
        self._zipf = None
        if distribution == "zipf":
            exponent = ctx.resolve_numeric(self.spec.params.get("exponent"), 1.0)
            self._zipf = Zipf(min(self._target_size, 10_000), exponent)
        elif distribution != "uniform":
            raise ModelError(f"unknown reference distribution {distribution!r}")

    def _pick_row(self, ctx: GenerationContext) -> int:
        if self._zipf is not None:
            # ranks stop at min(size, 10 000): rank - 1 is a row
            return self._zipf.sample_index(ctx.rng)
        return ctx.rng.next_long(self._target_size)

    def generate(self, ctx: GenerationContext) -> object:
        row = self._pick_row(ctx)
        if self._id_fastpath is not None:
            base, step = self._id_fastpath
            return base + row * step
        return ctx.foreign(self._table_name, self._field_name, row)

    def generate_block(self, ctx: GenerationContext, rows: np.ndarray) -> columnar.Column:
        import numpy as np

        if self._zipf is not None:
            picks = self._zipf.index_block(ctx.seed_block).astype(np.int64)
        else:
            picks = ctx.seed_block.next_long(self._target_size).astype(np.int64)
        if self._id_fastpath is not None:
            return affine_column(*self._id_fastpath, picks)
        # Non-id target: the referenced cells, recomputed as one block
        return ctx.gather(self._table_name, self._field_name, picks)

    @property
    def target(self) -> tuple[str, str]:
        return (self._table_name, self._field_name)
