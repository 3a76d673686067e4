"""TPC-H's plug-in generator, registered when the model's artifacts
are built (:func:`~repro.suites.tpch.schema.tpch_artifacts`): binding
needs it, describing the schema does not."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.generators.base import BindContext, GenerationContext, Generator
from repro.generators.registry import register
from repro.suites.tpch import data as D

if TYPE_CHECKING:
    import numpy as np

    from repro import columnar


@register("TpchPsSuppkeyGenerator")
class TpchPsSuppkeyGenerator(Generator):
    """The partsupp supplier permutation (spec clause 4.2.3 shape).

    The spec formula
    ``(ps_partkey + i * (S/4 + (ps_partkey - 1) / S)) mod S + 1`` spreads
    a part's four suppliers around the supplier key space. At the exact
    spec sizes the four slots never collide, but tiny scaled-down
    supplier counts can make them collide, violating the (partkey,
    suppkey) primary key. We therefore use slot offsets ``(i * S) // 4``
    — four values that are pairwise distinct modulo S for every S >= 4 —
    preserving the spec's spread while staying collision-free at any
    scale. Registered from the suite: an example of PDGF's plugin
    mechanism.
    """

    def bind(self, ctx: BindContext) -> None:
        self._suppliers = ctx.table_sizes.get("supplier") or ctx.schema.table_size(
            "supplier"
        )

    def generate(self, ctx: GenerationContext) -> int:
        return self._suppkey(ctx.row)

    def generate_block(self, ctx: GenerationContext, rows: np.ndarray) -> columnar.IntColumn:
        """The same arithmetic over the block's rows; no draws."""
        from repro import columnar

        return columnar.IntColumn(self._suppkey(rows))

    def _suppkey(self, row):
        part = row // D.SUPPLIERS_PER_PART + 1
        slot = row % D.SUPPLIERS_PER_PART
        s = self._suppliers
        return (part + (slot * s) // D.SUPPLIERS_PER_PART) % s + 1
