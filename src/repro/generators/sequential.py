"""Sequential (concatenation) meta generator.

PDGF's meta generators let complex values be defined functionally from
simple building blocks (paper §2). The sequential generator runs its
children in order and concatenates their formatted results — the paper's
Figure 9 benchmarks exactly this shape ("Sequential (2 double + long)").
"""

from __future__ import annotations

from repro import columnar
from repro.generators.base import BindContext, GenerationContext, Generator, _KERNEL_MIN_ROWS
from repro.generators.registry import build_children, register


@register("SequentialGenerator")
class SequentialGenerator(Generator):
    """Concatenates child values with ``separator`` (default ``""``).

    ``template`` may alternatively hold ``{0}``-style placeholders that
    the child values are substituted into.
    """

    def __init__(self, spec) -> None:
        super().__init__(spec)
        self._children = build_children(spec)

    def bind(self, ctx: BindContext) -> None:
        self._separator = str(self.spec.params.get("separator", ""))
        template = self.spec.params.get("template")
        self._template = str(template) if template is not None else None
        for child in self._children:
            child.bind(ctx)

    def generate(self, ctx: GenerationContext) -> str:
        values = [child.generate(ctx) for child in self._children]
        if self._template is not None:
            return self._template.format(*values)
        return self._separator.join("" if v is None else str(v) for v in values)

    def generate_block(self, ctx: GenerationContext, rows) -> columnar.Column:
        """The children's kernels in order on the advancing seed block —
        each starts where the one before left every row's stream, as in
        ``generate`` — then one join per row."""
        if ctx.seed_block is None or len(rows) < _KERNEL_MIN_ROWS:
            return columnar.StrColumn(super().generate_block(ctx, rows).data)
        columns = [child.generate_block(ctx, rows).to_pylist() for child in self._children]
        if self._template is not None:
            return columnar.StrColumn(list(map(self._template.format, *columns)))
        texts = [["" if v is None else str(v) for v in column] for column in columns]
        return columnar.StrColumn(list(map(self._separator.join, zip(*texts))))
