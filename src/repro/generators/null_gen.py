"""NULL wrapper meta generator.

Wraps any sub-generator and yields ``None`` with a configured
probability (paper Listing 1 wraps the TPC-H comment's Markov generator
in ``gen_NullGenerator probability=.0000d``). DBSynth sets the
probability from the extracted NULL ratio of the source column.

The NULL decision consumes exactly one random draw *before* delegating,
so the sub-generator sees a PRNG stream that is still a pure function of
the row seed — and Figure 7's cost breakdown (base time + generator +
sub base time + sub generator) falls directly out of this structure.
"""

from __future__ import annotations

from repro import columnar
from repro.exceptions import ModelError
from repro.generators.base import BindContext, GenerationContext, Generator
from repro.generators.registry import register, build
from repro.prng import blocks


@register("NullGenerator")
class NullGenerator(Generator):
    """``None`` with probability ``probability``, else the child's value."""

    def __init__(self, spec) -> None:
        super().__init__(spec)
        self._child = build(spec.child())

    def bind(self, ctx: BindContext) -> None:
        raw = self.spec.params.get("probability", 0.0)
        try:
            self._probability = float(raw)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            raise ModelError(f"NULL probability {raw!r} is not numeric") from None
        if not 0.0 <= self._probability <= 1.0:
            raise ModelError(f"NULL probability {self._probability} outside [0, 1]")
        self._child.bind(ctx)

    def generate(self, ctx: GenerationContext) -> object:
        # The probability draw always happens, even at 0% — this keeps the
        # child's PRNG stream identical for every probability setting and
        # matches the paper's cost structure (Figure 7: the 0% case pays
        # the wrapper's draw *plus* the sub-generator).
        if ctx.rng.next_double() < self._probability:
            return None
        return self._child.generate(ctx)

    def generate_block(
        self, ctx: GenerationContext, start: int, count: int
    ) -> columnar.Column:
        states, outs = blocks.xorshift_step(blocks.column_states(ctx.seed_block))
        mask = blocks.to_doubles(outs) < self._probability
        if mask.all():
            return columnar.ObjectColumn([None] * count)
        # The advanced states *are* the child's streams: reseed_mixed on
        # a live (never-zero) xorshift state is the identity, so handing
        # them down as a seed block continues each row's stream exactly
        # where ``generate``'s delegation would.
        parent_block = ctx.seed_block
        ctx.seed_block = blocks.SeedBlock(states)
        try:
            column = self._child.generate_block(ctx, start, count)
        finally:
            ctx.seed_block = parent_block
        if mask.any():
            column.add_nulls(mask)
        return column

    @property
    def child(self) -> Generator:
        return self._child
