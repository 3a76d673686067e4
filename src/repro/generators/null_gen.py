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

from typing import TYPE_CHECKING

from repro.exceptions import ModelError
from repro.generators.base import BindContext, GenerationContext
from repro.generators.conditional import ChoiceGenerator
from repro.generators.registry import register

if TYPE_CHECKING:
    import numpy as np


@register("NullGenerator")
class NullGenerator(ChoiceGenerator):
    """``None`` with probability ``probability``, else the child's value."""

    def __init__(self, spec) -> None:
        spec.child()  # exactly one sub-generator
        super().__init__(spec)

    def bind(self, ctx: BindContext) -> None:
        raw = self.spec.params.get("probability", 0.0)
        try:
            self._probability = float(raw)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            raise ModelError(f"NULL probability {raw!r} is not numeric") from None
        if not 0.0 <= self._probability <= 1.0:
            raise ModelError(f"NULL probability {self._probability} outside [0, 1]")
        super().bind(ctx)

    # The probability draw always happens, even at 0% — this keeps the
    # child's PRNG stream identical for every probability setting and
    # matches the paper's cost structure (Figure 7: the 0% case pays the
    # wrapper's draw *plus* the sub-generator).
    def choose(self, ctx: GenerationContext) -> int:
        return -1 if ctx.rng.next_double() < self._probability else 0

    def choose_block(self, ctx: GenerationContext, rows: np.ndarray):
        import numpy as np

        return np.where(ctx.seed_block.next_double() < self._probability, -1, 0)
