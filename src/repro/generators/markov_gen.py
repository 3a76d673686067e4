"""Markov chain text generator.

Replays a :class:`~repro.text.markov.MarkovChain` built by DBSynth from
sampled free text (paper §3 / Listing 1's ``gen_MarkovChainGenerator``
with ``min``/``max`` word bounds and a model file reference).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.exceptions import ModelError
from repro.generators.base import (
    BindContext,
    GenerationContext,
    Generator,
    clip_words,
    max_chars,
)
from repro.generators.registry import register
from repro.text.markov import MarkovChain

if TYPE_CHECKING:
    import numpy as np

    from repro import columnar


@register("MarkovChainGenerator")
class MarkovChainGenerator(Generator):
    """Generates free text from a trained Markov model.

    Parameters: ``model`` (artifact name, e.g. ``markov:l_comment``),
    ``min``/``max`` word counts (defaults 1/10 as in Listing 1), and an
    optional ``max_chars`` clamp to respect the column's declared width.
    """

    def bind(self, ctx: BindContext) -> None:
        name = self.spec.params.get("model")
        if not name:
            raise ModelError("MarkovChainGenerator requires a model parameter")
        artifact = ctx.artifacts.get(str(name))
        if not isinstance(artifact, MarkovChain):
            raise ModelError(f"artifact {name!r} is not a Markov chain")
        if not artifact.trained:
            raise ModelError(f"Markov chain {name!r} is untrained")
        self._chain = artifact
        self._min = int(ctx.resolve_numeric(self.spec.params.get("min"), 1))
        self._max = int(ctx.resolve_numeric(self.spec.params.get("max"), 10))
        if self._min < 1 or self._max < self._min:
            raise ModelError(f"bad word bounds [{self._min}, {self._max}]")
        self._max_chars = max_chars(ctx, self.spec.params.get("max_chars"))

    def generate(self, ctx: GenerationContext) -> str:
        return clip_words(self._chain.generate(ctx.rng, self._min, self._max), self._max_chars)

    def generate_block(self, ctx: GenerationContext, rows: np.ndarray) -> columnar.Column:
        """All rows advance through the chain in lockstep, one draw per
        row per step (:class:`~repro.text.markov.ChainTables`), built by
        the first block of any length. A range shorter than
        ``engine.SCALAR_ROWS`` that becomes rows or bytes is computed row
        by row, so it builds none."""
        seeds, tables = ctx.seed_block, self._chain.block_tables()
        if seeds is None or not tables.plain:
            return super().generate_block(ctx, rows)  # raises without seeds
        from repro import columnar

        initial = seeds.array
        tokens, counts, cut, exhausted, seeds.array = tables.sample(
            initial, self._min, self._max, self._max_chars
        )
        texts = tables.join(tokens, counts, cut, self._max_chars)
        # rows no attempt could bring to ``min`` words: the scalar path
        # keeps the longest of its attempts
        for offset in exhausted:
            ctx.row = int(rows[offset])
            ctx.rng.reseed_mixed(int(initial[offset]))
            texts[offset] = self.generate(ctx)
            seeds.array[offset] = ctx.rng.state
        return columnar.StrColumn(texts, tables.charset)

    @property
    def chain(self) -> MarkovChain:
        return self._chain
