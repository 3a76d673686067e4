"""Markov chain text generator.

Replays a :class:`~repro.text.markov.MarkovChain` built by DBSynth from
sampled free text (paper §3 / Listing 1's ``gen_MarkovChainGenerator``
with ``min``/``max`` word bounds and a model file reference).
"""

from __future__ import annotations

from repro import columnar
from repro.exceptions import ModelError
from repro.generators.base import (
    BindContext,
    GenerationContext,
    Generator,
    _KERNEL_MIN_ROWS,
)
from repro.generators.registry import register
from repro.prng import blocks
from repro.text.markov import MarkovChain


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
        max_chars = self.spec.params.get("max_chars")
        if max_chars is None and ctx.field.dtype.length:
            max_chars = ctx.field.dtype.length
        self._max_chars = int(max_chars) if max_chars else None
        if self._max_chars is not None and self._max_chars < 0:
            raise ModelError(f"max_chars must not be negative, got {self._max_chars}")

    def generate(self, ctx: GenerationContext) -> str:
        text = self._chain.generate(ctx.rng, self._min, self._max)
        if self._max_chars is not None and len(text) > self._max_chars:
            clipped = text[: self._max_chars]
            # Cut at the last word boundary so clipped text stays words.
            space = clipped.rfind(" ")
            text = clipped[:space] if space > 0 else clipped
        return text

    def generate_block(
        self, ctx: GenerationContext, start: int, count: int
    ) -> columnar.Column:
        """All rows advance through the chain in lockstep, one draw per
        row per step (:class:`~repro.text.markov.ChainTables`). Small
        blocks keep the per-row loop and never build the tables."""
        seeds = ctx.seed_block
        if seeds is None or count < _KERNEL_MIN_ROWS:
            return super().generate_block(ctx, start, count)  # raises without seeds
        tables = self._chain.block_tables()
        if not tables.plain:
            return super().generate_block(ctx, start, count)
        tokens, counts, exhausted = tables.sample(
            blocks.column_states(seeds), self._min, self._max
        )
        texts = tables.join(tokens, counts, self._max_chars)
        # rows no attempt could bring to ``min`` words: the scalar path
        # keeps the longest of its attempts
        for offset in exhausted:
            ctx.row = start + offset
            ctx.rng.reseed_mixed(int(seeds.array[offset]))
            texts[offset] = self.generate(ctx)
        return columnar.StrColumn(texts, tables.charset)

    @property
    def chain(self) -> MarkovChain:
        return self._chain
