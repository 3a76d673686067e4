"""Dictionary generator (PDGF's DictList).

Draws values from a :class:`~repro.text.dictionary.WeightedDictionary`
either by name from the model's artifact store (DBSynth-built
dictionaries) or from an inline value list in the spec. The optional
``unique_suffix`` mode extends the value domain for scale-out scenarios
(paper §6: "DBSynth uses its built in dictionaries to increase the value
domain in scale out scenarios") by appending a deterministic number to
the base dictionary entry.
"""

from __future__ import annotations

import numpy as np

from repro import columnar
from repro.exceptions import GenerationError, ModelError
from repro.generators.base import BindContext, GenerationContext, Generator
from repro.generators.registry import register
from repro.prng import blocks
from repro.text.dictionary import WeightedDictionary


@register("DictListGenerator")
class DictListGenerator(Generator):
    """Weighted pick from a dictionary.

    Parameters:

    * ``dictionary`` — artifact name (e.g. ``dict:c_mktsegment``), or
    * ``values`` — inline list (optionally with ``weights``),
    * ``unique_suffix`` — when truthy, append ``#<n>`` so the value
      domain scales with the table instead of saturating.
    """

    def bind(self, ctx: BindContext) -> None:
        name = self.spec.params.get("dictionary")
        values = self.spec.params.get("values")
        if name is not None:
            artifact = ctx.artifacts.get(str(name))
            if not isinstance(artifact, WeightedDictionary):
                raise ModelError(f"artifact {name!r} is not a dictionary")
            self._dictionary = artifact
        elif values is not None:
            if not isinstance(values, (list, tuple)) or not values:
                raise ModelError("DictListGenerator values must be a non-empty list")
            weights = self.spec.params.get("weights")
            if weights is None:
                self._dictionary = WeightedDictionary.uniform([str(v) for v in values])
            else:
                if len(weights) != len(values):  # type: ignore[arg-type]
                    raise ModelError("values and weights lengths differ")
                from repro.text.dictionary import DictionaryEntry

                self._dictionary = WeightedDictionary(
                    [
                        DictionaryEntry(str(v), float(w))
                        for v, w in zip(values, weights)  # type: ignore[arg-type]
                    ]
                )
        else:
            raise ModelError(
                "DictListGenerator needs a dictionary artifact or inline values"
            )
        from repro.generators.base import as_bool

        self._unique_suffix = as_bool(self.spec.params.get("unique_suffix"))
        self._domain = int(self.spec.params.get("domain", 0) or 0)
        self._by_row = as_bool(self.spec.params.get("by_row"))
        self._as_int = as_bool(self.spec.params.get("as_int"))
        self._values = self._dictionary.values()
        # int conversions are memoized on first block use rather than at
        # bind so non-numeric dictionaries fail at generation time, as
        # ``generate`` does.
        self._int_values: list[int] | None = None

    def generate(self, ctx: GenerationContext) -> object:
        if self._by_row:
            # Positional assignment: row i gets entry i (mod size). Used
            # for fixed enumerations such as TPC-H's nation/region names.
            value = self._dictionary.pick(ctx.row)
            return int(value) if self._as_int else value
        value = self._dictionary.sample(ctx.rng)
        if self._as_int:
            return int(value)
        if not self._unique_suffix:
            return value
        # Deterministic domain extension: the suffix is drawn from the
        # same PRNG stream, so the pair (value, suffix) is repeatable.
        domain = self._domain or max(len(self._dictionary) * 10, 1000)
        return f"{value}#{ctx.rng.next_long(domain)}"

    def generate_block(
        self, ctx: GenerationContext, start: int, count: int
    ) -> columnar.Column:
        values = self._values
        if self._by_row:
            indices = np.arange(start, start + count, dtype=np.int64) % len(values)
            if self._as_int:
                return self._int_column(indices.tolist())
            return columnar.DictColumn(indices, values)
        states, outs = blocks.xorshift_step(blocks.column_states(ctx.seed_block))
        indices = self._dictionary.sample_index_block(blocks.to_doubles(outs))
        # Integer dictionaries and suffixed values stay object columns —
        # their per-value text is not a plain entry lookup.
        if self._as_int:
            return self._int_column(indices)
        if not self._unique_suffix:
            return columnar.DictColumn(np.asarray(indices, dtype=np.int64), values)
        # Second draw per row, continuing each cell's stream exactly as
        # ``generate``'s next_long(domain) does.
        domain = self._domain or max(len(self._dictionary) * 10, 1000)
        _, outs = blocks.xorshift_step(states)
        suffixes = blocks.bounded(outs, domain)
        return columnar.ObjectColumn([
            f"{values[index]}#{suffix}"
            for index, suffix in zip(indices, suffixes)
        ])

    def _int_column(self, indices: list[int]) -> columnar.ObjectColumn:
        ints = self._int_values
        if ints is None:
            ints = self._int_values = [int(value) for value in self._values]
        return columnar.ObjectColumn([ints[index] for index in indices])

    @property
    def dictionary(self) -> WeightedDictionary:
        dictionary = getattr(self, "_dictionary", None)
        if dictionary is None:
            raise GenerationError("DictListGenerator used before bind()")
        return dictionary
