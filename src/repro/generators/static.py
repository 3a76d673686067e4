"""Static value generator.

A column holding a single constant value. It is also the baseline of the
paper's latency breakdown (Figure 7): generating a static value measures
the pure per-value system overhead of the generation pipeline.
"""

from __future__ import annotations

from repro import columnar
from repro.generators.base import BindContext, GenerationContext, Generator
from repro.generators.registry import register


@register("StaticValueGenerator")
class StaticValueGenerator(Generator):
    """Always returns ``constant`` (default ``None``, i.e. a static NULL).

    The parameter is named ``constant`` rather than ``value`` because the
    schema XML reserves ``<value>`` elements for dictionary value lists;
    ``value`` is still accepted for hand-written specs.
    """

    def bind(self, ctx: BindContext) -> None:
        self._value = self.spec.params.get("constant")
        if self._value is None:
            self._value = self.spec.params.get("value")

    def generate(self, ctx: GenerationContext) -> object:
        return self._value

    def generate_block(
        self, ctx: GenerationContext, start: int, count: int
    ) -> columnar.ObjectColumn:
        return columnar.ObjectColumn([self._value] * count)
