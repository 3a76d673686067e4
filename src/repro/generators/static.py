"""Static value generator.

A column holding a single constant value. It is also the baseline of the
paper's latency breakdown (Figure 7): generating a static value measures
the pure per-value system overhead of the generation pipeline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.generators.base import BindContext, GenerationContext, Generator
from repro.generators.registry import register

if TYPE_CHECKING:
    import numpy as np

    from repro import columnar


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

    def generate_block(self, ctx: GenerationContext, rows: np.ndarray) -> columnar.Column:
        import numpy as np

        from repro import columnar

        value = self._value
        if type(value) is str:
            return columnar.DictColumn(np.zeros(len(rows), dtype=np.int64), [value])
        # the typed column of a constant of exactly this type (an ``int``
        # only inside int64); a ``str`` is the one-entry dictionary above
        typed = {bool: (columnar.BoolColumn, np.bool_), int: (columnar.IntColumn, np.int64),
                 float: (columnar.FloatColumn, np.float64)}
        column, dtype = typed.get(type(value), (None, None))
        if column is None or (dtype is np.int64 and not columnar.INT64_MIN <= value <= columnar.INT64_MAX):
            return columnar.ObjectColumn([value] * len(rows))
        return column(np.full(len(rows), value, dtype=dtype))
