"""ID generator: dense surrogate keys.

DBSynth assigns this generator to columns whose names look like keys
(paper §3: "numeric columns with name key or id will be generated with
an ID generator"). IDs are a pure function of the row number, so a
reference generator can recompute any key without coordination.
"""

from __future__ import annotations

import numpy as np

from repro import columnar
from repro.exceptions import ModelError
from repro.generators.base import (
    BindContext,
    GenerationContext,
    Generator,
    _KERNEL_MIN_ROWS,
    as_bool,
)
from repro.generators.registry import register
from repro.model import formula as _formula


@register("IdGenerator")
class IdGenerator(Generator):
    """Emits ``base + row * step`` (defaults: 1-based dense sequence).

    Parameters: ``base`` (first id, default 1) and ``step`` (default 1).
    """

    def bind(self, ctx: BindContext) -> None:
        self._base = int(ctx.resolve_numeric(self.spec.params.get("base"), 1))
        self._step = int(ctx.resolve_numeric(self.spec.params.get("step"), 1))

    def generate(self, ctx: GenerationContext) -> int:
        return self._base + ctx.row * self._step

    def generate_block(
        self, ctx: GenerationContext, start: int, count: int
    ) -> columnar.Column:
        # Pure arithmetic progression — no PRNG.
        step = self._step
        first = self._base + start * step
        last = first + (count - 1) * step
        if (columnar.INT64_MIN <= min(first, last)
                and max(first, last) <= columnar.INT64_MAX):
            return columnar.IntColumn(
                first + step * np.arange(count, dtype=np.int64)
            )
        # beyond int64: keep arbitrary-precision ints
        return columnar.ObjectColumn(
            [first + step * offset for offset in range(count)]
        )


@register("RowFormulaGenerator")
class RowFormulaGenerator(Generator):
    """A deterministic function of the row number.

    ``formula`` is an arithmetic expression over the variable ``row``
    (and model properties), e.g. ``row // 4 + 1`` for a key repeated four
    times or ``row % 7 + 1`` for a line number. Structured surrogate
    keys like TPC-H's partsupp/lineitem layout are built from this.
    ``as_int`` (default true) truncates the result.
    """

    def bind(self, ctx: BindContext) -> None:
        raw = self.spec.params.get("formula")
        if not raw:
            raise ModelError("RowFormulaGenerator requires a formula parameter")
        self._expression = str(raw)
        self._as_int = as_bool(self.spec.params.get("as_int"), default=True)
        self._compiled = _formula.compile_formula(self._expression)
        refs = _formula.find_references(self._expression)
        # Property values are frozen at bind time; the per-call env is a
        # fresh dict because generators are shared across worker threads.
        self._base_env = {ref: ctx.properties.get_float(ref) for ref in refs}
        # Fail fast on evaluation errors with a representative row.
        self._compiled({**self._base_env, "row": 0})

    def generate(self, ctx: GenerationContext) -> object:
        value = self._compiled({**self._base_env, "row": ctx.row})
        return int(value) if self._as_int else value

    def generate_block(
        self, ctx: GenerationContext, start: int, count: int
    ) -> columnar.Column:
        """The formula evaluated once over ``row`` as an int64 range; the
        per-row loop wherever that is not provably the same values (see
        :meth:`CompiledFormula.evaluate_arrays`)."""
        if _KERNEL_MIN_ROWS <= count and start + count <= columnar.INT64_MAX:
            rows = np.arange(start, start + count, dtype=np.int64)
            values = self._compiled.evaluate_arrays({**self._base_env, "row": rows})
            if values is not None:
                if values.dtype == np.int64:
                    return columnar.IntColumn(values)
                if not self._as_int:
                    return columnar.FloatColumn(values)
                column = columnar.int_column_from_floats(values)
                if column is not None:
                    return column
        return super().generate_block(ctx, start, count)
