"""ID generator: dense surrogate keys.

DBSynth assigns this generator to columns whose names look like keys
(paper §3: "numeric columns with name key or id will be generated with
an ID generator"). IDs are a pure function of the row number, so a
reference generator can recompute any key without coordination.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.exceptions import ModelError
from repro.generators.base import (
    BindContext,
    GenerationContext,
    Generator,
    as_bool,
)
from repro.generators.registry import register
from repro.model import formula as _formula

if TYPE_CHECKING:
    import numpy as np

    from repro import columnar


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

    def generate_block(self, ctx: GenerationContext, rows: np.ndarray) -> columnar.Column:
        # Pure arithmetic over the row numbers — no PRNG.
        return affine_column(self._base, self._step, rows)


def affine_column(base: int, step: int, rows: np.ndarray) -> columnar.Column:
    """``base + row * step`` for every row of *rows* (int64): int64
    arithmetic when base, step and every value fit — the wrap is then
    exact, as in ``columnar.int_column_from_u64`` — else Python ints."""
    from repro import columnar

    extremes = (base, step, base + int(rows.min(initial=0)) * step,
                base + int(rows.max(initial=0)) * step)
    if columnar.INT64_MIN <= min(extremes) and max(extremes) <= columnar.INT64_MAX:
        return columnar.IntColumn(base + rows * step)
    return columnar.ObjectColumn([base + row * step for row in rows.tolist()])


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

    def generate_block(self, ctx: GenerationContext, rows: np.ndarray) -> columnar.Column:
        """The formula evaluated once over ``row`` as the int64 array
        *rows*; the per-row loop wherever that is not provably the same
        values (see :meth:`CompiledFormula.evaluate_arrays`)."""
        import numpy as np

        from repro import columnar

        values = self._compiled.evaluate_arrays({**self._base_env, "row": rows})
        if values is not None:
            if values.dtype == np.int64:
                return columnar.IntColumn(values)
            if not self._as_int:
                return columnar.FloatColumn(values)
            column = columnar.int_column_from_floats(values)
            if column is not None:
                return column
        return super().generate_block(ctx, rows)
