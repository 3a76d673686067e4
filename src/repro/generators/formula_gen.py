"""Formula generator: arithmetic over sibling fields.

Computes a value from other fields of the *same row* — e.g. TPC-H's
``l_extendedprice = l_quantity * p_retailprice``-style dependencies.
Sibling values are recomputed through the engine callback (the
computational dependency resolution the paper contrasts with re-reading
generated data).
"""

from __future__ import annotations

import re
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

FIELD_REF_RE = re.compile(r"\[([A-Za-z_][A-Za-z0-9_]*)\]")


@register("FormulaGenerator")
class FormulaGenerator(Generator):
    """Evaluates ``formula`` with ``[field]`` references to sibling columns.

    Example: ``formula="[l_quantity] * 1000 * (1 - [l_discount])"``.
    ``places`` optionally rounds the result; ``as_int`` truncates it.
    """

    def bind(self, ctx: BindContext) -> None:
        raw = self.spec.params.get("formula")
        if not raw:
            raise ModelError("FormulaGenerator requires a formula parameter")
        self._fields = list(dict.fromkeys(FIELD_REF_RE.findall(str(raw))))
        for name in self._fields:
            ctx.table.field_by_name(name)  # raises ModelError if missing
        # Rewrite [field] references into ${field} property references so
        # the shared formula evaluator can be reused.
        self._expression = FIELD_REF_RE.sub(r"${\1}", str(raw))
        self._compiled = _formula.compile_formula(self._expression)
        places = self.spec.params.get("places")
        self._places = int(places) if places is not None else None
        self._as_int = as_bool(self.spec.params.get("as_int"))

    def generate(self, ctx: GenerationContext) -> object:
        env: dict[str, float] = {}
        for name in self._fields:
            value = ctx.sibling(name)
            try:
                env[name] = float(value)  # type: ignore[arg-type]
            except (TypeError, ValueError):
                raise ModelError(
                    f"FormulaGenerator: sibling {name!r} is not numeric ({value!r})"
                ) from None
        result = self._compiled(env)
        if self._as_int:
            return int(result)
        if self._places is not None:
            return round(result, self._places)
        return result

    def generate_block(self, ctx: GenerationContext, rows: np.ndarray) -> columnar.Column:
        """The formula evaluated once over the sibling columns.

        Exact or fall back: anything that keeps the array result from
        being provably what ``generate`` returns per row — a sibling that
        is not a completed, NULL-free int/float column of this block, a
        formula :meth:`CompiledFormula.evaluate_arrays` declines, a
        result ``int()`` cannot truncate into int64 — takes the per-row
        loop, which also raises the canonical error at the failing row.
        """
        column = self._formula_column(ctx)
        return super().generate_block(ctx, rows) if column is None else column

    def _formula_column(self, ctx: GenerationContext) -> columnar.Column | None:
        columns, indices = ctx.batch_columns, ctx.field_indices
        if columns is None or indices is None:
            return None
        import numpy as np

        from repro import columnar

        env = {}
        for name in self._fields:
            index = indices.get(name)
            if index is None or index >= len(columns):
                return None  # a later field: recomputed per row
            sibling = columns[index]
            if sibling.nulls is not None or sibling.kind not in ("int", "float"):
                return None
            # float(value), elementwise
            env[name] = sibling.data.astype(np.float64, copy=False)
        values = self._compiled.evaluate_arrays(env)
        if values is None or values.dtype != np.float64:
            return None
        if self._as_int:
            return columnar.int_column_from_floats(values)
        if self._places is not None:
            values = columnar.round_places(values, self._places)
        return columnar.FloatColumn(values)
