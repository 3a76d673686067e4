"""Conditional meta generators: probability switch and value switch.

Meta generators "execute different generators based on certain
conditions" (paper §2). Two conditions are supported: a probability
split over children, and a switch on a sibling field's value (which is
recomputed, never read back). Both — and the NULL wrapper of
:mod:`repro.generators.null_gen` — are one program,
:class:`ChoiceGenerator`: choose a child per row, or NULL, then run it.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

from repro.exceptions import ModelError
from repro.generators.base import BindContext, GenerationContext, Generator
from repro.generators.registry import build_children, register
from repro.prng.distributions import Categorical

if TYPE_CHECKING:
    import numpy as np

    from repro import columnar


class ChoiceGenerator(Generator):
    """Runs one child per row, chosen by :meth:`choose`, or yields NULL.

    A subclass only declares :meth:`choose` and :meth:`choose_block`;
    this class holds the one scalar oracle and the one block kernel for
    all of them. The kernel draws the block's choices, then runs each
    chosen child's kernel once over the whole block from the post-choice
    states, and takes every row's value and end state from the child it
    chose. The column kind does not depend on the block: with one child
    it is that child's column (NULLs added), with several an
    ``ObjectColumn``; an all-NULL block is an ``ObjectColumn`` of None.
    A template with a child that has no kernel of its own is the per-row
    loop at every block size.
    """

    def __init__(self, spec) -> None:
        super().__init__(spec)
        self._children = build_children(spec)

    def bind(self, ctx: BindContext) -> None:
        for child in self._children:
            child.bind(ctx)
        # a child with no kernel would run its per-row loop over every row
        # of the block, chosen or not: the per-row loop is cheaper
        self._loop = any(type(c).generate_block is Generator.generate_block for c in self._children)

    @abc.abstractmethod
    def choose(self, ctx: GenerationContext) -> int:
        """The current row's child index (−1 for NULL), drawing what the
        choice needs from ``ctx.rng``."""

    @abc.abstractmethod
    def choose_block(self, ctx: GenerationContext, rows: np.ndarray):
        """:meth:`choose` for every cell of the block of *rows*, as an
        integer array, drawing through ``ctx.seed_block``."""

    def generate(self, ctx: GenerationContext) -> object:
        index = self.choose(ctx)
        return None if index < 0 else self._children[index].generate(ctx)

    def generate_block(self, ctx: GenerationContext, rows: np.ndarray) -> columnar.Column:
        seeds = ctx.seed_block
        if seeds is None or self._loop:
            return super().generate_block(ctx, rows)  # raises without seeds
        import numpy as np

        from repro import columnar

        origin = seeds.array
        choice = self.choose_block(ctx, rows)
        post = seeds.array
        chosen = np.bincount(choice + 1, minlength=len(self._children) + 1)  # NULL, child 0, ...
        columns, ends = {}, {}
        try:
            for index in np.flatnonzero(chosen[1:]).tolist():
                seeds.array = post
                columns[index] = self._children[index].generate_block(ctx, rows)
                ends[index] = seeds.array
        except Exception:
            # Exact or fall back: a child may fail on rows the scalar path
            # never gives it; the per-row loop runs each row's own child.
            seeds.array = origin
            return super().generate_block(ctx, rows)
        if not columns:
            return columnar.ObjectColumn([None] * len(rows))  # every row NULL
        if chosen[0] or len(columns) > 1:  # else the one child left them as they are
            seeds.array = post.copy()  # a NULL row's stream stops after the choice
            for index, end in ends.items():
                np.copyto(seeds.array, end, where=choice == index)
        if len(self._children) == 1:  # the child's column kind at every block
            column = columns[0]
            if chosen[0]:
                column.add_nulls(choice < 0)
            return column
        values = {index: column.to_pylist() for index, column in columns.items()}
        values[-1] = [None] * len(rows)
        return columnar.ObjectColumn([values[i][offset] for offset, i in enumerate(choice.tolist())])


@register("ProbabilityGenerator")
class ProbabilityGenerator(ChoiceGenerator):
    """Chooses one child per row according to ``weights``.

    With ``n`` children and no weights, children are equally likely.
    Exactly one random draw is consumed for the choice.
    """

    def bind(self, ctx: BindContext) -> None:
        weights = self.spec.params.get("weights")
        if weights is not None and len(weights) != len(self._children):  # type: ignore[arg-type]
            raise ModelError(
                f"{len(self._children)} children but {len(weights)} weights"  # type: ignore[arg-type]
            )
        self._chooser = Categorical(range(len(self._children)), weights)  # type: ignore[arg-type]
        super().bind(ctx)

    def choose(self, ctx: GenerationContext) -> int:
        return self._chooser.sample_index(ctx.rng)

    def choose_block(self, ctx: GenerationContext, rows: np.ndarray):
        return self._chooser.index_block(ctx.seed_block)


@register("SwitchGenerator")
class SwitchGenerator(ChoiceGenerator):
    """Chooses a child based on a sibling field's (recomputed) value.

    Parameters: ``field`` (the sibling to inspect) and ``cases`` (a list
    of values, one per child; the last child is the default when no case
    matches and there is one more child than cases). No draw is made.
    """

    def bind(self, ctx: BindContext) -> None:
        field = self.spec.params.get("field")
        if not field:
            raise ModelError("SwitchGenerator requires a field parameter")
        self._field = str(field)
        cases = self.spec.params.get("cases")
        if not isinstance(cases, (list, tuple)):
            raise ModelError("SwitchGenerator requires a cases list")
        if len(cases) not in (len(self._children), len(self._children) - 1):
            raise ModelError(
                f"{len(self._children)} children need {len(self._children)} or "
                f"{len(self._children) - 1} cases, got {len(cases)}"
            )
        # the first case that matches wins; no match is the default child,
        # or NULL without one
        self._cases: dict[str, int] = {}
        for index, case in enumerate(cases):
            self._cases.setdefault(str(case), index)
        self._default = len(cases) if len(cases) < len(self._children) else -1
        super().bind(ctx)

    def choose(self, ctx: GenerationContext) -> int:
        return self._cases.get(str(ctx.sibling(self._field)), self._default)

    def choose_block(self, ctx: GenerationContext, rows: np.ndarray):
        import numpy as np

        choices = []
        for position, row in enumerate(rows.tolist()):
            ctx.row, ctx.position = row, position
            choices.append(self.choose(ctx))
        return np.array(choices)
