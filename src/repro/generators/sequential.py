"""Sequential (concatenation) meta generator.

PDGF's meta generators let complex values be defined functionally from
simple building blocks (paper §2). The sequential generator runs its
children in order and concatenates their formatted results — the paper's
Figure 9 benchmarks exactly this shape ("Sequential (2 double + long)").
"""

from __future__ import annotations

import re
import string
from typing import TYPE_CHECKING

from repro.generators.base import BindContext, GenerationContext, Generator
from repro.generators.registry import build_children, register

if TYPE_CHECKING:
    from repro import columnar


#: the characters ``str`` prints for an int
_INT_CHARS = frozenset("0123456789-")
#: the characters ``str`` prints for a value of each typed column kind:
#: ``repr``'s alphabet for a float (``1e-05``, ``inf``, ``nan``), an ISO
#: date, ``True`` / ``False``
_KIND_CHARS = {
    "int": _INT_CHARS,
    "float": _INT_CHARS | frozenset("+.einfa"),
    "date": _INT_CHARS,
    "bool": frozenset("TrueFals"),
}
#: a template field spec whose text is the value's digits, zero-padded
_DIGIT_SPEC = re.compile(r"(0\d*)?d?")


def _value_chars(column, template: bool) -> frozenset | None:
    """The characters ``str`` of *column*'s values can hold (``None``:
    unknown); in a template a NULL prints as ``None``."""
    if column.kind == "str":
        chars = column.charset
    elif column.kind == "dict":
        chars = frozenset("".join(map(str, column.entries)))
    else:
        chars = _KIND_CHARS.get(column.kind)
    if chars is not None and template and column.nulls is not None:
        chars |= frozenset("None")
    return chars


def _template_chars(template: str) -> frozenset | None:
    """The characters a template prints besides its fields' values: its
    literal text, and the digits and sign of a ``{0:09d}``-style field;
    ``None`` when a field's spec or conversion could print others."""
    chars = set()
    for literal, field, spec, conversion in string.Formatter().parse(template):
        chars.update(literal)
        if field is None:
            continue
        if conversion is not None or not field.isdigit() and field != "":
            return None
        if spec:
            if not _DIGIT_SPEC.fullmatch(spec):
                return None
            chars.update(_INT_CHARS)
    return frozenset(chars)


@register("SequentialGenerator")
class SequentialGenerator(Generator):
    """Concatenates child values with ``separator`` (default ``""``).

    ``template`` may alternatively hold ``{0}``-style placeholders that
    the child values are substituted into.
    """

    def __init__(self, spec) -> None:
        super().__init__(spec)
        self._children = build_children(spec)

    def bind(self, ctx: BindContext) -> None:
        self._separator = str(self.spec.params.get("separator", ""))
        template = self.spec.params.get("template")
        self._template = str(template) if template is not None else None
        #: what the separator or template itself prints
        self._literal_chars = (
            frozenset(self._separator) if self._template is None
            else _template_chars(self._template)
        )
        for child in self._children:
            child.bind(ctx)

    def generate(self, ctx: GenerationContext) -> str:
        values = [child.generate(ctx) for child in self._children]
        if self._template is not None:
            return self._template.format(*values)
        return self._separator.join("" if v is None else str(v) for v in values)

    def generate_block(self, ctx: GenerationContext, rows) -> columnar.Column:
        """The children's kernels in order on the advancing seed block —
        each starts where the one before left every row's stream, as in
        ``generate`` — then one join per row. The column's charset is the
        union of the children's and the separator's or template's, or
        unknown when one of them is."""
        from repro import columnar

        if ctx.seed_block is None:
            return columnar.StrColumn(super().generate_block(ctx, rows).data)
        columns = [child.generate_block(ctx, rows) for child in self._children]
        template = self._template is not None
        charset = self._literal_chars
        for column in columns:
            chars = None if charset is None else _value_chars(column, template)
            charset = None if chars is None else charset | chars
        values = [column.to_pylist() for column in columns]
        if template:
            return columnar.StrColumn(list(map(self._template.format, *values)), charset)
        texts = [["" if v is None else str(v) for v in column] for column in values]
        return columnar.StrColumn(list(map(self._separator.join, zip(*texts))), charset)
