"""String generators: random characters and drawn templates.

The random string generator is DBSynth's last-resort fallback (paper §3:
"In case nothing is found a random string is generated").
:class:`DrawTemplateGenerator` is the one body of every string built from
literals and table picks: the pattern generator here (formatted
identifiers like phone numbers, ``##-###-###-####``, and product codes)
and the semantic generators of :mod:`repro.generators.semantic`.
"""

from __future__ import annotations

import abc
import functools
import string
from typing import TYPE_CHECKING

from repro.exceptions import ModelError
from repro.generators.base import BindContext, GenerationContext, Generator
from repro.generators.registry import register

if TYPE_CHECKING:
    import numpy as np

    from repro import columnar

_DEFAULT_ALPHABET = string.ascii_lowercase
_ALPHABETS = {
    "lower": string.ascii_lowercase,
    "upper": string.ascii_uppercase,
    "alpha": string.ascii_letters,
    "alnum": string.ascii_letters + string.digits,
    "digits": string.digits,
    "hex": string.digits + "abcdef",
}


@register("RandomStringGenerator")
class RandomStringGenerator(Generator):
    """Random strings of length in ``[min, max]`` over an alphabet.

    Parameters: ``min``/``max`` length (defaults 1..field size or 20) and
    ``alphabet`` (named class or literal characters).
    """

    def bind(self, ctx: BindContext) -> None:
        field_size = ctx.field.size or (ctx.field.dtype.length or 20)
        self._min = int(ctx.resolve_numeric(self.spec.params.get("min"), 1))
        self._max = int(ctx.resolve_numeric(self.spec.params.get("max"), field_size))
        if self._min < 0 or self._max < self._min:
            raise ModelError(
                f"RandomStringGenerator: bad length range [{self._min}, {self._max}]"
            )
        alphabet = str(self.spec.params.get("alphabet", "lower"))
        self._alphabet = _ALPHABETS.get(alphabet, alphabet) or _DEFAULT_ALPHABET
        self._alpha_len = len(self._alphabet)
        self._charset = frozenset(self._alphabet)

    def generate(self, ctx: GenerationContext) -> str:
        rng = ctx.rng
        length = self._min + rng.next_long(self._max - self._min + 1) if self._max > self._min else self._min
        alphabet = self._alphabet
        alpha_len = self._alpha_len
        return "".join(alphabet[rng.next_long(alpha_len)] for _ in range(length))

    def generate_block(self, ctx: GenerationContext, rows: np.ndarray) -> columnar.StrColumn:
        import numpy as np

        from repro import columnar

        seeds = ctx.seed_block
        lengths = np.full(len(rows), self._min, dtype=np.int64)
        if self._max > self._min:
            lengths += seeds.next_long(self._max - self._min + 1).astype(np.int64)
        # One vectorized step per character position; each row reads its
        # first ``length`` draws — exactly the draws ``generate`` makes —
        # and its stream stops at the last of them.
        ends = seeds.array
        char_columns: list[list[str]] = []
        for position in range(1, int(lengths.max(initial=0)) + 1):
            char_columns.append(list(map(self._alphabet.__getitem__,
                                         seeds.next_long(self._alpha_len).tolist())))
            ends = np.where(lengths == position, seeds.array, ends)
        seeds.array = ends
        cells = zip(*char_columns) if char_columns else [()] * len(rows)
        strings = ["".join(chars[:length]) for chars, length in zip(cells, lengths.tolist())]
        # The alphabet is the whole emittable charset — tagging it lets
        # the CSV formatter skip quote scanning for the entire column.
        return columnar.StrColumn(strings, self._charset)


def _table_chars(table) -> frozenset[str]:
    """Every character a pick from *table* can hold. A ``range`` gives
    a superset — the digits, and ``-`` if an end is below zero — which
    is safe: a charset only proves that no value needs an escape."""
    if isinstance(table, range):
        return frozenset(string.digits + "-" * (min(table.start, table.stop) < 0))
    return _entry_chars(tuple(table))


@functools.lru_cache(maxsize=256)
def _entry_chars(entries: tuple) -> frozenset[str]:
    """The characters of a table's entries, joined once per distinct
    table rather than once per bound field."""
    return frozenset("".join(map(str, entries)))


class DrawTemplateGenerator(Generator):
    """A string of parts drawn in order from the cell's stream: each part
    is a literal ``str`` or a table — a sequence of strings, or a
    ``range`` of numbers — that one ``next_long(len(table))`` draw picks
    from.

    A subclass only declares its :meth:`parts`; this class holds the one
    scalar oracle and the one block kernel for all of them.
    """

    @abc.abstractmethod
    def parts(self) -> list:
        """The literals and tables of every value, in draw order."""

    def bind(self, ctx: BindContext) -> None:
        parts = self.parts()
        self._tables = [part for part in parts if not isinstance(part, str)]
        # One %-format: literals with "%" doubled, "%s" renders each pick.
        self._format = "".join(
            part.replace("%", "%%") if isinstance(part, str) else "%s" for part in parts
        )
        # Every character a value can hold, so CSV can skip quote scanning.
        self._charset = frozenset().union(*(
            part if isinstance(part, str) else _table_chars(part) for part in parts
        ))

    def generate(self, ctx: GenerationContext) -> str:
        next_long = ctx.rng.next_long
        return self._format % tuple(table[next_long(len(table))] for table in self._tables)

    def generate_block(self, ctx: GenerationContext, rows: np.ndarray) -> columnar.StrColumn:
        from repro import columnar

        if ctx.seed_block is None:
            strings = super().generate_block(ctx, rows).data
        else:
            # One vectorized step per table, in part order — the same draw
            # sequence ``generate`` makes for every row.
            next_long = ctx.seed_block.next_long
            picks = [map(table.__getitem__, next_long(len(table)).tolist()) for table in self._tables]
            strings = list(map(self._format.__mod__, zip(*picks) if picks else [()] * len(rows)))
        return columnar.StrColumn(strings, self._charset)


_WILDCARDS = {"#": tuple(string.digits), "@": tuple(string.ascii_lowercase),
              "^": tuple(string.ascii_uppercase)}


def pattern_parts(pattern: str) -> list:
    """A pattern's parts: ``#`` → digit, ``@`` → lowercase letter, ``^`` →
    uppercase letter, anything else literal."""
    return [_WILDCARDS.get(ch, ch) for ch in pattern]


@register("PatternStringGenerator")
class PatternStringGenerator(DrawTemplateGenerator):
    """Strings from a :func:`pattern_parts` template.

    Example: ``pattern="##-###-###-####"`` generates phone numbers in the
    TPC-H phone format.
    """

    def parts(self) -> list:
        pattern = self.spec.params.get("pattern")
        if not pattern:
            raise ModelError("PatternStringGenerator requires a pattern parameter")
        return pattern_parts(str(pattern))
