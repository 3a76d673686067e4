"""String generators: random characters and pattern-based strings.

The random string generator is DBSynth's last-resort fallback (paper §3:
"In case nothing is found a random string is generated"). The pattern
generator covers formatted identifiers like phone numbers
(``##-###-###-####``) and product codes.
"""

from __future__ import annotations

import string

from repro import columnar
from repro.exceptions import ModelError
from repro.generators.base import BindContext, GenerationContext, Generator
from repro.generators.registry import register
from repro.prng import blocks

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

    def generate_block(
        self, ctx: GenerationContext, start: int, count: int
    ) -> columnar.StrColumn:
        states = blocks.column_states(ctx.seed_block)
        if self._max > self._min:
            states, outs = blocks.xorshift_step(states)
            minimum = self._min
            lengths = [
                minimum + offset
                for offset in blocks.bounded(outs, self._max - self._min + 1)
            ]
            max_len = max(lengths)
        else:
            lengths = None
            max_len = self._min
        alphabet = self._alphabet
        alpha_len = self._alpha_len
        # One vectorized step per character position; each row reads its
        # first ``length`` draws — exactly the draws ``generate`` makes,
        # rows with shorter strings simply leave the rest unused.
        char_columns: list[list[str]] = []
        for _ in range(max_len):
            states, outs = blocks.xorshift_step(states)
            char_columns.append(
                [alphabet[value] for value in blocks.bounded(outs, alpha_len)]
            )
        if lengths is None:
            strings = [
                "".join(column[offset] for column in char_columns)
                for offset in range(count)
            ]
        else:
            strings = [
                "".join(char_columns[pos][offset] for pos in range(length))
                for offset, length in enumerate(lengths)
            ]
        # The alphabet is the whole emittable charset — tagging it lets
        # the CSV formatter skip quote scanning for the entire column.
        return columnar.StrColumn(strings, self._charset)


@register("PatternStringGenerator")
class PatternStringGenerator(Generator):
    """Strings from a template: ``#`` → digit, ``@`` → lowercase letter,
    ``^`` → uppercase letter, anything else literal.

    Example: ``pattern="##-###-###-####"`` generates phone numbers in the
    TPC-H phone format.
    """

    def bind(self, ctx: BindContext) -> None:
        pattern = self.spec.params.get("pattern")
        if not pattern:
            raise ModelError("PatternStringGenerator requires a pattern parameter")
        self._pattern = str(pattern)
        charset: set[str] = set()
        for ch in self._pattern:
            if ch == "#":
                charset.update(string.digits)
            elif ch == "@":
                charset.update(string.ascii_lowercase)
            elif ch == "^":
                charset.update(string.ascii_uppercase)
            else:
                charset.add(ch)
        self._charset = frozenset(charset)

    def generate(self, ctx: GenerationContext) -> str:
        rng = ctx.rng
        out: list[str] = []
        for ch in self._pattern:
            if ch == "#":
                out.append(string.digits[rng.next_long(10)])
            elif ch == "@":
                out.append(string.ascii_lowercase[rng.next_long(26)])
            elif ch == "^":
                out.append(string.ascii_uppercase[rng.next_long(26)])
            else:
                out.append(ch)
        return "".join(out)

    def generate_block(
        self, ctx: GenerationContext, start: int, count: int
    ) -> columnar.StrColumn:
        states = blocks.column_states(ctx.seed_block)
        # One vectorized step per wildcard position, in pattern order —
        # the same draw sequence ``generate`` makes for every row.
        pieces: list[object] = []
        for ch in self._pattern:
            if ch == "#":
                alphabet, bound = string.digits, 10
            elif ch == "@":
                alphabet, bound = string.ascii_lowercase, 26
            elif ch == "^":
                alphabet, bound = string.ascii_uppercase, 26
            else:
                pieces.append(ch)
                continue
            states, outs = blocks.xorshift_step(states)
            pieces.append(
                [alphabet[value] for value in blocks.bounded(outs, bound)]
            )
        return columnar.StrColumn(
            [
                "".join(
                    piece if isinstance(piece, str) else piece[offset]
                    for piece in pieces
                )
                for offset in range(count)
            ],
            self._charset,
        )
