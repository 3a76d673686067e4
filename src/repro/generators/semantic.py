"""High-level semantic generators: names, addresses, emails, phones, URLs.

These are PDGF's "predefined generators for URLs, addresses, etc."
(paper §3) that DBSynth's rule engine assigns when a column name matches
a known semantic domain and the database cannot be sampled. All but
``TextGenerator`` are drawn templates: they declare their literals and
tables, and :class:`~repro.generators.strings.DrawTemplateGenerator`
generates them.
"""

from __future__ import annotations

from repro.exceptions import ModelError
from repro.generators.base import BindContext, GenerationContext, Generator, clip_words, max_chars
from repro.generators.registry import register
from repro.generators.strings import DrawTemplateGenerator, pattern_parts
from repro.text import corpus


def _pick(rng, values: list[str]) -> str:
    return values[rng.next_long(len(values))]


_NAME_STYLES = {"full": [corpus.FIRST_NAMES, " ", corpus.LAST_NAMES],
                "first": [corpus.FIRST_NAMES], "last": [corpus.LAST_NAMES]}


@register("PersonNameGenerator")
class PersonNameGenerator(DrawTemplateGenerator):
    """``First Last`` names from the built-in name dictionaries.

    ``style`` may be ``full`` (default), ``first``, or ``last``.
    """

    def parts(self) -> list:
        style = str(self.spec.params.get("style", "full"))
        if style not in _NAME_STYLES:
            raise ModelError(f"PersonNameGenerator: style {style!r} is not full, first or last")
        return _NAME_STYLES[style]


@register("CompanyNameGenerator")
class CompanyNameGenerator(DrawTemplateGenerator):
    """Two-word company names with a legal-form suffix."""

    def parts(self) -> list:
        return [corpus.COMPANY_WORDS, " ", corpus.LAST_NAMES, " ", corpus.COMPANY_SUFFIXES]


@register("AddressGenerator")
class AddressGenerator(DrawTemplateGenerator):
    """``<number> <street> <suffix>, <city>`` street addresses."""

    def parts(self) -> list:
        streets, suffixes = corpus.STREET_NAMES, corpus.STREET_SUFFIXES
        return [range(1, 10000), " ", streets, " ", suffixes, ", ", corpus.CITIES]


@register("CityGenerator")
class CityGenerator(DrawTemplateGenerator):
    def parts(self) -> list:
        return [corpus.CITIES]


@register("CountryGenerator")
class CountryGenerator(DrawTemplateGenerator):
    def parts(self) -> list:
        return [corpus.COUNTRIES]


@register("EmailGenerator")
class EmailGenerator(DrawTemplateGenerator):
    """``first.last<n>@domain`` addresses over the built-in domains."""

    #: the lowered name lists, built once so their characters are too
    _NAMES = ([name.lower() for name in corpus.FIRST_NAMES],
              [name.lower() for name in corpus.LAST_NAMES])

    def parts(self) -> list:
        first, last = self._NAMES
        return [first, ".", last, range(1000), "@", corpus.EMAIL_DOMAINS]


@register("PhoneGenerator")
class PhoneGenerator(DrawTemplateGenerator):
    """TPC-H style phone numbers: ``CC-AAA-LLL-NNNN``."""

    def parts(self) -> list:
        return [range(10, 35), *pattern_parts("-###-###-####")]


@register("UrlGenerator")
class UrlGenerator(DrawTemplateGenerator):
    """``scheme://word-word.tld/word`` URLs from built-in word lists."""

    def parts(self) -> list:
        words, tlds = corpus.URL_HOST_WORDS, corpus.TOP_LEVEL_DOMAINS
        return [corpus.URL_SCHEMES, "://", words, "-", words, ".", tlds, "/", words]


@register("TextGenerator")
class TextGenerator(Generator):
    """Fallback prose generator over the built-in comment grammar.

    Used when a text column should look like free text but no sample was
    available to train a Markov chain. ``min``/``max`` bound the word
    count.
    """

    def bind(self, ctx: BindContext) -> None:
        self._min = int(ctx.resolve_numeric(self.spec.params.get("min"), 3))
        self._max = int(ctx.resolve_numeric(self.spec.params.get("max"), 12))
        if self._min < 0 or self._max < self._min:
            raise ModelError(f"TextGenerator: bad word range [{self._min}, {self._max}]")
        self._max_chars = max_chars(ctx, self.spec.params.get("max_chars"))

    def generate(self, ctx: GenerationContext) -> str:
        rng = ctx.rng
        count = self._min + rng.next_long(self._max - self._min + 1)
        words: list[str] = []
        while len(words) < count:
            # Some corpus entries are multi-token ("pinto beans"); split so
            # the word-count bound refers to actual tokens.
            words.extend(_pick(rng, corpus.ADVERBS).split())
            words.extend(_pick(rng, corpus.ADJECTIVES).split())
            words.extend(_pick(rng, corpus.NOUNS).split())
            words.extend(_pick(rng, corpus.VERBS).split())
        return clip_words(" ".join(words[:count]), self._max_chars)
