"""Date and timestamp generators.

Dates are generated as ordinal days (timestamps as second offsets from
the lower bound) and only converted to :class:`datetime.date` objects at
the boundary; string formatting is the output system's job (lazy
formatting — paper Figure 9 shows formatting dominates generation cost,
so PDGF defers and caches it).
"""

from __future__ import annotations

import datetime

from repro import columnar
from repro.exceptions import ModelError
from repro.generators.base import BindContext, GenerationContext, Generator
from repro.generators.registry import register
from repro.prng import blocks

_EPOCH = datetime.date(1970, 1, 1)


def _parse_date(value: object, default: datetime.date) -> datetime.date:
    if value is None:
        return default
    if isinstance(value, datetime.date):
        return value
    try:
        return datetime.date.fromisoformat(str(value))
    except ValueError as exc:
        raise ModelError(f"bad date literal {value!r}: {exc}") from exc


@register("DateGenerator")
class DateGenerator(Generator):
    """Uniform dates in ``[min, max]`` (ISO strings in the model).

    Defaults to the TPC-H population window 1992-01-01 .. 1998-12-31.
    """

    def bind(self, ctx: BindContext) -> None:
        self._min = _parse_date(self.spec.params.get("min"), datetime.date(1992, 1, 1))
        self._max = _parse_date(self.spec.params.get("max"), datetime.date(1998, 12, 31))
        if self._max < self._min:
            raise ModelError(f"DateGenerator: empty range [{self._min}, {self._max}]")
        self._min_ordinal = self._min.toordinal()
        self._span = self._max.toordinal() - self._min_ordinal + 1
        # date objects are immutable, and the population window holds few
        # distinct days relative to rows generated — memoize conversions.
        self._ordinal_cache: dict[int, datetime.date] = {}

    def generate(self, ctx: GenerationContext) -> datetime.date:
        return datetime.date.fromordinal(self._min_ordinal + ctx.rng.next_long(self._span))

    def generate_block(
        self, ctx: GenerationContext, start: int, count: int
    ) -> columnar.DateColumn:
        _, outs = blocks.xorshift_step(blocks.column_states(ctx.seed_block))
        # Absolute ordinals (always inside int64); the generator-lifetime
        # memo makes repeated days convert once per distinct day, not
        # once per row.
        drawn = columnar.int_column_from_u64(outs, self._span, self._min_ordinal)
        return columnar.DateColumn(drawn.data, self._ordinal_cache)


@register("TimestampGenerator")
class TimestampGenerator(Generator):
    """Uniform timestamps (second resolution) in ``[min, max]``.

    Values are ``min`` plus a drawn number of seconds in plain datetime
    arithmetic — never via the host's local time zone, which would make
    the bytes depend on ``TZ``.
    """

    def bind(self, ctx: BindContext) -> None:
        min_raw = self.spec.params.get("min")
        max_raw = self.spec.params.get("max")
        self._min = self._parse(min_raw, datetime.datetime(1992, 1, 1))
        self._max = self._parse(max_raw, datetime.datetime(1998, 12, 31, 23, 59, 59))
        if self._max < self._min:
            raise ModelError(
                f"TimestampGenerator: empty range [{self._min}, {self._max}]"
            )
        self._span = int((self._max - self._min).total_seconds()) + 1

    @staticmethod
    def _parse(value: object, default: datetime.datetime) -> datetime.datetime:
        if value is None:
            return default
        if isinstance(value, datetime.datetime):
            parsed = value
        else:
            try:
                parsed = datetime.datetime.fromisoformat(str(value))
            except ValueError as exc:
                raise ModelError(f"bad timestamp literal {value!r}: {exc}") from exc
        # second resolution: the window's bounds are whole seconds
        return parsed.replace(microsecond=0)

    def generate(self, ctx: GenerationContext) -> datetime.datetime:
        return self._min + datetime.timedelta(seconds=ctx.rng.next_long(self._span))

    def generate_block(
        self, ctx: GenerationContext, start: int, count: int
    ) -> columnar.ObjectColumn:
        # Offsets rarely repeat (second resolution), so no memo — the
        # win is the vectorized draw plus skipped per-row reseeds.
        _, outs = blocks.xorshift_step(blocks.column_states(ctx.seed_block))
        minimum = self._min
        second = datetime.timedelta(seconds=1)
        return columnar.ObjectColumn([
            minimum + offset * second
            for offset in blocks.bounded(outs, self._span)
        ])
