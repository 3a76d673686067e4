"""Numeric value generators: Long, Integer, Double, Decimal.

Bounds come from the model (DBSynth stores extracted min/max constraints
as properties, paper §3), optionally with a distribution other than
uniform when the source histogram was skewed.
"""

from __future__ import annotations

from repro import columnar
from repro.exceptions import ModelError
from repro.generators.base import BindContext, GenerationContext, Generator
from repro.generators.registry import register
from repro.prng import blocks
from repro.prng.distributions import Zipf, normal


class _BoundedNumberGenerator(Generator):
    """Shared bound handling for the integer generators."""

    default_min = 0
    default_max = 2**31 - 1

    def bind(self, ctx: BindContext) -> None:
        self._min = int(ctx.resolve_numeric(self.spec.params.get("min"), self.default_min))
        self._max = int(ctx.resolve_numeric(self.spec.params.get("max"), self.default_max))
        if self._max < self._min:
            raise ModelError(
                f"{self.spec.name}: empty range [{self._min}, {self._max}]"
            )
        self._span = self._max - self._min + 1
        distribution = str(self.spec.params.get("distribution", "uniform"))
        self._zipf: Zipf | None = None
        if distribution == "zipf":
            exponent = ctx.resolve_numeric(self.spec.params.get("exponent"), 1.0)
            # Cap the CDF size; ranks map onto the range by modulo.
            self._zipf = Zipf(min(self._span, 10_000), exponent)
        elif distribution != "uniform":
            raise ModelError(f"unknown distribution {distribution!r}")

    def _draw(self, ctx: GenerationContext) -> int:
        if self._zipf is not None:
            rank = self._zipf.sample(ctx.rng) - 1
            return self._min + rank % self._span
        return self._min + ctx.rng.next_long(self._span)

    def generate_block(
        self, ctx: GenerationContext, start: int, count: int
    ) -> columnar.Column:
        _, outs = blocks.xorshift_step(blocks.column_states(ctx.seed_block))
        minimum = self._min
        span = self._span
        if self._zipf is not None:
            ranks = self._zipf.sample_block(blocks.to_doubles(outs))
            return columnar.ObjectColumn(
                [minimum + (rank - 1) % span for rank in ranks]
            )
        column = columnar.int_column_from_u64(outs, span, minimum)
        if column is None:
            return columnar.ObjectColumn(
                [minimum + v for v in blocks.bounded(outs, span)]
            )
        return column


@register("LongGenerator")
class LongGenerator(_BoundedNumberGenerator):
    """Uniform (or zipf) 64-bit integers in ``[min, max]``."""

    default_max = 2**63 - 1

    def generate(self, ctx: GenerationContext) -> int:
        return self._draw(ctx)


@register("IntGenerator")
class IntGenerator(_BoundedNumberGenerator):
    """Uniform (or zipf) 32-bit integers in ``[min, max]``."""

    def generate(self, ctx: GenerationContext) -> int:
        return self._draw(ctx)


@register("DoubleGenerator")
class DoubleGenerator(Generator):
    """Floating point values in ``[min, max)``.

    ``places`` rounds to fixed decimals (e.g. money columns extracted as
    DECIMAL(15,2) get ``places=2``); ``distribution`` may be ``uniform``
    or ``normal`` (with ``mean``/``stddev`` from profiling). Only
    ``uniform`` has a block kernel: ``normal`` draws through ``math.log``
    and ``math.cos``, which numpy does not reproduce bit for bit, so it
    stays on the base per-row loop.
    """

    def bind(self, ctx: BindContext) -> None:
        self._min = ctx.resolve_numeric(self.spec.params.get("min"), 0.0)
        self._max = ctx.resolve_numeric(self.spec.params.get("max"), 1.0)
        if self._max < self._min:
            raise ModelError(f"DoubleGenerator: empty range [{self._min}, {self._max}]")
        places = self.spec.params.get("places")
        self._places = int(places) if places is not None else None
        self._distribution = str(self.spec.params.get("distribution", "uniform"))
        if self._distribution not in ("uniform", "normal"):
            raise ModelError(f"unknown distribution {self._distribution!r}")
        self._mean = ctx.resolve_numeric(
            self.spec.params.get("mean"), (self._min + self._max) / 2.0
        )
        self._stddev = ctx.resolve_numeric(
            self.spec.params.get("stddev"), (self._max - self._min) / 6.0 or 1.0
        )

    def generate(self, ctx: GenerationContext) -> float:
        if self._distribution == "normal":
            value = normal(ctx.rng, self._mean, self._stddev)
            value = min(max(value, self._min), self._max)
        else:
            value = self._min + ctx.rng.next_double() * (self._max - self._min)
        if self._places is not None:
            value = round(value, self._places)
        return value

    def generate_block(
        self, ctx: GenerationContext, start: int, count: int
    ) -> columnar.Column:
        if self._distribution != "uniform":
            return super().generate_block(ctx, start, count)
        _, outs = blocks.xorshift_step(blocks.column_states(ctx.seed_block))
        # Same IEEE-754 expression as ``generate`` (min + u * span),
        # evaluated elementwise — bit-identical doubles.
        values = self._min + blocks.to_doubles(outs) * (self._max - self._min)
        if self._places is not None:
            values = columnar.round_places(values, self._places)
        return columnar.FloatColumn(values)


@register("BooleanGenerator")
class BooleanGenerator(Generator):
    """True with probability ``true_probability`` (default 0.5)."""

    def bind(self, ctx: BindContext) -> None:
        self._p_true = ctx.resolve_numeric(
            self.spec.params.get("true_probability"), 0.5
        )
        if not 0.0 <= self._p_true <= 1.0:
            raise ModelError(f"true_probability {self._p_true} outside [0, 1]")

    def generate(self, ctx: GenerationContext) -> bool:
        return ctx.rng.next_double() < self._p_true

    def generate_block(
        self, ctx: GenerationContext, start: int, count: int
    ) -> columnar.BoolColumn:
        _, outs = blocks.xorshift_step(blocks.column_states(ctx.seed_block))
        return columnar.BoolColumn(blocks.to_doubles(outs) < self._p_true)
