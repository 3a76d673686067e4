"""Histogram generator: bucket-faithful numeric synthesis.

RSGen (paper §6, [20]) "generates similar data sets by using histograms
of the original data" — but only for numerical data. DBSynth subsumes
that capability: when histogram profiling is enabled, numeric columns
whose distribution deviates from uniform get this generator, which
samples a bucket by observed weight and then draws uniformly within it.
Equi-depth buckets make the generated quantiles track the source's.
"""

from __future__ import annotations

from repro.exceptions import ModelError
from repro.generators.base import BindContext, GenerationContext, Generator, as_bool
from repro.generators.registry import register
from repro.prng.distributions import Categorical


@register("HistogramGenerator")
class HistogramGenerator(Generator):
    """Samples from a bucketed distribution.

    Parameters: ``bounds`` — the ``n+1`` bucket edges (ascending);
    ``weights`` — ``n`` observed bucket frequencies (need not be
    normalized); ``as_int`` — truncate to integers (for integer
    columns). Values land in ``[bounds[i], bounds[i+1])`` of a bucket
    chosen with probability proportional to its weight.
    """

    def bind(self, ctx: BindContext) -> None:
        bounds = self.spec.params.get("bounds")
        weights = self.spec.params.get("weights")
        if not isinstance(bounds, (list, tuple)) or len(bounds) < 2:
            raise ModelError("HistogramGenerator needs >= 2 bucket bounds")
        self._bounds = [float(b) for b in bounds]
        if any(b2 < b1 for b1, b2 in zip(self._bounds, self._bounds[1:])):
            raise ModelError("histogram bounds must be ascending")
        count = len(self._bounds) - 1
        if weights is None:
            weights = [1.0] * count
        if len(weights) != count:  # type: ignore[arg-type]
            raise ModelError(
                f"{count} buckets need {count} weights, got {len(weights)}"  # type: ignore[arg-type]
            )
        self._chooser = Categorical(range(count), weights)  # type: ignore[arg-type]
        self._as_int = as_bool(self.spec.params.get("as_int"))

    def generate(self, ctx: GenerationContext) -> float | int:
        rng = ctx.rng
        bucket = self._chooser.sample_index(rng)
        low = self._bounds[bucket]
        high = self._bounds[bucket + 1]
        value = low + rng.next_double() * (high - low)
        if self._as_int:
            return min(int(value), int(high) - 1 if high > low else int(low))
        return value

    @property
    def bucket_count(self) -> int:
        return len(self._bounds) - 1
