"""Statistical distributions driven by a repro PRNG.

DBSynth-extracted models attach distributions to numeric fields (uniform
by default, or skewed when the source histogram says so). Everything here
consumes an explicit :class:`~repro.prng.xorshift.XorShift64Star`-style
generator so that distribution sampling inherits PDGF's repeatability.
"""

from __future__ import annotations

import bisect
import math
from typing import Protocol, Sequence

import numpy as _np


class RandomSource(Protocol):
    """The slice of the PRNG interface distributions need."""

    def next_u64(self) -> int: ...

    def next_double(self) -> float: ...

    def next_long(self, bound: int) -> int: ...


def uniform(rng: RandomSource, low: float, high: float) -> float:
    """Uniform float in ``[low, high)``."""
    if high < low:
        raise ValueError(f"empty range [{low}, {high})")
    return low + rng.next_double() * (high - low)


def uniform_int(rng: RandomSource, low: int, high: int) -> int:
    """Uniform integer in the inclusive range ``[low, high]``."""
    if high < low:
        raise ValueError(f"empty range [{low}, {high}]")
    return low + rng.next_long(high - low + 1)


def normal(rng: RandomSource, mean: float = 0.0, stddev: float = 1.0) -> float:
    """Gaussian sample via Box-Muller (single draw, second value discarded
    to keep the per-value seed → value mapping stateless)."""
    if stddev < 0:
        raise ValueError(f"stddev must be non-negative, got {stddev}")
    u1 = rng.next_double()
    u2 = rng.next_double()
    # Guard against log(0).
    if u1 <= 0.0:
        u1 = 5e-324
    z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
    return mean + stddev * z


def exponential(rng: RandomSource, rate: float = 1.0) -> float:
    """Exponential sample with the given rate (lambda)."""
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    u = rng.next_double()
    if u <= 0.0:
        u = 5e-324
    return -math.log(u) / rate


class Zipf:
    """Zipf-distributed integers in ``[1, n]`` with exponent ``s``.

    Uses a precomputed CDF with binary search; construction is O(n) and
    sampling O(log n), which suits PDGF's pattern of building the
    distribution once per column and sampling per row. Used to model
    skewed categorical columns and the skew variants of the Star Schema
    Benchmark.
    """

    __slots__ = ("n", "s", "_cdf", "_cdf_array")

    def __init__(self, n: int, s: float = 1.0) -> None:
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        if s < 0:
            raise ValueError(f"exponent must be non-negative, got {s}")
        self.n = n
        self.s = s
        weights = [1.0 / (k**s) for k in range(1, n + 1)]
        total = math.fsum(weights)
        cdf: list[float] = []
        acc = 0.0
        for w in weights:
            acc += w / total
            cdf.append(acc)
        cdf[-1] = 1.0
        self._cdf = cdf
        self._cdf_array = None

    def sample(self, rng: RandomSource) -> int:
        """Return a rank in ``[1, n]``; rank 1 is the most likely."""
        u = rng.next_double()
        return bisect.bisect_left(self._cdf, u) + 1

    def rank_block(self, us):
        """Ranks for a block of uniform doubles, as an int64 array.

        ``searchsorted(..., side="left")`` over the same float CDF is the
        elementwise equivalent of :meth:`sample`'s ``bisect_left``.
        """
        cdf = self._cdf_array
        if cdf is None:
            cdf = self._cdf_array = _np.asarray(self._cdf)
        return _np.searchsorted(cdf, us, side="left").astype(_np.int64) + 1

    def sample_block(self, us) -> list[int]:
        """:meth:`rank_block` as Python ints."""
        return self.rank_block(us).tolist()


def pareto(rng: RandomSource, shape: float, scale: float = 1.0) -> float:
    """Pareto(shape, scale) sample; heavy-tailed sizes (e.g. text lengths)."""
    if shape <= 0 or scale <= 0:
        raise ValueError("shape and scale must be positive")
    u = rng.next_double()
    if u <= 0.0:
        u = 5e-324
    return scale / (u ** (1.0 / shape))


class Categorical:
    """Weighted choice over an explicit value list.

    This is the sampling core of dictionary generators: DBSynth stores the
    observed relative frequencies with each dictionary, and generation
    reproduces them.
    """

    __slots__ = ("values", "_cdf", "_cdf_array")

    def __init__(self, values: Sequence[object], weights: Sequence[float] | None = None):
        if not values:
            raise ValueError("Categorical needs at least one value")
        self.values = list(values)
        if weights is None:
            weights = [1.0] * len(self.values)
        if len(weights) != len(self.values):
            raise ValueError(
                f"{len(self.values)} values but {len(weights)} weights"
            )
        if any(w < 0 for w in weights):
            raise ValueError("weights must be non-negative")
        total = math.fsum(weights)
        if total <= 0:
            raise ValueError("weights must not all be zero")
        cdf: list[float] = []
        acc = 0.0
        for w in weights:
            acc += w / total
            cdf.append(acc)
        cdf[-1] = 1.0
        self._cdf = cdf
        self._cdf_array = None

    def __len__(self) -> int:
        return len(self.values)

    @property
    def cdf(self) -> list[float]:
        """The cumulative weights :meth:`sample` bisects, one per value."""
        return self._cdf

    def sample(self, rng: RandomSource) -> object:
        u = rng.next_double()
        return self.values[bisect.bisect_left(self._cdf, u)]

    def sample_index(self, rng: RandomSource) -> int:
        return bisect.bisect_left(self._cdf, rng.next_double())

    def sample_index_block(self, us) -> list[int]:
        """Value indices for a block of uniform doubles, as Python ints."""
        cdf = self._cdf_array
        if cdf is None:
            cdf = self._cdf_array = _np.asarray(self._cdf)
        return _np.searchsorted(cdf, us, side="left").tolist()
