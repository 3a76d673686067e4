"""Statistical distributions driven by a repro PRNG.

DBSynth-extracted models attach distributions to numeric fields (uniform
by default, or skewed when the source histogram says so). Everything here
consumes an explicit :class:`~repro.prng.xorshift.XorShift64Star`-style
generator so that distribution sampling inherits PDGF's repeatability.

:class:`Categorical` is the one weighted draw: dictionaries, Probability
and Histogram choices, Zipf ranks and every Markov state turn a uniform
draw into a weighted pick through it — ``bisect_left`` per value, and
:func:`guide_table` / :func:`lookup` for a block of rows.
"""

from __future__ import annotations

import bisect
import math
from typing import Protocol, Sequence

from repro.exceptions import ModelError

#: a draw is u = (output >> 11) * 2**-53: ``_SCALE`` puts a CDF entry on
#: the same 53-bit grid, and no output is above ``_NEVER``
_SCALE = float(1 << 53)
_NEVER = (1 << 64) - 1


class RandomSource(Protocol):
    """The slice of the PRNG interface distributions need."""

    def next_u64(self) -> int: ...

    def next_double(self) -> float: ...

    def next_long(self, bound: int) -> int: ...


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


def guide_table(cdf: Sequence[float]) -> tuple[list[int], list[int], int]:
    """``(guide, below, shift)``: what :func:`lookup` needs to find
    ``bisect_left(cdf, u)`` for a raw xorshift64* output.

    Chen & Asau's indexed search. A CDF of ``n`` entries gets ``G = 2**g``
    buckets, the smallest power of two >= ``max(n, 2)`` (two for a single
    entry, so *shift* = ``64 - g`` stays under 64), and bucket ``b``
    holds the first entry >= ``b / G``: the guide has under 2 × n
    entries. ``below`` is each entry on the draw's grid: with ``F =
    floor(cdf * 2**53)``, ``cdf < u`` iff ``F < k`` (``u = k * 2**-53``)
    iff ``F << 11 | 0x7FF < output``, one integer compare on the raw
    output; 1.0 becomes 2**64 - 1, below no output.
    """
    bits = max(1, (len(cdf) - 1).bit_length())
    guide = [bisect.bisect_left(cdf, bucket / (1 << bits)) for bucket in range(1 << bits)]
    below = [int(c * _SCALE) << 11 | 0x7FF if c < 1.0 else _NEVER for c in cdf]
    return guide, below, 64 - bits


def lookup(guide, below, outputs, at, shift):
    """The entry each raw output in *outputs* draws: ``bisect_left`` on
    its row's CDF, whose :func:`guide_table` starts at *at* in *guide*
    and *below* (concatenated tables; scalars or per-row ``uint64``
    arrays, like *shift*).

    The bucket ``output >> shift`` is integer arithmetic, so ``b / G <=
    u`` exactly and the guide entry is never past the answer. From there
    the scan steps the shrinking set of rows whose entry is still below
    the draw and stops at the first one that is not: ``bisect_left``'s
    answer. A CDF's last entry is 1.0, so the scan never leaves it.
    """
    choice = guide[(outputs >> shift) + at]
    behind = (below[choice] < outputs).nonzero()[0]
    while len(behind):
        choice[behind] += 1
        behind = behind[below[choice[behind]] < outputs[behind]]
    return choice


class Categorical:
    """Weighted choice over an explicit value list.

    This is the sampling core of dictionary generators: DBSynth stores the
    observed relative frequencies with each dictionary, and generation
    reproduces them. Bad weights are a :class:`ModelError` here, for
    every generator that draws through it.
    """

    __slots__ = ("values", "_cdf", "_table")

    def __init__(self, values: Sequence[object], weights: Sequence[float] | None = None):
        if not values:
            raise ModelError("a weighted choice needs at least one value")
        self.values = list(values)
        if weights is None:
            weights = [1.0] * len(self.values)
        if len(weights) != len(self.values):
            raise ModelError(f"{len(self.values)} values but {len(weights)} weights")
        try:
            weights = [float(w) for w in weights]
        except (TypeError, ValueError) as exc:
            raise ModelError(f"bad weight: {exc}") from exc
        bad = [w for w in weights if not 0.0 <= w < math.inf]
        if bad:
            raise ModelError(f"weights must be finite and non-negative, got {bad[0]}")
        total = math.fsum(weights)
        if total <= 0:
            raise ModelError("weights must not all be zero")
        cdf: list[float] = []
        acc = 0.0
        for w in weights:
            acc += w / total
            cdf.append(acc)
        cdf[-1] = 1.0
        self._cdf = cdf
        self._table = None

    def __len__(self) -> int:
        return len(self.values)

    @property
    def cdf(self) -> list[float]:
        """The cumulative weights :meth:`sample` bisects, one per value."""
        return self._cdf

    def sample(self, rng: RandomSource) -> object:
        return self.values[bisect.bisect_left(self._cdf, rng.next_double())]

    def sample_index(self, rng: RandomSource) -> int:
        return bisect.bisect_left(self._cdf, rng.next_double())

    def index_block(self, seeds):
        """:meth:`sample_index` on every row of *seeds* (a
        :class:`~repro.prng.blocks.SeedBlock`, one ``next_u64`` per row),
        as an integer array. The guide table is built on first use;
        threads racing there each build an equal table, and one
        assignment publishes it."""
        table = self._table
        if table is None:
            import numpy as np

            guide, below, shift = guide_table(self._cdf)
            table = self._table = (
                np.array(guide, dtype=np.intp),
                np.array(below, dtype=np.uint64),
                np.uint64(shift),
            )
        guide, below, shift = table
        return lookup(guide, below, seeds.next_u64(), 0, shift)


class Zipf(Categorical):
    """Zipf-distributed ranks ``1..n`` with exponent ``s``: rank ``k`` has
    weight ``1 / k**s``, so rank 1 is the most likely. Models skewed
    categorical columns and the skew variants of the Star Schema
    Benchmark."""

    __slots__ = ()

    def __init__(self, n: int, s: float = 1.0) -> None:
        if not s >= 0:
            raise ModelError(f"zipf exponent must be non-negative, got {s}")
        super().__init__(range(1, n + 1), [1.0 / (k**s) for k in range(1, n + 1)])
