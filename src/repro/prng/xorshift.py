"""Xorshift pseudo random number generators.

PDGF's generation strategy relies on PRNGs that *behave like hash
functions*: seeding is O(1), streams are repeatable, and a generator
seeded with ``f(seed, i)`` is statistically independent of one seeded
with ``f(seed, j)``. The paper uses custom xorshift generators
(``PdgfDefaultRandom``); we implement the well-known xorshift64* and
xorshift128+ variants plus SplitMix64, which is used to expand single
seeds into full internal states (seeding a xorshift generator directly
with small integers such as 0/1/2 produces badly correlated streams).

All arithmetic is modulo 2**64, implemented with explicit masking.
"""

from __future__ import annotations

MASK64 = 0xFFFFFFFFFFFFFFFF

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_SPLITMIX_MUL1 = 0xBF58476D1CE4E5B9
_SPLITMIX_MUL2 = 0x94D049BB133111EB
_XORSHIFT64STAR_MUL = 0x2545F4914F6CDD1D


def splitmix64(state: int) -> tuple[int, int]:
    """Advance a SplitMix64 state once.

    Returns ``(new_state, output)``. SplitMix64 is a strong 64-bit
    mixer; it is the recommended way to derive independent seeds from a
    counter, which is exactly what PDGF's seeding hierarchy does.
    """
    state = (state + _SPLITMIX_GAMMA) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * _SPLITMIX_MUL1) & MASK64
    z = ((z ^ (z >> 27)) * _SPLITMIX_MUL2) & MASK64
    return state, (z ^ (z >> 31)) & MASK64


def mix64(value: int) -> int:
    """Hash a 64-bit integer to a well-mixed 64-bit integer.

    This is the stateless "PRNG as hash function" primitive: the seed
    hierarchy derives child seeds as ``mix64(parent_seed ^ mix64(index))``
    so that any cell's seed can be computed without generating any other
    cell. One SplitMix64 step, inlined: it runs once per cell.
    """
    z = (value + _SPLITMIX_GAMMA) & MASK64
    z = ((z ^ (z >> 30)) * _SPLITMIX_MUL1) & MASK64
    z = ((z ^ (z >> 27)) * _SPLITMIX_MUL2) & MASK64
    return z ^ (z >> 31)


def combine64(seed: int, index: int) -> int:
    """Derive a child seed from a parent seed and a child index."""
    return mix64((seed ^ mix64(index)) & MASK64)


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def hash_string64(text: str) -> int:
    """Deterministic 64-bit hash of a string (FNV-1a, then mixed).

    Used to derive table/column seeds from *names* so that a column's
    data is independent of its position in the model — adding or removing
    an unrelated column never changes existing columns' values. Python's
    built-in ``hash`` is salted per process and cannot be used.
    """
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & MASK64
    return mix64(h)


def combine_name64(seed: int, name: str) -> int:
    """Derive a child seed from a parent seed and a child *name*."""
    return mix64((seed ^ hash_string64(name)) & MASK64)


class XorShift64Star:
    """xorshift64* generator — PDGF's ``PdgfDefaultRandom`` equivalent.

    Small state (one 64-bit word), very cheap ``next`` step, and cheap
    reseeding, which is what makes per-field reseeding affordable.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int = 0) -> None:
        self.reseed(seed)

    def reseed(self, seed: int) -> None:
        """Reset the stream. A zero state is invalid for xorshift, so the
        seed is passed through SplitMix64 first, which also decorrelates
        small consecutive seeds."""
        self._state = mix64(seed) or _SPLITMIX_GAMMA

    def reseed_mixed(self, seed: int) -> None:
        """Reset from a seed that is already well mixed (a seeding-
        hierarchy output). Skips the extra SplitMix64 pass — the hot-loop
        variant used by the engine's per-cell reseeding."""
        self._state = (seed & MASK64) or _SPLITMIX_GAMMA

    @property
    def state(self) -> int:
        """The live state: where the stream stands (``reseed_mixed`` of
        it continues the stream unchanged)."""
        return self._state

    def next_u64(self) -> int:
        """Return the next 64-bit unsigned integer."""
        x = self._state
        x ^= (x >> 12)
        x ^= (x << 25) & MASK64
        x ^= (x >> 27)
        self._state = x
        return (x * _XORSHIFT64STAR_MUL) & MASK64

    def next_long(self, bound: int) -> int:
        """Return a uniform integer in ``[0, bound)``. ``bound`` must be > 0."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return self.next_u64() % bound

    def next_range(self, low: int, high: int) -> int:
        """Return a uniform integer in the inclusive range ``[low, high]``."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        return low + self.next_u64() % (high - low + 1)

    def next_double(self) -> float:
        """Return a uniform float in ``[0, 1)`` with 53 bits of precision."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def fork(self, index: int) -> "XorShift64Star":
        """Return an independent generator derived from this one's state."""
        return XorShift64Star(combine64(self._state, index))


class XorShift128Plus:
    """xorshift128+ generator: longer period (2**128 - 1), two-word state.

    Used where a single stream must supply very many values (e.g. the
    DBGen-style baseline, which draws all values from one stream).
    """

    __slots__ = ("_s0", "_s1")

    def __init__(self, seed: int = 0) -> None:
        self.reseed(seed)

    def reseed(self, seed: int) -> None:
        state = seed & MASK64
        state, s0 = splitmix64(state)
        _, s1 = splitmix64(state)
        self._s0 = s0 or 1
        self._s1 = s1 or 2

    def next_u64(self) -> int:
        s1 = self._s0
        s0 = self._s1
        result = (s0 + s1) & MASK64
        self._s0 = s0
        s1 ^= (s1 << 23) & MASK64
        self._s1 = (s1 ^ s0 ^ (s1 >> 18) ^ (s0 >> 5)) & MASK64
        return result

    def next_long(self, bound: int) -> int:
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return self.next_u64() % bound

    def next_double(self) -> float:
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))
