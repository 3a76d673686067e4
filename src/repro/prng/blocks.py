"""Vectorized seed/PRNG block kernels for block generation.

PDGF's per-value cost (paper Figures 7-9) is dominated, in this Python
reproduction, by interpreter overhead: one seed derivation, one reseed,
and one ``generate`` call per cell. Block generation amortizes that over
a *work package*: the per-row seeds of a whole row block are derived as
one vector operation, and the xorshift64* draws of an entire column are
produced as array arithmetic.

Everything here mirrors :mod:`repro.prng.xorshift` bit-for-bit — the
kernels are alternative *implementations*, never alternative *streams*.
All arithmetic is modulo 2**64, which numpy's ``uint64`` wraps natively.
"""

from __future__ import annotations

import numpy as _np

from repro.prng.xorshift import (
    _SPLITMIX_GAMMA,
    _SPLITMIX_MUL1,
    _SPLITMIX_MUL2,
    _XORSHIFT64STAR_MUL,
)

_U12 = _np.uint64(12)
_U25 = _np.uint64(25)
_U27 = _np.uint64(27)
_U30 = _np.uint64(30)
_U31 = _np.uint64(31)
_U11 = _np.uint64(11)
_GAMMA = _np.uint64(_SPLITMIX_GAMMA)
_MUL1 = _np.uint64(_SPLITMIX_MUL1)
_MUL2 = _np.uint64(_SPLITMIX_MUL2)
_STAR_MUL = _np.uint64(_XORSHIFT64STAR_MUL)

#: multiplier converting ``u64 >> 11`` to a double in [0, 1) — identical
#: to :meth:`~repro.prng.xorshift.XorShift64Star.next_double`.
_DOUBLE_SCALE = 1.0 / (1 << 53)


class SeedBlock:
    """One column's PRNG streams over a block of rows: ``array`` holds
    cell ``i``'s live xorshift64* state, a numpy ``uint64`` array.

    Built from the per-cell seeds, it applies ``reseed_mixed``'s zero
    → gamma once, so ``array[i]`` is the state ``ctx.rng`` holds after
    reseeding cell ``i``'s row. The draws advance every row's state in place —
    a kernel reads line for line like its ``generate`` — and a kernel
    leaves each row's state where ``generate`` leaves ``ctx.rng``.
    """

    __slots__ = ("array",)

    def __init__(self, seeds) -> None:
        self.array = _np.where(seeds == 0, _GAMMA, seeds)

    @property
    def ints(self) -> list[int]:
        """The states as Python ints, so the per-row loop never leaks
        numpy scalars into PRNG state."""
        return self.array.tolist()

    def __len__(self) -> int:
        return len(self.array)

    def next_u64(self):
        """:meth:`XorShift64Star.next_u64` on every row: the outputs."""
        self.array, outputs = xorshift_step(self.array)
        return outputs

    def next_double(self):
        """``next_double`` on every row, as a float64 array."""
        return to_doubles(self.next_u64())

    def next_long(self, bound: int):
        """``next_long(bound)`` on every row, as a uint64 array."""
        return self.next_u64() % _np.uint64(bound)


def row_hash_block(rows, count: int | None = None):
    """``mix64(row)`` for every row of *rows*, an integer array, as a
    uint64 array — or, given *count*, for the range ``[rows, rows+count)``.

    One block of rows is hashed once and shared by every column's seeder
    (the block equivalent of ``BoundTable.generate_row`` hashing the row
    once per row).
    """
    if count is not None:
        rows = _np.arange(rows, rows + count, dtype=_np.uint64)
    return _splitmix_output(_np.asarray(rows).astype(_np.uint64, copy=False) + _GAMMA)


def seed_block_from_hashes(update_seed: int, row_hashes) -> SeedBlock:
    """Cell seeds ``mix64(update_seed ^ mix64(row))`` for a row block.

    Equivalent to :meth:`ColumnSeeder.seed_from_row_hash` applied per
    row; *row_hashes* is the output of :func:`row_hash_block`.
    """
    mixed = _np.uint64(update_seed) ^ row_hashes
    return SeedBlock(_splitmix_output(mixed + _GAMMA))


def column_states(seed_block: SeedBlock):
    """The block's current states as an array (``bench/layers.py`` times
    the PRNG layer through it; generators draw through the block)."""
    return seed_block.array


def xorshift_step(states):
    """Advance a block of xorshift64* states once.

    Returns ``(new_states, outputs)`` — the elementwise equivalent of
    calling :meth:`XorShift64Star.next_u64` on every state.
    """
    x = states
    x = x ^ (x >> _U12)
    x = x ^ (x << _U25)
    x = x ^ (x >> _U27)
    return x, x * _STAR_MUL


def to_doubles(outputs):
    """Map u64 outputs to doubles in [0, 1) (``next_double`` semantics)."""
    return (outputs >> _U11).astype(_np.float64) * _DOUBLE_SCALE


def _splitmix_output(state):
    """The SplitMix64 output function over a block of advanced states.

    *state* must already include the gamma increment; this computes only
    the mixing half, i.e. ``mix64`` given ``state = value + GAMMA``.
    """
    z = state
    z = (z ^ (z >> _U30)) * _MUL1
    z = (z ^ (z >> _U27)) * _MUL2
    return z ^ (z >> _U31)
