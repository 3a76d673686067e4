"""Pseudo random number generation substrate for PDGF.

Exposes the xorshift generators, the stateless hash/seed-combination
primitives, the hierarchical seeding strategy (paper Figure 1), and
repeatable distribution sampling.
"""

from repro.prng.xorshift import (
    MASK64,
    XorShift64Star,
    XorShift128Plus,
    combine64,
    combine_name64,
    hash_string64,
    mix64,
    splitmix64,
)
from repro.prng.seeding import ColumnSeeder, SeedHierarchy
from repro.prng.distributions import Categorical, Zipf, normal

__all__ = [
    "MASK64",
    "XorShift64Star",
    "XorShift128Plus",
    "combine64",
    "combine_name64",
    "hash_string64",
    "mix64",
    "splitmix64",
    "ColumnSeeder",
    "SeedHierarchy",
    "Categorical",
    "Zipf",
    "normal",
]
