"""Pseudo random number generation substrate for PDGF.

Exposes the xorshift generators, the stateless hash/seed-combination
primitives, the hierarchical seeding strategy (paper Figure 1), and
repeatable distribution sampling.

Names resolve on first use: the seeding strategy builds numpy seed
blocks, and a caller that only hashes (a database adapter's ``mix64``)
does not pay for numpy.
"""

from repro._lazy import lazy_names

_PUBLIC = {
    "MASK64": "repro.prng.xorshift",
    "XorShift64Star": "repro.prng.xorshift",
    "XorShift128Plus": "repro.prng.xorshift",
    "combine64": "repro.prng.xorshift",
    "combine_name64": "repro.prng.xorshift",
    "hash_string64": "repro.prng.xorshift",
    "mix64": "repro.prng.xorshift",
    "splitmix64": "repro.prng.xorshift",
    "ColumnSeeder": "repro.prng.seeding",
    "SeedHierarchy": "repro.prng.seeding",
    "Categorical": "repro.prng.distributions",
    "Zipf": "repro.prng.distributions",
    "normal": "repro.prng.distributions",
}

__getattr__, __dir__ = lazy_names(__name__, _PUBLIC)

__all__ = list(_PUBLIC)
