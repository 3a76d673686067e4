"""Weighted dictionaries: frequency-preserving value pools.

DBSynth samples single-word (or categorical) text columns into a
dictionary that stores each distinct value with its observed relative
frequency (paper §3). PDGF's DictList generator then reproduces the
distribution. Dictionaries serialize to a small text format so they can
be shipped with a model, exactly like PDGF's ``dicts`` directory.
"""

from __future__ import annotations

import io
import json
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.exceptions import ModelError
from repro.prng.distributions import Categorical, RandomSource


@dataclass(frozen=True)
class DictionaryEntry:
    value: str
    weight: float


class WeightedDictionary:
    """An immutable list of values with sampling weights.

    Entries keep insertion order so a dictionary round-trips through its
    serialized form bit-identically, which in turn keeps generated data
    identical across save/load (a PDGF repeatability requirement).
    """

    def __init__(self, entries: Sequence[DictionaryEntry]):
        if not entries:
            raise ModelError("dictionary must contain at least one entry")
        self._entries = list(entries)
        self._categorical = Categorical(
            [e.value for e in self._entries], [e.weight for e in self._entries]
        )

    @classmethod
    def from_values(cls, values: Iterable[str]) -> "WeightedDictionary":
        """Build from raw sampled values, counting frequencies.

        Values are ordered by descending frequency then lexicographically,
        which makes the resulting dictionary independent of sample order.
        """
        counts = Counter(v for v in values if v is not None)
        if not counts:
            raise ModelError("no non-null values to build a dictionary from")
        ordered = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
        total = sum(counts.values())
        return cls([DictionaryEntry(v, c / total) for v, c in ordered])

    @classmethod
    def uniform(cls, values: Sequence[str]) -> "WeightedDictionary":
        """Equal-weight dictionary over a fixed value list (built-ins)."""
        unique = list(dict.fromkeys(values))
        if not unique:
            raise ModelError("uniform dictionary needs at least one value")
        weight = 1.0 / len(unique)
        return cls([DictionaryEntry(v, weight) for v in unique])

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, value: str) -> bool:
        return any(e.value == value for e in self._entries)

    @property
    def entries(self) -> list[DictionaryEntry]:
        return list(self._entries)

    def values(self) -> list[str]:
        return [e.value for e in self._entries]

    def sample(self, rng: RandomSource) -> str:
        """Draw one value according to the stored weights."""
        return self._categorical.sample(rng)  # type: ignore[return-value]

    def index_block(self, seeds):
        """Entry indices for every row of a seed block (batch sampling)."""
        return self._categorical.index_block(seeds)

    def pick(self, index: int) -> str:
        """Positional access used for scale-out domain extension."""
        return self._entries[index % len(self._entries)].value

    # -- serialization -----------------------------------------------------

    def dumps(self) -> str:
        """Serialize to a JSON-lines string (one entry per line)."""
        buf = io.StringIO()
        for entry in self._entries:
            buf.write(json.dumps({"v": entry.value, "w": entry.weight}))
            buf.write("\n")
        return buf.getvalue()

    @classmethod
    def loads(cls, text: str) -> "WeightedDictionary":
        entries: list[DictionaryEntry] = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                entries.append(DictionaryEntry(str(obj["v"]), float(obj["w"])))
            except (ValueError, KeyError, TypeError) as exc:
                raise ModelError(f"bad dictionary line {lineno}: {exc}") from exc
        return cls(entries)
