"""Tests for weighted dictionaries."""

from __future__ import annotations

import pytest

from repro.exceptions import ModelError
from repro.text.dictionary import DictionaryEntry, WeightedDictionary


class TestConstruction:
    def test_from_values_counts_frequencies(self):
        d = WeightedDictionary.from_values(["a", "a", "a", "b"])
        entries = {e.value: e.weight for e in d.entries}
        assert entries == {"a": 0.75, "b": 0.25}

    def test_from_values_orders_by_frequency(self):
        d = WeightedDictionary.from_values(["rare", "common", "common"])
        assert d.values() == ["common", "rare"]

    def test_from_values_sample_order_independent(self):
        a = WeightedDictionary.from_values(["x", "y", "x", "z"])
        b = WeightedDictionary.from_values(["z", "x", "y", "x"])
        assert a.dumps() == b.dumps()

    def test_from_values_skips_none(self):
        d = WeightedDictionary.from_values(["a", None, "b"])
        assert set(d.values()) == {"a", "b"}

    def test_from_values_empty_raises(self):
        with pytest.raises(ModelError):
            WeightedDictionary.from_values([])

    def test_uniform(self):
        d = WeightedDictionary.uniform(["x", "y"])
        assert all(e.weight == 0.5 for e in d.entries)

    def test_uniform_deduplicates(self):
        d = WeightedDictionary.uniform(["x", "y", "x"])
        assert len(d) == 2

    def test_empty_entries_raise(self):
        with pytest.raises(ModelError):
            WeightedDictionary([])


class TestSampling:
    def test_only_dictionary_values(self, rng):
        d = WeightedDictionary.from_values(["a", "b", "c"] * 5)
        for _ in range(500):
            assert d.sample(rng) in ("a", "b", "c")

    def test_weights_respected(self, rng):
        d = WeightedDictionary.from_values(["hot"] * 90 + ["cold"] * 10)
        n = 20_000
        hot = sum(1 for _ in range(n) if d.sample(rng) == "hot")
        assert abs(hot / n - 0.9) < 0.02

    def test_pick_positional_with_wraparound(self):
        d = WeightedDictionary.uniform(["a", "b", "c"])
        assert d.pick(0) == "a"
        assert d.pick(4) == "b"

    def test_contains(self):
        d = WeightedDictionary.uniform(["a"])
        assert "a" in d and "b" not in d


class TestSerialization:
    def test_round_trip(self):
        d = WeightedDictionary.from_values(["alpha", "beta", "alpha"])
        restored = WeightedDictionary.loads(d.dumps())
        assert restored.dumps() == d.dumps()

    def test_round_trip_preserves_order(self):
        d = WeightedDictionary.from_values(list("zyxabc") * 3 + ["z"])
        assert WeightedDictionary.loads(d.dumps()).values() == d.values()

    def test_file_round_trip(self, tmp_path):
        from repro.model.artifacts import ArtifactStore

        store = ArtifactStore()
        store.put("dict:d", WeightedDictionary.uniform(["one", "two"]))
        store.save_dir(str(tmp_path / "artifacts"))
        restored = ArtifactStore.load_dir(str(tmp_path / "artifacts"))
        assert restored.get("dict:d").values() == ["one", "two"]

    def test_bad_line_raises(self):
        with pytest.raises(ModelError, match="bad dictionary line"):
            WeightedDictionary.loads('{"v": "a", "w": 1.0}\nnot json\n')

    def test_missing_key_raises(self):
        with pytest.raises(ModelError):
            WeightedDictionary.loads('{"value": "a"}\n')

    def test_blank_lines_ignored(self):
        d = WeightedDictionary.loads('\n{"v": "a", "w": 1.0}\n\n')
        assert d.values() == ["a"]

    def test_unicode_values(self):
        d = WeightedDictionary.from_values(["café", "naïve", "café"])
        assert WeightedDictionary.loads(d.dumps()).values() == d.values()


def test_entry_is_frozen():
    entry = DictionaryEntry("a", 0.5)
    with pytest.raises(AttributeError):
        entry.value = "b"  # type: ignore[misc]
