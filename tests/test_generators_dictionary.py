"""Tests for the DictList generator."""

from __future__ import annotations

import pytest

from repro.exceptions import ModelError
from repro.model.artifacts import ArtifactStore
from repro.model.schema import GeneratorSpec
from repro.text.dictionary import WeightedDictionary
from tests.conftest import field_values, single_field_engine


class TestInlineValues:
    def test_only_listed_values(self):
        spec = GeneratorSpec("DictListGenerator", {"values": ["x", "y", "z"]})
        assert set(field_values(spec, rows=300, type_text="TEXT")) == {"x", "y", "z"}

    def test_weights(self):
        spec = GeneratorSpec(
            "DictListGenerator", {"values": ["hot", "cold"], "weights": [0.95, 0.05]}
        )
        values = field_values(spec, rows=2000, type_text="TEXT")
        assert values.count("hot") / len(values) > 0.9

    def test_weights_length_mismatch(self):
        spec = GeneratorSpec(
            "DictListGenerator", {"values": ["a", "b"], "weights": [1.0]}
        )
        with pytest.raises(ModelError):
            single_field_engine(spec, type_text="TEXT")

    def test_empty_values_rejected(self):
        spec = GeneratorSpec("DictListGenerator", {"values": []})
        with pytest.raises(ModelError):
            single_field_engine(spec, type_text="TEXT")

    def test_no_source_rejected(self):
        with pytest.raises(ModelError):
            single_field_engine(GeneratorSpec("DictListGenerator"), type_text="TEXT")


class TestArtifactDictionary:
    def test_samples_from_artifact(self):
        artifacts = ArtifactStore()
        artifacts.put("dict:test", WeightedDictionary.uniform(["apple", "pear"]))
        spec = GeneratorSpec("DictListGenerator", {"dictionary": "dict:test"})
        values = field_values(spec, rows=200, type_text="TEXT", artifacts=artifacts)
        assert set(values) == {"apple", "pear"}

    def test_missing_artifact(self):
        spec = GeneratorSpec("DictListGenerator", {"dictionary": "dict:ghost"})
        from repro.exceptions import GenerationError

        with pytest.raises(GenerationError, match="unknown model artifact"):
            single_field_engine(spec, type_text="TEXT")

    def test_wrong_artifact_type(self):
        artifacts = ArtifactStore()
        artifacts.put("dict:bad", object())
        spec = GeneratorSpec("DictListGenerator", {"dictionary": "dict:bad"})
        with pytest.raises(ModelError, match="not a dictionary"):
            single_field_engine(spec, type_text="TEXT", artifacts=artifacts)


class TestByRow:
    def test_positional_assignment(self):
        spec = GeneratorSpec(
            "DictListGenerator", {"values": ["a", "b", "c"], "by_row": True}
        )
        assert field_values(spec, rows=5, type_text="TEXT") == ["a", "b", "c", "a", "b"]

    def test_as_int(self):
        spec = GeneratorSpec(
            "DictListGenerator",
            {"values": ["0", "4", "2"], "by_row": True, "as_int": True},
        )
        assert field_values(spec, rows=3) == [0, 4, 2]

    def test_xml_style_string_flags(self):
        # Flags arriving from XML as strings must parse correctly.
        spec = GeneratorSpec(
            "DictListGenerator",
            {"values": ["a", "b"], "by_row": "false", "unique_suffix": "false"},
        )
        values = field_values(spec, rows=50, type_text="TEXT")
        assert set(values) <= {"a", "b"}


class TestUniqueSuffix:
    def test_extends_value_domain(self):
        # Paper §6: built-in dictionaries increase the value domain in
        # scale-out scenarios.
        plain_spec = GeneratorSpec("DictListGenerator", {"values": ["n1", "n2"]})
        suffixed_spec = GeneratorSpec(
            "DictListGenerator",
            {"values": ["n1", "n2"], "unique_suffix": True, "domain": 10_000},
        )
        plain = set(field_values(plain_spec, rows=500, type_text="TEXT"))
        suffixed = set(field_values(suffixed_spec, rows=500, type_text="TEXT"))
        assert len(plain) == 2
        assert len(suffixed) > 100

    def test_suffix_preserves_base_value(self):
        spec = GeneratorSpec(
            "DictListGenerator", {"values": ["base"], "unique_suffix": True}
        )
        for value in field_values(spec, rows=50, type_text="TEXT"):
            assert value.startswith("base#")

    def test_deterministic(self):
        spec = GeneratorSpec(
            "DictListGenerator", {"values": ["v"], "unique_suffix": True}
        )
        assert field_values(spec, rows=30, type_text="TEXT") == field_values(
            spec, rows=30, type_text="TEXT"
        )
