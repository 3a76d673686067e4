"""Tests for the Markov text generator and the semantic generators."""

from __future__ import annotations

import json
import re

import pytest

from repro.cli.main import main
from repro.config import schema_xml
from repro.engine import GenerationEngine
from repro.exceptions import ModelError
from repro.model.artifacts import ArtifactStore
from repro.model.schema import Field, GeneratorSpec, Schema, Table
from repro.text import corpus
from repro.text.markov import train_chain
from repro.text.tokenizer import words
from tests.conftest import field_values, single_field_engine

TRAINING = [
    "shipping labels arrive before the weekly audit",
    "weekly audit reports confuse the shipping clerks",
    "clerks file reports before labels arrive",
]


def _artifacts() -> ArtifactStore:
    store = ArtifactStore()
    store.put("markov:test", train_chain(TRAINING))
    return store


class TestMarkovChainGenerator:
    def test_generates_trained_bigrams_only(self):
        spec = GeneratorSpec(
            "MarkovChainGenerator", {"model": "markov:test", "min": 2, "max": 8}
        )
        observed = set()
        for text in TRAINING:
            tokens = words(text)
            observed.update(zip(tokens, tokens[1:]))
        for value in field_values(spec, rows=100, type_text="TEXT",
                                  artifacts=_artifacts()):
            tokens = words(value)
            for bigram in zip(tokens, tokens[1:]):
                assert bigram in observed

    def test_word_bounds(self):
        spec = GeneratorSpec(
            "MarkovChainGenerator", {"model": "markov:test", "min": 3, "max": 5}
        )
        for value in field_values(spec, rows=100, type_text="TEXT",
                                  artifacts=_artifacts()):
            assert 3 <= len(words(value)) <= 5

    def test_max_chars_clips_at_word_boundary(self):
        spec = GeneratorSpec(
            "MarkovChainGenerator",
            {"model": "markov:test", "min": 5, "max": 12, "max_chars": 25},
        )
        for value in field_values(spec, rows=100, type_text="TEXT",
                                  artifacts=_artifacts()):
            assert len(value) <= 25
            assert not value.endswith(" ")

    def test_field_length_used_as_default_clip(self):
        spec = GeneratorSpec(
            "MarkovChainGenerator", {"model": "markov:test", "min": 5, "max": 12}
        )
        for value in field_values(spec, rows=100, type_text="VARCHAR(30)",
                                  artifacts=_artifacts()):
            assert len(value) <= 30

    def test_missing_model_param(self):
        with pytest.raises(ModelError):
            single_field_engine(GeneratorSpec("MarkovChainGenerator"),
                                type_text="TEXT", artifacts=_artifacts())

    def test_wrong_artifact_type(self):
        store = ArtifactStore()
        store.put("markov:bad", "not a chain")
        spec = GeneratorSpec("MarkovChainGenerator", {"model": "markov:bad"})
        with pytest.raises(ModelError, match="not a Markov chain"):
            single_field_engine(spec, type_text="TEXT", artifacts=store)

    def test_bad_bounds(self):
        spec = GeneratorSpec(
            "MarkovChainGenerator", {"model": "markov:test", "min": 5, "max": 2}
        )
        with pytest.raises(ModelError):
            single_field_engine(spec, type_text="TEXT", artifacts=_artifacts())

    @staticmethod
    def _save_project(directory, params) -> Schema:
        schema = Schema("markov", seed=1)
        schema.add_table(Table("t", "200", [
            Field.of("f", "TEXT", GeneratorSpec(
                "MarkovChainGenerator", {"model": "markov:test", **params}
            )),
        ]))
        schema_xml.dump(schema, str(directory / "model.xml"))
        _artifacts().save_dir(str(directory / "artifacts"))
        return schema

    @pytest.mark.parametrize("tamper", [
        lambda payload: payload["transitions"][0][1][0].__setitem__(1, -3),
        lambda payload: payload["starts"][0].__setitem__(0, ["clerks", "file"]),
    ], ids=["negative-count", "start-longer-than-order"])
    def test_hostile_chain_exits_2_from_the_cli(self, tamper, tmp_path, capsys):
        self._save_project(tmp_path, {"min": 2, "max": 6})
        path = tmp_path / "artifacts" / "markov:test"
        payload = json.loads(path.read_text())
        tamper(payload)
        path.write_text(json.dumps(payload))
        assert main(["generate", "--model", str(tmp_path), "--kind", "null", "-q"]) == 2
        err = capsys.readouterr().err
        assert "error: bad Markov chain serialization" in err
        assert "Traceback" not in err

    def test_zero_max_chars_is_rejected_built_and_loaded(self, tmp_path, capsys):
        # 0 once meant "no clip" from Python and "clip to nothing" from
        # model.xml; both now fail at bind with the same message
        schema = self._save_project(tmp_path, {"max_chars": 0})
        loaded = schema_xml.load(str(tmp_path / "model.xml"))
        assert loaded.table_by_name("t").fields[0].generator.params["max_chars"] == "0"
        for model in (schema, loaded):
            with pytest.raises(ModelError, match="max_chars must be at least 1, got 0"):
                GenerationEngine(model, _artifacts())
        assert main(["preview", "--model", str(tmp_path)]) == 2
        assert "error: max_chars must be at least 1" in capsys.readouterr().err

    def test_max_chars_is_the_same_built_and_loaded(self, tmp_path):
        schema = self._save_project(tmp_path, {"min": 5, "max": 12, "max_chars": 9})
        loaded = schema_xml.load(str(tmp_path / "model.xml"))
        built, restored = (
            GenerationEngine(model, _artifacts()).generate_rows("t", 0, 200)
            for model in (schema, loaded)
        )
        assert built == restored
        # five words or more never fit in 9 characters: every text is clipped
        assert all(0 < len(value) <= 9 for (value,) in built)


class TestSemanticGenerators:
    def test_person_name(self):
        for value in field_values(GeneratorSpec("PersonNameGenerator"), rows=50,
                                  type_text="TEXT"):
            first, last = value.split(" ", 1)
            assert first in corpus.FIRST_NAMES
            assert last in corpus.LAST_NAMES

    def test_person_name_styles(self):
        firsts = field_values(
            GeneratorSpec("PersonNameGenerator", {"style": "first"}),
            rows=20, type_text="TEXT",
        )
        assert all(v in corpus.FIRST_NAMES for v in firsts)
        lasts = field_values(
            GeneratorSpec("PersonNameGenerator", {"style": "last"}),
            rows=20, type_text="TEXT",
        )
        assert all(v in corpus.LAST_NAMES for v in lasts)

    def test_company_name(self):
        for value in field_values(GeneratorSpec("CompanyNameGenerator"), rows=30,
                                  type_text="TEXT"):
            assert value.split()[-1] in corpus.COMPANY_SUFFIXES

    def test_address_shape(self):
        pattern = re.compile(r"^\d+ \w+ \w+, \w+$")
        for value in field_values(GeneratorSpec("AddressGenerator"), rows=50,
                                  type_text="TEXT"):
            assert pattern.match(value), value

    def test_city_and_country_from_lists(self):
        cities = field_values(GeneratorSpec("CityGenerator"), rows=30, type_text="TEXT")
        assert all(c in corpus.CITIES for c in cities)
        countries = field_values(GeneratorSpec("CountryGenerator"), rows=30,
                                 type_text="TEXT")
        assert all(c in corpus.COUNTRIES for c in countries)

    def test_email_shape(self):
        pattern = re.compile(r"^[a-z]+\.[a-z]+\d+@[a-z.]+$")
        for value in field_values(GeneratorSpec("EmailGenerator"), rows=50,
                                  type_text="TEXT"):
            assert pattern.match(value), value

    def test_phone_shape(self):
        pattern = re.compile(r"^\d{2}-\d{3}-\d{3}-\d{4}$")
        for value in field_values(GeneratorSpec("PhoneGenerator"), rows=50,
                                  type_text="TEXT"):
            assert pattern.match(value), value

    def test_url_shape(self):
        pattern = re.compile(r"^https?://[a-z]+-[a-z]+\.[a-z]+/[a-z]+$")
        for value in field_values(GeneratorSpec("UrlGenerator"), rows=50,
                                  type_text="TEXT"):
            assert pattern.match(value), value

    def test_text_generator_bounds(self):
        spec = GeneratorSpec("TextGenerator", {"min": 4, "max": 9})
        for value in field_values(spec, rows=100, type_text="TEXT"):
            assert 4 <= len(words(value)) <= 9

    def test_text_generator_clips_to_field(self):
        spec = GeneratorSpec("TextGenerator", {"min": 10, "max": 20})
        for value in field_values(spec, rows=50, type_text="VARCHAR(40)"):
            assert len(value) <= 40

    def test_unknown_person_name_style_is_a_model_error(self):
        spec = GeneratorSpec("PersonNameGenerator", {"style": "nickname"})
        with pytest.raises(ModelError, match="'nickname' is not full, first or last"):
            single_field_engine(spec, type_text="TEXT")

    @pytest.mark.parametrize("bounds", [{"min": 9, "max": 3}, {"min": -2, "max": 4}])
    def test_bad_text_word_range_exits_2_from_the_cli(self, bounds, tmp_path, capsys):
        schema = Schema("bad", seed=1)
        schema.add_table(Table("t", "5", [
            Field.of("f", "TEXT", GeneratorSpec("TextGenerator", bounds)),
        ]))
        schema_xml.dump(schema, str(tmp_path / "model.xml"))
        assert main(["preview", "--model", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "error: TextGenerator: bad word range" in err
        assert "Traceback" not in err

    @staticmethod
    def _text_project(directory, params) -> Schema:
        schema = Schema("text", seed=1)
        schema.add_table(Table("t", "200", [
            Field.of("f", "TEXT", GeneratorSpec("TextGenerator", {"min": 6, "max": 12, **params})),
        ]))
        schema_xml.dump(schema, str(directory / "model.xml"))
        return schema

    @pytest.mark.parametrize("max_chars", [0, -4])
    def test_text_max_chars_below_one_is_rejected_built_and_loaded(
        self, max_chars, tmp_path, capsys
    ):
        # 0 once meant "no clip" from Python and clipped every text to ""
        # from model.xml; both now fail at bind, as for the Markov chain
        schema = self._text_project(tmp_path, {"max_chars": max_chars})
        loaded = schema_xml.load(str(tmp_path / "model.xml"))
        assert loaded.table_by_name("t").fields[0].generator.params["max_chars"] == str(max_chars)
        for model in (schema, loaded):
            with pytest.raises(ModelError, match=f"max_chars must be at least 1, got {max_chars}"):
                GenerationEngine(model)
        assert main(["preview", "--model", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "error: max_chars must be at least 1" in err and "Traceback" not in err

    def test_text_max_chars_is_the_same_built_and_loaded(self, tmp_path):
        schema = self._text_project(tmp_path, {"max_chars": 11})
        loaded = schema_xml.load(str(tmp_path / "model.xml"))
        built, restored = (
            GenerationEngine(model).generate_rows("t", 0, 200) for model in (schema, loaded)
        )
        assert built == restored
        # six corpus words never fit in 11 characters: every text is clipped
        assert all(0 < len(value) <= 11 for (value,) in built)

    def test_all_semantic_generators_deterministic(self):
        for name in ("PersonNameGenerator", "CompanyNameGenerator",
                     "AddressGenerator", "CityGenerator", "CountryGenerator",
                     "EmailGenerator", "PhoneGenerator", "UrlGenerator",
                     "TextGenerator"):
            spec = GeneratorSpec(name)
            assert field_values(spec, rows=10, type_text="TEXT") == field_values(
                spec, rows=10, type_text="TEXT"
            ), name
