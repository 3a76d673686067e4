"""Tests for the Markov text generator and the semantic generators."""

from __future__ import annotations

import re

import pytest

from repro.cli.main import main
from repro.config import schema_xml
from repro.exceptions import ModelError
from repro.generators.base import ArtifactStore
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

    def test_all_semantic_generators_deterministic(self):
        for name in ("PersonNameGenerator", "CompanyNameGenerator",
                     "AddressGenerator", "CityGenerator", "CountryGenerator",
                     "EmailGenerator", "PhoneGenerator", "UrlGenerator",
                     "TextGenerator"):
            spec = GeneratorSpec(name)
            assert field_values(spec, rows=10, type_text="TEXT") == field_values(
                spec, rows=10, type_text="TEXT"
            ), name
