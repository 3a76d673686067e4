"""Tests for repeatable distribution sampling."""

from __future__ import annotations

import math

import pytest

from repro.engine import GenerationEngine
from repro.exceptions import ModelError
from repro.model.schema import Field, GeneratorSpec, Schema, Table
from repro.prng.distributions import Categorical, Zipf, normal
from repro.prng.xorshift import XorShift64Star
from repro.text.dictionary import WeightedDictionary


class TestNormal:
    def test_moments(self, rng):
        n = 30_000
        samples = [normal(rng, 10.0, 2.0) for _ in range(n)]
        mean = sum(samples) / n
        var = sum((s - mean) ** 2 for s in samples) / n
        assert abs(mean - 10.0) < 0.1
        assert abs(math.sqrt(var) - 2.0) < 0.1

    def test_rejects_negative_stddev(self, rng):
        with pytest.raises(ValueError):
            normal(rng, 0.0, -1.0)

    def test_zero_stddev_is_constant(self, rng):
        assert normal(rng, 3.0, 0.0) == pytest.approx(3.0)


class TestZipf:
    def test_rank_one_most_frequent(self, rng):
        zipf = Zipf(100, 1.0)
        counts = [0] * 101
        for _ in range(20_000):
            counts[zipf.sample(rng)] += 1
        assert counts[1] == max(counts)
        assert counts[1] > counts[10] > 0

    def test_in_range(self, rng):
        zipf = Zipf(10, 1.5)
        assert all(1 <= zipf.sample(rng) <= 10 for _ in range(1000))

    def test_s_zero_is_uniform(self, rng):
        zipf = Zipf(4, 0.0)
        counts = [0] * 5
        n = 40_000
        for _ in range(n):
            counts[zipf.sample(rng)] += 1
        for k in range(1, 5):
            assert abs(counts[k] / n - 0.25) < 0.02

    def test_rejects_bad_parameters(self):
        with pytest.raises(ModelError):
            Zipf(0)
        with pytest.raises(ModelError):
            Zipf(10, -1.0)


class TestCategorical:
    def test_respects_weights(self, rng):
        cat = Categorical(["a", "b"], [0.9, 0.1])
        n = 20_000
        hits = sum(1 for _ in range(n) if cat.sample(rng) == "a")
        assert abs(hits / n - 0.9) < 0.02

    def test_uniform_default(self, rng):
        cat = Categorical(["x", "y", "z", "w"])
        seen = {cat.sample(rng) for _ in range(500)}
        assert seen == {"x", "y", "z", "w"}

    def test_zero_weight_never_sampled(self, rng):
        cat = Categorical(["keep", "drop"], [1.0, 0.0])
        assert all(cat.sample(rng) == "keep" for _ in range(2000))

    def test_sample_index(self, rng):
        cat = Categorical(["only"])
        assert cat.sample_index(rng) == 0

    def test_rejects_empty_values(self):
        with pytest.raises(ModelError):
            Categorical([])

    def test_rejects_mismatched_weights(self):
        with pytest.raises(ModelError):
            Categorical(["a"], [0.5, 0.5])

    def test_rejects_negative_weight(self):
        with pytest.raises(ModelError):
            Categorical(["a", "b"], [1.0, -0.5])

    def test_rejects_all_zero_weights(self):
        with pytest.raises(ModelError):
            Categorical(["a", "b"], [0.0, 0.0])

    def test_deterministic_for_same_stream(self):
        cat = Categorical(list("abcdef"))
        a = XorShift64Star(5)
        b = XorShift64Star(5)
        assert [cat.sample(a) for _ in range(30)] == [cat.sample(b) for _ in range(30)]


def _children(count):
    return [GeneratorSpec("StaticValueGenerator", {"constant": i}) for i in range(count)]


def _zipf(name, **params):
    return GeneratorSpec(name, {"distribution": "zipf", "exponent": -0.5, **params})


#: every model input that builds a weighted draw from bad weights
BAD_WEIGHTS = {
    "probability-negative": GeneratorSpec(
        "ProbabilityGenerator", {"weights": ["1", "-1"]}, _children(2)
    ),
    "probability-all-zero": GeneratorSpec(
        "ProbabilityGenerator", {"weights": ["0", "0"]}, _children(2)
    ),
    "histogram-negative": GeneratorSpec(
        "HistogramGenerator", {"bounds": [0, 1, 2], "weights": [2, -1]}
    ),
    "histogram-all-zero": GeneratorSpec(
        "HistogramGenerator", {"bounds": [0, 1, 2], "weights": [0, 0]}
    ),
    "dictlist-negative": GeneratorSpec(
        "DictListGenerator", {"values": ["a", "b"], "weights": [-1, 3]}
    ),
    "dictlist-all-zero": GeneratorSpec(
        "DictListGenerator", {"values": ["a", "b"], "weights": [0, 0]}
    ),
    "long-zipf-exponent": _zipf("LongGenerator", min=1, max=100),
    "int-zipf-exponent": _zipf("IntGenerator", min=1, max=100),
    "reference-zipf-exponent": _zipf("DefaultReferenceGenerator", table="parent", field="id"),
}


class TestBadWeightsAreModelErrors:
    @pytest.mark.parametrize("spec", BAD_WEIGHTS.values(), ids=BAD_WEIGHTS.keys())
    def test_at_bind(self, spec):
        schema = Schema("bad", seed=1)
        schema.add_table(Table("parent", "10", [
            Field.of("id", "BIGINT", GeneratorSpec("IdGenerator"), primary=True),
        ]))
        schema.add_table(Table("t", "10", [Field.of("f", "BIGINT", spec)]))
        with pytest.raises(ModelError, match="non-negative|all be zero"):
            GenerationEngine(schema)

    def test_dictionary_file_with_a_negative_weight(self):
        with pytest.raises(ModelError, match="non-negative"):
            WeightedDictionary.loads('{"v": "a", "w": 1.0}\n{"v": "b", "w": -1.0}\n')
