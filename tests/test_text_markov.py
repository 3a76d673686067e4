"""Tests for Markov chain text models."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import ModelError
from repro.prng.xorshift import XorShift64Star
from repro.text.markov import END, MarkovChain, train_chain
from repro.text.tokenizer import words

CORPUS = [
    "the quick brown fox jumps over the lazy dog",
    "the quick red fox sleeps under the old tree",
    "a lazy dog dreams about the quick fox",
    "foxes and dogs rarely agree about anything",
]


def trained(order: int = 1) -> MarkovChain:
    return train_chain(CORPUS, order=order)


class TestTraining:
    def test_trained_flag(self):
        chain = MarkovChain()
        assert not chain.trained
        chain.train("hello world")
        assert chain.trained

    def test_empty_text_ignored(self):
        chain = MarkovChain()
        chain.train("")
        assert not chain.trained

    def test_vocabulary(self):
        chain = train_chain(["a b c", "b c d"])
        assert chain.vocabulary() == {"a", "b", "c", "d"}

    def test_start_states_counted(self):
        chain = train_chain(["alpha beta", "alpha gamma", "delta epsilon"])
        assert chain.num_start_states() == 2  # ("alpha",) and ("delta",)

    def test_transition_probabilities(self):
        chain = train_chain(["a b", "a b", "a c"])
        probs = chain.transition_probabilities(("a",))
        assert probs["b"] == pytest.approx(2 / 3)
        assert probs["c"] == pytest.approx(1 / 3)

    def test_end_transition_recorded(self):
        chain = train_chain(["x y"])
        assert chain.transition_probabilities(("y",)) == {END: 1.0}

    def test_order_validation(self):
        with pytest.raises(ModelError):
            MarkovChain(order=0)

    def test_train_chain_requires_content(self):
        with pytest.raises(ModelError):
            train_chain(["", "   "])

    def test_short_document_with_high_order(self):
        chain = MarkovChain(order=3)
        chain.train("ab")
        assert chain.trained


class TestGeneration:
    def test_only_trained_transitions(self):
        # Order-1 invariant: every bigram of generated text was observed.
        chain = trained()
        observed = set()
        for text in CORPUS:
            tokens = words(text)
            observed.update(zip(tokens, tokens[1:]))
        rng = XorShift64Star(9)
        for _ in range(50):
            tokens = words(chain.generate(rng, 2, 12))
            for bigram in zip(tokens, tokens[1:]):
                assert bigram in observed, bigram

    def test_word_count_bounds(self):
        chain = trained()
        rng = XorShift64Star(3)
        for _ in range(100):
            count = len(words(chain.generate(rng, 3, 7)))
            assert 3 <= count <= 7

    def test_deterministic_for_same_stream(self):
        chain = trained()
        a = XorShift64Star(42)
        b = XorShift64Star(42)
        assert [chain.generate(a, 1, 10) for _ in range(20)] == [
            chain.generate(b, 1, 10) for _ in range(20)
        ]

    def test_untrained_raises(self):
        with pytest.raises(ModelError, match="not been trained"):
            MarkovChain().generate(XorShift64Star(1))

    def test_bad_bounds(self):
        chain = trained()
        with pytest.raises(ModelError):
            chain.generate(XorShift64Star(1), 0, 5)
        with pytest.raises(ModelError):
            chain.generate(XorShift64Star(1), 5, 2)

    def test_order_two_trigram_invariant(self):
        chain = train_chain(CORPUS, order=2)
        observed = set()
        for text in CORPUS:
            tokens = words(text)
            observed.update(zip(tokens, tokens[1:], tokens[2:]))
        rng = XorShift64Star(8)
        for _ in range(30):
            tokens = words(chain.generate(rng, 3, 9))
            for trigram in zip(tokens, tokens[1:], tokens[2:]):
                assert trigram in observed, trigram

    def test_sentinel_never_emitted(self):
        chain = trained()
        rng = XorShift64Star(77)
        for _ in range(100):
            assert END not in words(chain.generate(rng, 1, 20))


class TestMerge:
    def test_merge_equivalent_to_joint_training(self):
        joint = train_chain(CORPUS)
        left = train_chain(CORPUS[:2])
        right = train_chain(CORPUS[2:])
        left.merge(right)
        assert left.dumps() == joint.dumps()

    def test_merge_order_mismatch(self):
        with pytest.raises(ModelError):
            train_chain(CORPUS).merge(train_chain(CORPUS, order=2))


class TestSerialization:
    def test_round_trip(self):
        chain = trained()
        restored = MarkovChain.loads(chain.dumps())
        assert restored.dumps() == chain.dumps()
        assert restored.order == chain.order

    def test_round_trip_generates_identically(self):
        chain = trained()
        restored = MarkovChain.loads(chain.dumps())
        a = XorShift64Star(5)
        b = XorShift64Star(5)
        assert [chain.generate(a, 1, 8) for _ in range(20)] == [
            restored.generate(b, 1, 8) for _ in range(20)
        ]

    def test_file_round_trip(self, tmp_path):
        from repro.model.artifacts import ArtifactStore

        chain = trained()
        store = ArtifactStore()
        store.put("markov:m", chain)
        store.save_dir(str(tmp_path / "artifacts"))
        restored = ArtifactStore.load_dir(str(tmp_path / "artifacts"))
        assert restored.get("markov:m").dumps() == chain.dumps()

    def test_bad_payload(self):
        with pytest.raises(ModelError):
            MarkovChain.loads("not json at all")
        with pytest.raises(ModelError):
            MarkovChain.loads('{"order": 1}')

    @pytest.mark.parametrize("payload", [
        {"transitions": [[["a"], [["b", -3]]]]},
        {"transitions": [[["a"], [["b", 0]]]]},
        {"starts": [[["a"], 0]]},
        {"starts": [[["a"], 1.5]]},
        {"starts": [[["a"], True]]},
        {"starts": [[["a"], "2"]]},
        {"starts": [[["a"], 2**63]]},
        {"starts": [[["a", "b"], 1]]},  # longer than order
        {"starts": [[[], 1]]},
        {"starts": [["a", 1]]},  # a bare string, not a list
        {"starts": [[[7], 1]]},  # a non-string token
        {"transitions": [[["a", "b"], [["c", 1]]]]},
        {"transitions": [[["a"], [[None, 1]]]]},
        {"order": 0},
        {"order": "1"},
    ], ids=repr)
    def test_hostile_payload_is_a_model_error(self, payload):
        text = json.dumps({
            "order": 1, "starts": [[["a"], 2]], "transitions": [[["a"], [["b", 1]]]],
            **payload,
        })
        with pytest.raises(ModelError, match="bad Markov chain serialization"):
            MarkovChain.loads(text)


class TestPaperScale:
    def test_tpch_comment_model_size_class(self):
        # Paper §3: the TPC-H comment model has ~1500 words and 95
        # starting states and easily fits in memory. Our dbgen-grammar
        # corpus lands in the same order of magnitude.
        from repro.suites.tpch.schema import tpch_artifacts, COMMENT_MODEL

        chain = tpch_artifacts().get(COMMENT_MODEL)
        assert 50 <= len(chain.vocabulary()) <= 5000
        assert chain.num_start_states() >= 10
