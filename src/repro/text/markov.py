"""Markov chain text models.

The paper's headline value-level feature: DBSynth samples free-text
columns, analyzes "word combination frequencies and probabilities"
(paper §3), and stores a Markov model that PDGF's MarkovChainGenerator
replays. For TPC-H's comment column the paper reports ~1500 words and 95
starting states — small enough to keep in memory, which this
implementation also relies on.

The model is an order-``k`` chain over word tokens: states are ``k``-token
tuples, transitions carry observed counts, and a separate weighted set of
*starting states* seeds each generated text. Serialization is JSON so
models ship alongside the schema XML like PDGF's ``markov/*.bin`` files.
"""

from __future__ import annotations

import json
import threading
from collections import Counter, defaultdict
from typing import Iterable, Sequence

import numpy as _np

from repro.exceptions import ModelError
from repro.prng import blocks
from repro.prng.distributions import Categorical, RandomSource
from repro.text.tokenizer import words as tokenize

END = "\x00END"  # sentinel token marking end-of-text transitions

#: whole-text retries before :meth:`MarkovChain.generate` settles for the
#: longest attempt (shared by the scalar loop and the lockstep kernel)
_MAX_ATTEMPTS = 20

#: serializes the one-time :class:`ChainTables` build of any chain (a
#: per-chain lock would have to be dropped from every pickle)
_TABLES_LOCK = threading.Lock()


class MarkovChain:
    """An order-``k`` Markov model over word tokens.

    Build with :meth:`train`; generate with :meth:`generate`. The chain
    stores raw counts so that training is mergeable (scale-out extraction
    can profile partitions independently and merge)."""

    def __init__(self, order: int = 1) -> None:
        if order < 1:
            raise ModelError(f"Markov order must be >= 1, got {order}")
        self.order = order
        self._starts: Counter[tuple[str, ...]] = Counter()
        self._transitions: dict[tuple[str, ...], Counter[str]] = defaultdict(Counter)
        self._start_sampler: Categorical | None = None
        self._transition_samplers: dict[tuple[str, ...], Categorical] = {}
        self._tables: ChainTables | None = None

    def __getstate__(self) -> dict:
        # The flattened tables are a cache over the counts: never shipped
        # to worker processes or cluster nodes, rebuilt there on first use.
        state = dict(self.__dict__)
        state["_tables"] = None
        return state

    # -- training ----------------------------------------------------------

    def train(self, text: str) -> None:
        """Add one document's transitions to the model."""
        tokens = tokenize(text)
        if not tokens:
            return
        if len(tokens) < self.order:
            # Short document: record it as a start state padded with END.
            state = tuple(tokens) + (END,) * (self.order - len(tokens))
            self._starts[state] += 1
            self._invalidate()
            return
        start = tuple(tokens[: self.order])
        self._starts[start] += 1
        for i in range(len(tokens) - self.order):
            state = tuple(tokens[i : i + self.order])
            self._transitions[state][tokens[i + self.order]] += 1
        tail = tuple(tokens[len(tokens) - self.order :])
        self._transitions[tail][END] += 1
        self._invalidate()

    def train_all(self, texts: Iterable[str]) -> None:
        for text in texts:
            self.train(text)

    def merge(self, other: "MarkovChain") -> None:
        """Merge another chain's counts into this one (partition merge)."""
        if other.order != self.order:
            raise ModelError(
                f"cannot merge order-{other.order} into order-{self.order} chain"
            )
        self._starts.update(other._starts)
        for state, counter in other._transitions.items():
            self._transitions[state].update(counter)
        self._invalidate()

    def _invalidate(self) -> None:
        self._start_sampler = None
        self._transition_samplers.clear()
        self._tables = None

    # -- statistics --------------------------------------------------------

    @property
    def trained(self) -> bool:
        return bool(self._starts)

    def vocabulary(self) -> set[str]:
        vocab: set[str] = set()
        for state in self._starts:
            vocab.update(t for t in state if t != END)
        for state, counter in self._transitions.items():
            vocab.update(t for t in state if t != END)
            vocab.update(t for t in counter if t != END)
        return vocab

    def num_states(self) -> int:
        return len(self._transitions)

    def num_start_states(self) -> int:
        return len(self._starts)

    def transition_probabilities(self, state: tuple[str, ...]) -> dict[str, float]:
        counter = self._transitions.get(tuple(state))
        if not counter:
            return {}
        total = sum(counter.values())
        return {token: count / total for token, count in counter.items()}

    # -- generation --------------------------------------------------------

    def _start_categorical(self) -> Categorical:
        if self._start_sampler is None:
            if not self._starts:
                raise ModelError("Markov chain has not been trained")
            items = sorted(self._starts.items(), key=lambda kv: (-kv[1], kv[0]))
            self._start_sampler = Categorical(
                [state for state, _ in items], [count for _, count in items]
            )
        return self._start_sampler

    def _transition_categorical(self, state: tuple[str, ...]) -> Categorical | None:
        sampler = self._transition_samplers.get(state)
        if sampler is None:
            counter = self._transitions.get(state)
            if not counter:
                return None
            items = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
            sampler = Categorical(
                [token for token, _ in items], [count for _, count in items]
            )
            self._transition_samplers[state] = sampler
        return sampler

    def generate(
        self, rng: RandomSource, min_words: int = 1, max_words: int = 50
    ) -> str:
        """Generate one text of between *min_words* and *max_words* tokens.

        Generation follows observed transitions; it stops early at an END
        transition once *min_words* is reached, and re-seeds from a start
        state if it hits END before that.
        """
        if min_words < 1 or max_words < min_words:
            raise ModelError(f"bad word bounds [{min_words}, {max_words}]")
        # Retry whole texts that end before min_words instead of splicing
        # a new start state onto the tail: splicing would create token
        # adjacencies never observed in training, breaking the invariant
        # that generated text only contains trained transitions.
        best: list[str] = []
        for _attempt in range(_MAX_ATTEMPTS):
            out: list[str] = []
            state = tuple(self._start_categorical().sample(rng))  # type: ignore[arg-type]
            out.extend(t for t in state if t != END)
            while len(out) < max_words:
                sampler = self._transition_categorical(state)
                token = sampler.sample(rng) if sampler else END
                if token == END:
                    break
                out.append(str(token))
                state = state[1:] + (str(token),)
            if len(out) >= min_words:
                return " ".join(out[:max_words])
            if len(out) > len(best):
                best = out
        # Every trained text is shorter than min_words; return the longest
        # attempt rather than looping forever.
        return " ".join(best[:max_words])

    def block_tables(self) -> "ChainTables":
        """The chain flattened for block generation (see
        :class:`ChainTables`) — built on first use, once per chain however
        many columns and worker threads share it, and published by a
        single assignment so readers never see a half-built table."""
        tables = self._tables
        if tables is None:
            with _TABLES_LOCK:
                tables = self._tables
                if tables is None:
                    tables = self._tables = ChainTables(self)
        return tables

    # -- serialization -----------------------------------------------------

    def dumps(self) -> str:
        payload = {
            "order": self.order,
            "starts": [[list(state), count] for state, count in sorted(self._starts.items())],
            "transitions": [
                [list(state), sorted(counter.items())]
                for state, counter in sorted(self._transitions.items())
            ],
        }
        return json.dumps(payload)

    @classmethod
    def loads(cls, text: str) -> "MarkovChain":
        try:
            payload = json.loads(text)
            chain = cls(order=int(payload["order"]))
            for state, count in payload["starts"]:
                chain._starts[tuple(state)] = int(count)
            for state, items in payload["transitions"]:
                counter = chain._transitions[tuple(state)]
                for token, count in items:
                    counter[token] = int(count)
        except (ValueError, KeyError, TypeError) as exc:
            raise ModelError(f"bad Markov chain serialization: {exc}") from exc
        return chain

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.dumps())

    @classmethod
    def load(cls, path: str) -> "MarkovChain":
        with open(path, encoding="utf-8") as handle:
            return cls.loads(handle.read())


class ChainTables:
    """A trained chain as flat arrays: :meth:`MarkovChain.generate` for a
    whole row block at a time, one PRNG draw per row per step.

    Every sampler of the chain becomes one *segment* of a flat choice
    list — one segment per state that has transitions, plus the start
    sampler as the pseudo-state ``start`` — holding the
    :class:`Categorical`'s own values in its own order. A choice carries
    the token ids it appends (none for END, up to ``order`` for a start
    state), the state it leads to, and whether the text ends there: END
    was drawn, or the next state has no transitions, which the scalar
    loop turns into END *without* a draw.

    The lookup is ``bisect_left`` on the same CDF floats, in two exact
    steps: ``rank`` = how many of the chain's distinct CDF values are
    below the draw, then ``searchsorted`` over ``segment * stride +
    rank-of-cdf`` integer keys — a CDF entry is below the draw exactly
    when its rank is below the draw's.
    """

    def __init__(self, chain: MarkovChain) -> None:
        order = chain.order
        vocabulary = sorted(chain.vocabulary())
        #: word-boundary arithmetic only holds for non-empty tokens free
        #: of spaces and newlines (always true of trained chains, not of
        #: hand-written JSON); other chains get no tables, only this flag
        self.plain = all(
            word and " " not in word and "\n" not in word for word in vocabulary
        )
        if not self.plain:
            return
        token_id = {token: index for index, token in enumerate(vocabulary)}
        pad = len(vocabulary)
        states = [state for state, counter in chain._transitions.items() if counter]
        state_id = {state: index for index, state in enumerate(states)}
        dead = len(states)
        self.order = order
        self.start = dead + 1

        # (segment, cdf entry, appended token ids, next state id) per choice
        choices: list[tuple[int, float, list[int], int]] = []
        for state in states:
            sampler = chain._transition_categorical(state)
            for token, cdf in zip(sampler.values, sampler.cdf):
                if token == END:
                    choices.append((state_id[state], cdf, [], dead))
                else:
                    following = state_id.get(state[1:] + (token,), dead)
                    choices.append((state_id[state], cdf, [token_id[token]], following))
        sampler = chain._start_categorical()
        for state, cdf in zip(sampler.values, sampler.cdf):
            emitted = [token_id[token] for token in state if token != END]
            choices.append((self.start, cdf, emitted, state_id.get(state, dead)))
        segments, cdf, tokens, following = zip(*choices)

        #: narrowest id type, so a 10 000-row token matrix stays small
        self.token_dtype = _np.min_scalar_type(pad)
        self.pad = pad
        self.choice_count = _np.array([len(t) for t in tokens], dtype=_np.int64)
        self.choice_tokens = _np.full((len(tokens), order), pad, dtype=self.token_dtype)
        for index, emitted in enumerate(tokens):
            self.choice_tokens[index, : len(emitted)] = emitted
        self.choice_next = _np.array(following, dtype=_np.int64)
        self.choice_ends = self.choice_next == dead

        flat_cdf = _np.array(cdf, dtype=_np.float64)
        # (not np.unique: it imports numpy.ma on first use, 2 MB of RSS)
        self.cdf_values = _np.array(sorted(set(cdf)), dtype=_np.float64)
        self.stride = len(self.cdf_values) + 1
        self.keys = (
            _np.array(segments, dtype=_np.int64) * self.stride
            + _np.searchsorted(self.cdf_values, flat_cdf)
        )

        # join tables: a word as the piece that opens a row ("\n" + word,
        # the pad id opening an empty one) and as a piece that follows
        # (" " + word)
        self.pieces = _np.array(
            ["\n" + word for word in vocabulary]
            + ["\n"]
            + [" " + word for word in vocabulary],
            dtype=object,
        )
        self.piece_dtype = _np.min_scalar_type(len(self.pieces))
        self.word_length = _np.array(
            [len(word) for word in vocabulary] + [0], dtype=_np.int32
        )
        #: every character a generated text can contain
        self.charset = frozenset("".join(vocabulary) + " ")

    def sample(self, states, min_words: int, max_words: int):
        """Generate one text per PRNG state in *states* (a ``uint64``
        array, one live xorshift64* state per row).

        Returns ``(tokens, counts, exhausted)``: a token-id matrix whose
        row ``r`` holds that row's text in its first ``counts[r]``
        columns (later columns are unspecified), and the offsets of rows
        that were still shorter than *min_words* after the last retry —
        the caller recomputes those few through the scalar path, which
        keeps the longest attempt.
        """
        count = len(states)
        # a start state appends up to ``order`` tokens to an empty text
        width = max_words + self.order
        tokens = _np.full((count, width), self.pad, dtype=self.token_dtype)
        flat = tokens.reshape(-1)
        counts = _np.zeros(count, dtype=_np.int64)
        exhausted: list[int] = []

        # per still-active row: block offset, PRNG state, chain state,
        # words so far, attempts used
        rows = _np.arange(count, dtype=_np.int64)
        rng = states
        state = _np.full(count, self.start, dtype=_np.int64)
        length = _np.zeros(count, dtype=_np.int64)
        attempts = _np.zeros(count, dtype=_np.int64)
        cdf_values, keys, stride = self.cdf_values, self.keys, self.stride
        while len(rows):
            rng, outputs = blocks.xorshift_step(rng)
            rank = _np.searchsorted(cdf_values, blocks.to_doubles(outputs))
            choice = _np.searchsorted(keys, state * stride + rank)
            # an END choice writes the pad id into the free next slot
            slot = rows * width + length
            flat[slot] = self.choice_tokens[choice, 0]
            emitted = self.choice_count[choice]
            for extra in range(1, self.order):
                more = emitted > extra
                if more.any():
                    flat[slot[more] + extra] = self.choice_tokens[choice[more], extra]
            length = length + emitted
            state = self.choice_next[choice]
            ended = self.choice_ends[choice] | (length >= max_words)
            if not ended.any():
                continue
            done = ended & (length >= min_words)
            counts[rows[done]] = _np.minimum(length[done], max_words)
            retry = ended & ~done
            if retry.any():
                attempts = attempts + retry
                spent = retry & (attempts >= _MAX_ATTEMPTS)
                exhausted.extend(rows[spent].tolist())
                retry &= ~spent
                state[retry] = self.start
                length[retry] = 0
            active = ~ended | retry
            rows, rng, state = rows[active], rng[active], state[active]
            length, attempts = length[active], attempts[active]
        return tokens, counts, exhausted

    def join(self, tokens, counts, max_chars: int | None) -> list[str]:
        """The texts of a :meth:`sample` result, words joined by single
        spaces and clipped like ``MarkovChainGenerator.generate``: a text
        longer than *max_chars* is cut there and then back to the last
        word boundary before the cut."""
        kept, cut_words = self._kept_words(tokens, counts, max_chars)
        # one flat piece list, row-major, each row opened by its "\n"
        # piece (forced for a row without words, so rows stay aligned)
        kept[:, 0] = True
        index = tokens.astype(self.piece_dtype)
        index[:, 1:] += self.pad + 1
        pieces = self.pieces[index[kept]].tolist()
        del index, kept  # the matrices are dead weight under the strings
        texts = "".join(pieces).split("\n")[1:]
        for offset in cut_words:
            texts[offset] = texts[offset][:max_chars]
        return texts

    def _kept_words(self, tokens, counts, max_chars: int | None):
        """Which cells of *tokens* survive the clip to *max_chars* (a
        boolean matrix), and the rows whose first word itself is cut."""
        width = tokens.shape[1]
        position = _np.arange(width, dtype=_np.int32)
        kept = position < counts[:, None]
        if max_chars is None:
            return kept, ()
        # ends[r, j]: offset of the space that follows word j of row r
        # (one int32 matrix, reused in place: lengths, running sum, ends)
        ends = self.word_length[tokens]
        ends *= kept
        _np.cumsum(ends, axis=1, out=ends)
        ends += position
        over = ends[:, -1] - (width - counts) > max_chars
        if not over.any():
            return kept, ()
        # ``rfind(" ")`` within the cut: the last separator that starts
        # before max_chars; the words before it survive
        fit = ((ends < max_chars) & (position < counts[:, None] - 1)).sum(axis=1)
        keep = _np.where(over, _np.maximum(fit, 1), counts)
        # no separator in reach: the first word itself is cut
        return position < keep[:, None], _np.nonzero(over & (fit == 0))[0].tolist()


def train_chain(texts: Sequence[str], order: int = 1) -> MarkovChain:
    """Convenience: build and train a chain in one call."""
    chain = MarkovChain(order=order)
    chain.train_all(texts)
    if not chain.trained:
        raise ModelError("no non-empty texts to train a Markov chain on")
    return chain
