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

Training, serialization and the scalar walk are plain Python, so
extraction runs without numpy; :class:`ChainTables`, the block kernel,
imports it where it builds its arrays.
"""

from __future__ import annotations

import json
import threading
from collections import Counter, defaultdict
from typing import Iterable, Sequence

from repro.exceptions import ModelError
from repro.prng.distributions import Categorical, RandomSource, guide_table, lookup
from repro.text.tokenizer import words as tokenize

END = "\x00END"  # sentinel token marking end-of-text transitions

#: whole-text retries before :meth:`MarkovChain.generate` settles for the
#: longest attempt (shared by the scalar loop and the lockstep kernel)
_MAX_ATTEMPTS = 20

#: serializes the one-time :class:`ChainTables` build of any chain (a
#: per-chain lock would have to be dropped from every pickle)
_TABLES_LOCK = threading.Lock()

#: added to a row's write slot when its text ends, so one compare with
#: the row's limit finds every ended row (far above any row width)
_ENDED = 1 << 32


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
        # to worker processes, rebuilt there on first use.
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
                token = END if sampler is None else sampler.sample(rng)
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
        """A chain from :meth:`dumps` text. Every state must be a list of
        exactly ``order`` string tokens and every count a positive
        integer; anything else is a :class:`ModelError`, never a crash
        later in sampling."""
        try:
            payload = json.loads(text)
            chain = cls(order=_positive(payload["order"], "order"))
            for state, count in payload["starts"]:
                chain._starts[_state(state, chain.order)] = _positive(count, "count")
            for state, items in payload["transitions"]:
                counter = chain._transitions[_state(state, chain.order)]
                for token, count in items:
                    if not isinstance(token, str):
                        raise ValueError(f"token {token!r} is not a string")
                    counter[token] = _positive(count, "count")
        except (ValueError, KeyError, TypeError) as exc:
            raise ModelError(f"bad Markov chain serialization: {exc}") from exc
        return chain


def _state(value: object, order: int) -> tuple[str, ...]:
    """A serialized state: a list of exactly *order* string tokens."""
    if not (
        isinstance(value, list)
        and len(value) == order
        and all(isinstance(token, str) for token in value)
    ):
        raise ValueError(f"state {value!r} is not a list of {order} string tokens")
    return tuple(value)


def _positive(value: object, what: str) -> int:
    """A serialized order or count: an ``int`` in [1, 2**63). No observed
    count comes near the bound; one past float range would crash the
    sampler's weights."""
    if type(value) is not int or not 1 <= value < 1 << 63:
        raise ValueError(f"{what} {value!r} is not a positive 64-bit integer")
    return value


class ChainTables:
    """A trained chain as flat arrays: :meth:`MarkovChain.generate` for a
    whole row block at a time, one PRNG draw per row per step.

    Every sampler of the chain becomes one *segment* of a flat choice
    list — one segment per state that has transitions, plus the start
    sampler as the last segment — holding the :class:`Categorical`'s own
    values in its own order. A choice carries the token ids it appends
    (none for END, up to ``order`` for a start state), the segment it
    leads to, and whether the text ends there: END was drawn, or the next
    state has no transitions, which the scalar loop turns into END
    *without* a draw. A choice that ends the text leads to the start
    segment, where a retry begins.

    Each segment's :func:`~repro.prng.distributions.guide_table` is built
    from the sampler's own CDF and concatenated, so a draw is the
    sampler's ``bisect_left`` through the shared
    :func:`~repro.prng.distributions.lookup`: the guide has at most 2 ×
    choices entries, and on the TPC-H comment chain 3 draws in 4 need no
    scan step and 1 in 300 needs two.
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
        import numpy as _np

        token_id = {token: index for index, token in enumerate(vocabulary)}
        pad = len(vocabulary)
        states = [state for state, counter in chain._transitions.items() if counter]
        state_id = {state: index for index, state in enumerate(states)}
        samplers = [chain._transition_categorical(state) for state in states]
        samplers.append(chain._start_categorical())
        start = len(states)
        self.order = order

        # per segment: where its guide begins, and the shift that takes a
        # raw output to its bucket; per choice: threshold, appended token
        # ids, next segment
        guide: list[int] = []
        segment_at: list[int] = []
        segment_shift: list[int] = []
        below: list[int] = []
        tokens: list[list[int]] = []
        following: list[int] = []
        for segment, sampler in enumerate(samplers):
            own_guide, own_below, shift = guide_table(sampler.cdf)
            segment_at.append(len(guide))
            segment_shift.append(shift)
            guide.extend(len(below) + entry for entry in own_guide)
            below.extend(own_below)
            for value in sampler.values:
                if segment == start:
                    tokens.append([token_id[token] for token in value if token != END])
                    following.append(state_id.get(value, start))
                elif value == END:
                    tokens.append([])
                    following.append(start)
                else:
                    tokens.append([token_id[value]])
                    following.append(
                        state_id.get(states[segment][1:] + (value,), start)
                    )

        #: narrowest id type, so a 10 000-row token matrix stays small
        self.token_dtype = _np.min_scalar_type(pad)
        self.pad = pad
        #: row ``j``: the ``j``-th token id each choice appends (pad if none)
        self.choice_tokens = _np.full((order, len(tokens)), pad, dtype=self.token_dtype)
        for index, emitted in enumerate(tokens):
            self.choice_tokens[: len(emitted), index] = emitted
        #: how far a choice moves its row's write slot: the tokens it
        #: appends, plus ``_ENDED`` when the text ends there
        self.choice_advance = _np.array(
            [len(t) + _ENDED * (n == start) for t, n in zip(tokens, following)],
            dtype=_np.int64,
        )
        self.guide = _np.array(guide, dtype=_np.intp)
        self.below = _np.array(below, dtype=_np.uint64)
        self.segment_at = _np.array(segment_at, dtype=_np.uint64)
        self.segment_shift = _np.array(segment_shift, dtype=_np.uint64)
        #: the next segment's guide offset and shift, per choice
        self.next_at = self.segment_at[following]
        self.next_shift = self.segment_shift[following]

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
        #: like ``choice_tokens``, each token's length plus its following
        #: space (0 for a pad): a row's running sum is the offset just
        #: past its last space
        word_span = _np.array([len(word) + 1 for word in vocabulary] + [0], dtype=_np.int64)
        self.choice_span = word_span[self.choice_tokens.astype(_np.intp)]
        #: every character a generated text can contain
        self.charset = frozenset("".join(vocabulary) + " ")

    def sample(self, states, min_words: int, max_words: int, max_chars: int | None = None):
        """Generate one text per PRNG state in *states* (a ``uint64``
        array, one live xorshift64* state per row), clipped to
        *max_chars* like ``MarkovChainGenerator.generate``: a longer text
        is cut there and then back to the last word boundary before the
        cut.

        Returns ``(tokens, counts, cut, exhausted, ends)``: a token-id
        matrix whose row ``r`` holds that row's kept words in its first
        ``counts[r]`` columns (later columns are unspecified), the
        offsets of rows whose first word is itself cut at *max_chars*,
        the offsets of rows that were still shorter than *min_words*
        after the last retry — the caller recomputes those few through
        the scalar path, which keeps the longest attempt — and each
        row's PRNG state after its last draw, where
        :meth:`MarkovChain.generate` leaves the stream (an exhausted
        row's entry is unspecified).
        """
        import numpy as _np

        from repro.prng import blocks

        count = len(states)
        # a start state appends up to ``order`` tokens to an empty text
        width = max_words + self.order
        tokens = _np.full((count, width), self.pad, dtype=self.token_dtype)
        flat = tokens.reshape(-1)
        counts = _np.zeros(count, dtype=_np.int64)
        cut = _np.zeros(count, dtype=bool)
        ends = states.copy()
        exhausted: list[int] = []
        clip = max_chars is not None

        # per still-active row: block offset, PRNG state, next free slot
        # of ``flat``, the slot at which it holds max_words, its segment's
        # guide offset and bucket shift, attempts used; with a clip, the
        # offset just past its last space and how many of its words end
        # before max_chars
        rows = _np.arange(count, dtype=_np.int64)
        rng = states
        slot = rows * width
        limit = slot + max_words
        at = _np.full(count, self.segment_at[-1], dtype=_np.uint64)
        shift = _np.full(count, self.segment_shift[-1], dtype=_np.uint64)
        attempts = _np.zeros(count, dtype=_np.int64)
        chars = _np.zeros(count, dtype=_np.int64)
        fit = _np.zeros(count, dtype=_np.int64)
        appended, span = self.choice_tokens, self.choice_span
        while len(rows):
            rng, outputs = blocks.xorshift_step(rng)
            choice = lookup(self.guide, self.below, outputs, at, shift)
            # every choice writes ``order`` cells from the free slot: its
            # tokens, then pad ids (all pads for END), which the row's
            # later words overwrite; an active row holds fewer than
            # max_words words, so the cells stay inside its row
            flat[slot] = appended[0][choice]
            if clip:
                chars += span[0][choice]
                # the first cell is a pad only for END, so a pad step
                # counts one word too many only on a text that ends
                # within max_chars, which keeps all its words anyway
                fit += chars <= max_chars
            for extra in range(1, self.order):
                flat[slot + extra] = appended[extra][choice]
                if clip:
                    # pads and words past max_words are not part of the text
                    step = _np.where(slot + extra < limit, span[extra][choice], 0)
                    chars += step
                    fit += (chars <= max_chars) & (step > 0)
            slot += self.choice_advance[choice]
            at, shift = self.next_at[choice], self.next_shift[choice]
            ended = slot >= limit
            if not ended.any():
                continue
            length = (slot - limit + max_words) % _ENDED
            done = ended & (length >= min_words)
            kept = _np.minimum(length[done], max_words)
            if clip:
                # the text is ``chars - 1`` long; an over-long one keeps
                # the words before its last space within the cut
                over = chars[done] > max_chars + 1
                kept = _np.where(over, _np.maximum(fit[done], 1), kept)
                cut[rows[done]] = over & (fit[done] == 0)
            counts[rows[done]] = kept
            ends[rows[done]] = rng[done]
            retry = ended & ~done
            if retry.any():
                attempts = attempts + retry
                spent = retry & (attempts >= _MAX_ATTEMPTS)
                exhausted.extend(rows[spent].tolist())
                retry &= ~spent
                slot[retry] = limit[retry] - max_words
                chars[retry] = 0
                fit[retry] = 0
            active = _np.flatnonzero(~ended | retry)
            rows, rng, slot, limit = rows[active], rng[active], slot[active], limit[active]
            at, shift, attempts = at[active], shift[active], attempts[active]
            chars, fit = chars[active], fit[active]
        return tokens, counts, _np.nonzero(cut)[0].tolist(), exhausted, ends

    def join(self, tokens, counts, cut, max_chars: int | None) -> list[str]:
        """The texts of a :meth:`sample` result: each row's kept words
        joined by single spaces, and the rows in *cut* (one word each)
        cut to *max_chars*."""
        import numpy as _np

        # one flat piece list, row-major, each row opened by its "\n"
        # piece (forced for a row without words, so rows stay aligned)
        kept = _np.arange(tokens.shape[1]) < counts[:, None]
        kept[:, 0] = True
        index = tokens.astype(self.piece_dtype)
        index[:, 1:] += self.pad + 1
        pieces = self.pieces[index[kept]].tolist()
        del index, kept  # the matrices are dead weight under the strings
        texts = "".join(pieces).split("\n")[1:]
        for offset in cut:
            texts[offset] = texts[offset][:max_chars]
        return texts


def train_chain(texts: Sequence[str], order: int = 1) -> MarkovChain:
    """Convenience: build and train a chain in one call."""
    chain = MarkovChain(order=order)
    chain.train_all(texts)
    if not chain.trained:
        raise ModelError("no non-empty texts to train a Markov chain on")
    return chain
