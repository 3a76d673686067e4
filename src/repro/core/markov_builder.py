"""Markov model construction from sampled free text.

"If the text data contains multiple words, DBSynth uses a Markov chain
generator, which analyzes the word combination frequencies and
probabilities. These are stored and linked to the data model."
(paper §3). The builder also derives the generator's word-count bounds
from the sampled texts, matching "the parameters for the Markov model
are adjusted based on the original data".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.extraction import ExtractedSchema
from repro.core.sampling import ColumnSampler, SampleConfig
from repro.db.adapter import DatabaseAdapter
from repro.exceptions import ExtractionError
from repro.generators.base import ArtifactStore
from repro.text.markov import MarkovChain
from repro.text.tokenizer import words


def markov_artifact_name(table: str, column: str) -> str:
    return f"markov:{table}.{column}"


@dataclass(frozen=True)
class MarkovBuildResult:
    """The trained chain plus the derived generator parameters."""

    chain: MarkovChain
    min_words: int
    max_words: int
    vocabulary_size: int
    start_states: int


class MarkovBuilder:
    """Trains Markov chains for free-text columns."""

    def __init__(
        self,
        adapter: DatabaseAdapter,
        config: SampleConfig | None = None,
        order: int = 1,
        seed: int = 0,
    ) -> None:
        self.sampler = ColumnSampler(adapter, seed)
        self.config = config or SampleConfig()
        self.order = order

    def build(
        self,
        extracted: ExtractedSchema,
        table: str,
        column: str,
        artifacts: ArtifactStore,
    ) -> MarkovBuildResult:
        """Sample, train, store, and return the model with parameters."""
        texts = self.sampler.sample(extracted, table, column, self.config)
        texts = [t for t in texts if t.strip()]
        if not texts:
            raise ExtractionError(
                f"no sampled text for {table}.{column}; cannot build Markov model"
            )
        chain = MarkovChain(order=self.order)
        lengths = []
        for text in texts:
            chain.train(text)
            lengths.append(len(words(text)))
        result = MarkovBuildResult(
            chain=chain,
            min_words=max(min(lengths), 1),
            max_words=max(lengths),
            vocabulary_size=len(chain.vocabulary()),
            start_states=chain.num_start_states(),
        )
        artifacts.put(markov_artifact_name(table, column), chain)
        return result
