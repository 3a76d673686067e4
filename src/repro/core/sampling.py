"""Sampling configuration and execution.

"Users can specify the amount of data sampled and the sampling strategy"
(paper §3). A :class:`SampleConfig` names the strategy and fraction; the
sampler runs it through the adapter and records the time in the
extraction's sampling phase (the §4 experiment sweeps the fraction from
0.001% to 100%).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.extraction import ExtractedSchema
from repro.db.adapter import DatabaseAdapter
from repro.exceptions import ExtractionError
from repro.obs import timed

_STRATEGIES = ("bernoulli", "first", "systematic")


@dataclass(frozen=True)
class SampleConfig:
    """How to sample a text column for dictionaries / Markov chains.

    ``fraction`` ∈ (0, 1]; ``strategy`` per the adapter's sampling modes;
    ``max_values`` caps memory for huge tables; ``min_values`` falls back
    to a first-N scan when a tiny fraction of a small table would return
    nothing.
    """

    fraction: float = 0.01
    strategy: str = "bernoulli"
    max_values: int | None = 100_000
    min_values: int = 50

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise ExtractionError(f"sample fraction {self.fraction} outside (0, 1]")
        if self.strategy not in _STRATEGIES:
            raise ExtractionError(
                f"unknown strategy {self.strategy!r}; known: {', '.join(_STRATEGIES)}"
            )
        if self.min_values < 0:
            raise ExtractionError("min_values must be >= 0")


class ColumnSampler:
    """Samples text columns, timing the work into the extraction."""

    def __init__(self, adapter: DatabaseAdapter, seed: int = 0) -> None:
        self.adapter = adapter
        self.seed = seed

    def sample(
        self,
        extracted: ExtractedSchema,
        table: str,
        column: str,
        config: SampleConfig | None = None,
    ) -> list[str]:
        """Sampled non-NULL values as strings."""
        config = config or SampleConfig()
        with timed("extraction.sample", table=table, column=column) as phase:
            values = self.adapter.sample_column(
                table,
                column,
                fraction=config.fraction,
                limit=config.max_values,
                strategy=config.strategy,
                seed=self.seed,
            )
            if len(values) < config.min_values:
                # Fraction too small for this table: top up with a first-N
                # scan so the dictionary/Markov builders always have signal.
                values = self.adapter.sample_column(
                    table, column, fraction=1.0, limit=max(config.min_values, 1),
                    strategy="first",
                )
            phase.set(values=len(values))
        extracted.timings.sampling_seconds += phase.seconds
        return [str(v) for v in values if v is not None]
