"""Dictionary construction from sampled data.

"the data extraction tool builds histograms and dictionaries of
text-valued data and stores the according probabilities for values"
(paper §3). The builder samples a column, counts frequencies, and
stores the resulting :class:`WeightedDictionary` in the artifact store
under ``dict:<table>.<column>``.
"""

from __future__ import annotations

from repro.core.extraction import ExtractedSchema
from repro.core.sampling import ColumnSampler, SampleConfig
from repro.db.adapter import DatabaseAdapter
from repro.exceptions import ExtractionError
from repro.generators.base import ArtifactStore
from repro.text.dictionary import WeightedDictionary


def dictionary_artifact_name(table: str, column: str) -> str:
    return f"dict:{table}.{column}"


class DictionaryBuilder:
    """Builds frequency-weighted dictionaries for categorical columns."""

    def __init__(
        self,
        adapter: DatabaseAdapter,
        config: SampleConfig | None = None,
        seed: int = 0,
    ):
        self.sampler = ColumnSampler(adapter, seed)
        self.config = config or SampleConfig()

    def build(
        self,
        extracted: ExtractedSchema,
        table: str,
        column: str,
        artifacts: ArtifactStore,
    ) -> WeightedDictionary:
        """Sample, build, store, and return the dictionary."""
        values = self.sampler.sample(extracted, table, column, self.config)
        if not values:
            raise ExtractionError(
                f"no sampled values for {table}.{column}; cannot build dictionary"
            )
        dictionary = WeightedDictionary.from_values(values)
        artifacts.put(dictionary_artifact_name(table, column), dictionary)
        return dictionary
