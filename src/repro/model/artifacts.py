"""The artifact store: a model's dictionaries and Markov chains by name.

Extraction fills one, a saved project holds one on disk, and every
bound generator reads from one. Reading and writing a store touches no
generator, so this module stays free of the array kernels.
"""

from __future__ import annotations

import os

from repro.exceptions import GenerationError


class ArtifactStore:
    """Named store of model artifacts: dictionaries and Markov chains.

    Mirrors PDGF's ``dicts/`` and ``markov/`` directories: the schema XML
    references artifacts by name (``<file>markov/l_comment.bin</file>``)
    and the store resolves them, either from memory or from disk. The
    store does all artifact file I/O; an artifact only ``dumps()`` to
    and ``loads()`` from text.
    """

    def __init__(self) -> None:
        self._items: dict[str, object] = {}

    def put(self, name: str, artifact: object) -> None:
        self._items[name] = artifact

    def get(self, name: str) -> object:
        try:
            return self._items[name]
        except KeyError:
            raise GenerationError(f"unknown model artifact {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._items

    def names(self) -> list[str]:
        return sorted(self._items)

    def dumps(self) -> dict[str, str]:
        """Each artifact's serialized text by name: what :meth:`save_dir`
        writes, and what the model's fingerprint digests."""
        texts = {}
        for name in sorted(self._items):
            dumps = getattr(self._items[name], "dumps", None)
            if dumps is None:
                raise GenerationError(f"artifact {name!r} is not serializable")
            texts[name] = dumps()
        return texts

    def save_dir(self, directory: str) -> None:
        """Persist all artifacts under *directory* (one file each)."""
        os.makedirs(directory, exist_ok=True)
        for name, text in self.dumps().items():
            path = os.path.join(directory, name.replace("/", "__"))
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)

    @classmethod
    def load_dir(cls, directory: str) -> ArtifactStore:
        """Load artifacts saved by :meth:`save_dir`.

        Artifact kind is recovered from the name prefix used by the
        builders: ``dict:<column>`` vs ``markov:<column>``.
        """
        from repro.text.dictionary import WeightedDictionary
        from repro.text.markov import MarkovChain

        store = cls()
        for entry in sorted(os.listdir(directory)):
            name = entry.replace("__", "/")
            kind = MarkovChain if name.startswith("markov:") else WeightedDictionary
            with open(os.path.join(directory, entry), encoding="utf-8") as handle:
                store.put(name, kind.loads(handle.read()))
        return store
