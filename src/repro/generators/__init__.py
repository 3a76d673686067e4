"""PDGF field value generators.

Simple generators (ids, numbers, dates, strings, dictionaries,
references) and meta generators (null wrapper, sequential concatenation,
probability/switch, formula) that stack into complex values, plus the
Markov text generator and the high-level semantic generators.
"""

from repro.generators.base import BindContext, GenerationContext, Generator
from repro.generators.registry import build, build_bound, known_generators, register
from repro.model.artifacts import ArtifactStore

__all__ = [
    "ArtifactStore",
    "BindContext",
    "GenerationContext",
    "Generator",
    "build",
    "build_bound",
    "known_generators",
    "register",
]
