"""Generator registry: spec name → generator class.

The XML schema references generators by element name (``gen_IdGenerator``
etc., paper Listing 1); the registry resolves the bare name to a class
and builds whole generator trees, mirroring PDGF's plugin mechanism.
"""

from __future__ import annotations

from typing import Callable, Type

from repro.exceptions import ModelError
from repro.generators.base import BindContext, Generator
from repro.model.schema import GeneratorSpec

_REGISTRY: dict[str, Type[Generator]] = {}


def register(name: str) -> Callable[[Type[Generator]], Type[Generator]]:
    """Class decorator registering a generator under its spec name."""

    def decorate(cls: Type[Generator]) -> Type[Generator]:
        if name in _REGISTRY and _REGISTRY[name] is not cls:
            raise ModelError(f"generator name {name!r} registered twice")
        cls.spec_name = name
        _REGISTRY[name] = cls
        return cls

    return decorate


def known_generators() -> list[str]:
    _ensure_loaded()
    return sorted(_REGISTRY)


def build(spec: GeneratorSpec) -> Generator:
    """Instantiate the generator tree described by *spec* (unbound)."""
    _ensure_loaded()
    cls = _REGISTRY.get(spec.name)
    if cls is None:
        raise ModelError(
            f"unknown generator {spec.name!r}; known: {', '.join(sorted(_REGISTRY))}"
        )
    return cls(spec)


def build_bound(spec: GeneratorSpec, ctx: BindContext) -> Generator:
    """Instantiate and bind a generator tree in one step."""
    generator = build(spec)
    generator.bind(ctx)
    return generator


def plugin_modules(spec: GeneratorSpec) -> set[str]:
    """Modules outside this package that define a generator class named
    in *spec*'s tree — what another process has to import before it can
    :func:`build` the tree (the built-ins load themselves)."""
    cls = _REGISTRY.get(spec.name)
    found = set()
    if cls is not None and not cls.__module__.startswith(__package__ + "."):
        found.add(cls.__module__)
    for child in spec.children:
        found |= plugin_modules(child)
    return found


_loaded = False


def _ensure_loaded() -> None:
    """Import all built-in generator modules so their @register side
    effects run. Kept lazy to avoid import cycles at package init."""
    global _loaded
    if _loaded:
        return
    from repro.generators import (  # noqa: F401
        conditional,
        dates,
        dictionary,
        formula_gen,
        histogram,
        id_gen,
        markov_gen,
        null_gen,
        numbers,
        reference,
        semantic,
        sequential,
        static,
        strings,
    )

    _loaded = True
