"""Public names resolved on first use (PEP 562 module ``__getattr__``).

Start-up is part of every short command, so a package whose public
names are costly to import, and not needed by every caller, lists them
in one name → module table and takes its ``__getattr__`` and ``__dir__``
from :func:`lazy_names`. The first lookup of a name imports its module
and caches the value in the package's globals, so no later lookup comes
back here; ``__all__``, ``dir()`` and ``import *`` still see every name.
"""

from __future__ import annotations

import importlib
import sys


def lazy_names(package: str, table: dict[str, str]):
    """``(__getattr__, __dir__)`` for *package*. A name in *table*
    resolves to the attribute of that name of the module it maps to, or
    to that module itself when it is the subpackage ``package.name``."""
    namespace = vars(sys.modules[package])

    def __getattr__(name: str):
        try:
            module = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = importlib.import_module(module)
        if module != f"{package}.{name}":
            value = getattr(value, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__
