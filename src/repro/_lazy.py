"""Package exports that load their submodule on first use (PEP 562).

A one-shot command such as ``promising-arm run`` or ``catalogue`` needs a
handful of modules, but an ``__init__`` that imports every submodule
makes each process compile all of them first.  A package built with
:func:`lazy_exports` keeps its public names and ``__all__`` and imports
the submodule that defines a name only when the name is first read.
"""

from __future__ import annotations

import importlib
from typing import Callable, Mapping


def lazy_exports(
    namespace: dict, exports: Mapping[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """``__all__``, ``__getattr__`` and ``__dir__`` for a package.

    ``namespace`` is the package's ``globals()``; ``exports`` maps each
    submodule to the names of it the package re-exports.  A resolved name
    is stored in the package namespace, so only its first read runs the
    hook.  Unknown names raise :class:`AttributeError`, so ``from pkg
    import submodule`` still imports the submodule.
    """
    package = namespace["__name__"]
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        if name not in origin:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{origin[name]}"), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | origin.keys())

    return list(origin), __getattr__, __dir__
