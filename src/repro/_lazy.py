"""Lazy package re-exports (PEP 562).

A package ``__init__`` that re-exports names from its submodules would
import every submodule — and their numpy/scipy dependencies — the moment
anything touches the package.  :func:`lazy_exports` instead resolves
each public name on first attribute access::

    __getattr__, __dir__ = lazy_exports(__name__, {
        ".sweep": ("SweepResult", "sweep"),  # from .sweep import ...
        ".": ("perf",),                      # from . import perf
    })

Resolved names are cached in the package namespace, so each costs one
import and later lookups are plain attribute reads.

One wrinkle: importing a submodule binds it on its parent package under
its own name.  For a re-exported function that shares its submodule's
name (``repro.core.sweep`` the function vs ``repro.core.sweep`` the
module), that binding would replace the function whenever the submodule
is imported some other way first.  The package's module class therefore
keeps the re-exported object in place of its same-named submodule.
"""

from __future__ import annotations

import importlib
import sys
import types
from collections.abc import Callable, Iterable, Mapping


class _LazyPackage(types.ModuleType):
    """A package whose re-exports win over their same-named submodules."""

    def __setattr__(self, name: str, value: object) -> None:
        origin = self.__dict__["_lazy_origins"].get(name)
        if (
            origin is not None
            and origin != "."
            and isinstance(value, types.ModuleType)
            and value.__name__ == f"{self.__name__}.{name}"
        ):
            value = getattr(value, name)
        super().__setattr__(name, value)


def lazy_exports(
    package: str, exports: Mapping[str, Iterable[str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """Module ``__getattr__``/``__dir__`` resolving ``exports`` on demand.

    ``exports`` maps a module relative to ``package`` (``".sweep"``) to
    the names it provides; the key ``"."`` lists submodules re-exported
    themselves.  ``package`` may also be a plain module, whose exports
    are then relative to its own package.
    Unknown names — dunders included, which the import system probes —
    raise :class:`AttributeError` without importing anything.
    """
    origins = {name: source for source, names in exports.items() for name in names}
    module = sys.modules[package]
    anchor = module.__package__
    namespace = module.__dict__

    def __getattr__(name: str) -> object:
        source = origins.get(name)
        if source is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        if source == ".":
            value = importlib.import_module(f".{name}", anchor)
        else:
            value = getattr(importlib.import_module(source, anchor), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(origins))

    namespace["_lazy_origins"] = origins
    module.__class__ = _LazyPackage
    return __getattr__, __dir__
