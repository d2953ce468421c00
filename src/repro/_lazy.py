"""Lazy package exports (PEP 562 module ``__getattr__``).

A package ``__init__`` names the module that defines each of its public
names and imports none of them: the defining module is imported the
first time the name is read. So ``import repro.ipcp.driver`` loads the
driver's own imports, not every sibling the package re-exports, and a
fresh ``repro analyze`` process compiles only the modules it runs.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, Iterable, List, Tuple


def lazy_exports(
    package: str, modules: Dict[str, Iterable[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``, whose public names
    are given as ``{defining module: names}``. Names listed under the
    package itself are its submodules. A resolved name is stored in the
    package namespace, so each is looked up once."""
    where = {
        name: module for module, names in modules.items() for name in names
    }
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        module = where.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        if module == package:
            value = importlib.import_module(f"{package}.{name}")
        else:
            value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(where))

    return __getattr__, __dir__
