"""Lazy package exports (PEP 562), shared by every ``repro`` package.

Each package ``__init__`` declares its public names as one
``name -> submodule`` table instead of importing them, and the
submodule is imported on the name's first access.  A command therefore
loads only the modules it executes: ``repro list`` and a run whose
outcomes all come from the cache never import numpy or the simulators.
``__all__``, ``dir()`` and ``from repro.<pkg> import *`` see every name
in the table.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, table: Dict[str, str]
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``, whose
    public names live in the submodules ``table`` maps them to.  A name
    that maps to itself is that submodule.  A resolved name is stored
    on the package, so the lookup runs once per name."""

    def __getattr__(name: str) -> Any:
        try:
            submodule = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        module = importlib.import_module(f"{package}.{submodule}")
        value = module if submodule == name else getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(table))

    return list(table), __getattr__, __dir__
