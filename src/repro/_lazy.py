"""Package re-exports imported on first read (PEP 562).

Each package ``__init__`` lists its public names and the submodule that
defines each; a submodule is imported the first time one of its names is
read from the package, so importing one module of the library compiles
that module and what it imports, not every sibling its package
re-exports.  ``from package import name``, ``from package import *``,
``dir(package)`` and attribute access behave as with eager imports.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Tuple


def lazy_exports(
    package: str, exports: Dict[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``__getattr__`` and ``__dir__`` of ``package``, whose public
    names map in ``exports`` to the module each is read from (its
    defining module, or a subpackage that re-exports it).  A resolved
    name is stored in the package namespace, so it is looked up once."""
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = namespace[name] = getattr(importlib.import_module(module), name)
        return value

    def __dir__() -> List[str]:
        return sorted({*namespace, *exports})

    return __getattr__, __dir__
