"""Lazy package exports (PEP 562).

A package ``__init__`` declares what it re-exports as a table of
``{submodule: names}`` and installs the ``__getattr__``/``__dir__`` pair
:func:`lazy_exports` builds from it.  A name's submodule is imported the
first time the name is looked up -- ``from repro.api import Session``,
``repro.api.Session`` or ``from repro.api import *`` -- rather than when
the package itself is imported, so ``import repro.cli`` and the warm
result replays behind it never load the simulator stack, the sampling
package or numpy.  The resolved value is then bound on the package, so
later lookups are ordinary attribute hits.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Mapping, Sequence, Tuple, Union

#: A re-exported name, or an ``(alias, attribute)`` pair that re-exports
#: ``attribute`` under another name.
Export = Union[str, Tuple[str, str]]


def lazy_exports(
    module: str, table: Mapping[str, Sequence[Export]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for the module named ``module``.

    ``table`` maps module names, relative as in an import statement in
    ``module`` (``".store"``, ``"..faults"``), to the names ``module``
    re-exports from them.
    """
    where: Dict[str, Tuple[str, str]] = {}
    for submodule, names in table.items():
        for name in names:
            alias, attr = (name, name) if isinstance(name, str) else name
            where[alias] = (submodule, attr)

    def __getattr__(name: str):
        try:
            submodule, attr = where[name]
        except KeyError:
            raise AttributeError(
                f"module {module!r} has no attribute {name!r}") from None
        this = sys.modules[module]
        value = getattr(importlib.import_module(submodule, this.__package__),
                        attr)
        setattr(this, name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[module])) | set(where))

    return __getattr__, __dir__, list(where)
