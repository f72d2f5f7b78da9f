"""Package exports resolved on first use (PEP 562).

The rule every re-exporting package on a node or client path follows: its
``__init__`` names its exports and imports none of them.  One table maps
each exported name to the submodule that defines it; the package's module
``__getattr__`` imports that submodule the first time the name is read.
So ``python -m repro.runtime.server`` loads only what the server imports,
not every sibling its packages re-export, while ``from repro import
DittoCache``, ``repro.runtime.RealCluster`` and ``from repro.core import *``
work as before.
"""

from importlib import import_module
from typing import Callable, Dict, List, Tuple


def lazy_exports(
    namespace: dict, table: Dict[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``__getattr__`` and ``__dir__`` of the package whose
    ``globals()`` is ``namespace``.

    ``table`` maps each exported name to the submodule defining it,
    relative to the package (``".node"``); ``".invariants:sweep"`` exports
    that submodule's ``sweep`` under the table's name.  A resolved name is
    stored in the package, so the table is consulted once per name.
    """
    package = namespace["__name__"]

    def __getattr__(name: str):
        try:
            target = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        module, _, attr = target.partition(":")
        value = getattr(import_module(module, package), attr or name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted({*namespace, *table})

    return __getattr__, __dir__
