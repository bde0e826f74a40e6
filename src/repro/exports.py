"""Package re-export tables (PEP 562).

A package ``__init__`` names its public API up front and imports each
name's submodule on first access, so importing one submodule (say
``repro.core.scheduler``) does not load every sibling the package
re-exports.  Each package states its table as::

    __all__, __getattr__, __dir__ = reexport(__name__, {
        "repro.pkg.module": ("Name", "other_name"),
    })

and ``from repro.pkg import Name`` / ``repro.pkg.Name`` / ``dir(repro.pkg)``
behave as with eager imports.
"""

import sys
from importlib import import_module
from typing import Callable, Dict, List, Sequence, Tuple


def reexport(package: str, table: Dict[str, Sequence[str]]
             ) -> Tuple[List[str], Callable[[str], object],
                        Callable[[], List[str]]]:
    """``__all__``, ``__getattr__`` and ``__dir__`` of ``package``.

    ``table`` maps each submodule to the names ``package`` re-exports from
    it.  A name is imported when first looked up and then bound in the
    package, so later lookups never reach the hook.
    """
    source = {name: module for module, names in table.items()
              for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        try:
            module = source[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(source))

    return list(source), __getattr__, __dir__
