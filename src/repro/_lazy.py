"""PEP 562 lazy exports: the ``__getattr__``/``__dir__`` pair every package
``__init__`` of :mod:`repro` installs.

A package names what it exports in a literal ``_EXPORTS`` map — exported
name to the submodule that defines it, relative to the package — and
binds::

    __all__ = list(_EXPORTS)
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

Importing the package then loads none of its submodules.  The first
access to an exported name imports the defining submodule and caches the
value in the package namespace, so later accesses are plain attribute
lookups.  A process therefore imports only the modules it actually uses:
a PRR sweep never loads the behavioural SRAM or the transient circuit
solver just because ``repro.sram`` or ``repro.circuit`` re-exports them.
The static import graph of :mod:`repro.devtools` (rule RPR001) reads the
same literal maps to resolve ``from package import name`` edges.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Dict, List, Tuple


def lazy_exports(package: str, exports: Dict[str, str]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` hooks of lazy-export package ``package``.

    ``exports`` maps each exported name to its defining submodule
    (``".geometry"``; resolved relative to ``package``).
    """

    def __getattr__(name: str) -> object:
        """Resolve an exported name from its submodule on first access."""
        module = exports.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module, package), name)
        # Cache on the package: later lookups skip __getattr__ entirely.
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        """Advertise the lazy exports alongside the package's globals."""
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
