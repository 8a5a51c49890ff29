"""The shipped rules — one module per invariant class, registered here.

Adding a rule is the extension seam this package exists for: write a
module with a class satisfying :class:`repro.devtools.framework.Checker`
(stable ``rule_id``, one-line ``title``, a ``check(project)`` pass) and
list it in :func:`all_checkers`; the CLI, baseline machinery, report
formats and CI gate pick it up unchanged.
"""

from __future__ import annotations

from typing import List

from ..framework import Checker
from .atomic_write import AtomicWriteChecker
from .dispatch_registry import DispatchRegistryChecker
from .export_schema import ExportSchemaChecker
from .format_version import FormatVersionChecker
from .global_state import GlobalStateChecker
from .lazy_import import LazyImportChecker

__all__ = [
    "AtomicWriteChecker",
    "DispatchRegistryChecker",
    "ExportSchemaChecker",
    "FormatVersionChecker",
    "GlobalStateChecker",
    "LazyImportChecker",
    "all_checkers",
]


def all_checkers() -> List[Checker]:
    """Every shipped checker, in rule-id order."""
    return [
        LazyImportChecker(),
        GlobalStateChecker(),
        AtomicWriteChecker(),
        DispatchRegistryChecker(),
        ExportSchemaChecker(),
        FormatVersionChecker(),
    ]
