"""RPR005 — warn-once registry usage for backend/kernel fallback.

Fallback warnings ("kernel tier 'jit' unavailable, falling back to
'flat'") fire on hot paths: without deduplication a long sweep emits
thousands of identical lines, and with naive module-level deduplication
the seen-set is the RPR002 bug all over again.  The repo's answer is the
lock-guarded warn-once registry (``_claim_fallback_warning`` in
``repro.engine.vectorized``): claim first, warn only when the claim is
fresh.  This rule flags any ``warnings.warn`` whose static message text
talks about backend/kernel fallback from a function that never consults
a claim helper.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

from ..findings import Finding
from ..project import LintModule, Project
from .common import call_name, function_calls, literal_text


def _is_warn_call(node: ast.Call) -> bool:
    return call_name(node) == "warn"


def _is_fallback_message(text: str) -> bool:
    lowered = text.lower()
    return "fall" in lowered and ("kernel" in lowered or "backend" in lowered)


def _claims_fallback(calls: set) -> bool:
    return any("claim_fallback" in name for name in calls)


class WarnOnceChecker:
    """Flag raw backend/kernel fallback warnings outside the registry."""

    rule_id = "RPR005"
    title = ("warn-once registry usage: backend/kernel fallback warnings "
             "must go through the lock-guarded claim helper")

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.modules:
            yield from self._check_module(module)

    def _check_module(self, module: LintModule) -> Iterator[Finding]:
        for node, function in _calls_with_functions(module.tree):
            if not _is_warn_call(node) or not node.args:
                continue
            if not _is_fallback_message(literal_text(node.args[0])):
                continue
            if function is not None \
                    and _claims_fallback(function_calls(function)):
                continue
            where = f"in '{function.name}'" if function is not None \
                else "at module level"
            yield Finding(
                path=module.display_path, line=node.lineno,
                rule=self.rule_id,
                message=(f"raw backend/kernel fallback warning {where}; "
                         f"route through the warn-once claim helper "
                         f"(_claim_fallback_warning) so repeats dedupe "
                         f"without process-global state"))


def _calls_with_functions(tree: ast.Module
                          ) -> Iterator[Tuple[ast.Call,
                                              Optional[ast.FunctionDef]]]:
    """Every call in the module paired with its enclosing function."""

    def walk(node: ast.AST, function: Optional[ast.FunctionDef]
             ) -> Iterator[Tuple[ast.Call, Optional[ast.FunctionDef]]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                yield child, function
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, child)
            else:
                yield from walk(child, function)

    yield from walk(tree, None)
