"""Static *eager* import graph, resolved through PEP 562 lazy-export seams.

``import repro`` must never load numpy/numba/cupy — the repo's
lazy-import invariant, enforced dynamically by the test-suite since PR 4.
This module proves it statically, which requires modelling exactly what
executes at import time:

* **eager statements** — imports at module level, inside class bodies,
  inside ``try``/``with``/``if`` blocks (all of which run at import) —
  count; imports inside function bodies (including the PEP 562
  ``__getattr__`` hooks themselves) do not;
* ``if TYPE_CHECKING:`` bodies never execute and are skipped;
* ``from pkg import name`` where ``pkg`` is a *lazy-export package*
  (a scanned ``__init__`` with a module-level ``__getattr__`` — defined
  with ``def`` or bound from the shared helper,
  ``__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)`` — and a
  literal name→submodule map such as ``repro.engine``'s ``_EXPORTS``)
  triggers ``__getattr__`` **eagerly** for names the package does not
  bind at top level — so the edge resolves through the seam to the
  submodule that really loads (``from repro.engine import BACKEND_CHOICES``
  is an eager import of ``repro.engine.dispatch``).

The graph is over dotted module names; edges into modules outside the
scan set (stdlib, third-party) terminate there — which is exactly where
the forbidden-root check (``numpy``/``numba``/``cupy``) applies.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .project import LintModule, Project


@dataclass(frozen=True)
class ImportEdge:
    """One eager import: ``importer`` loads ``target`` at import time."""

    importer: str
    target: str
    line: int


def _is_type_checking_test(test: ast.expr) -> bool:
    """True for ``if TYPE_CHECKING:`` / ``if typing.TYPE_CHECKING:``."""
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def iter_eager_statements(body: Iterable[ast.stmt]) -> Iterator[ast.stmt]:
    """Every statement that executes when the module is imported.

    Descends into compound statements whose bodies run at import time
    (``if``/``try``/``with``/``for``/``while`` and class bodies) and
    stops at function boundaries; ``if TYPE_CHECKING:`` bodies are dead
    at runtime and skipped (their ``else`` branch still runs).
    """
    for node in body:
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If):
            if not _is_type_checking_test(node.test):
                yield from iter_eager_statements(node.body)
            yield from iter_eager_statements(node.orelse)
        elif isinstance(node, ast.Try):
            for block in (node.body, node.orelse, node.finalbody):
                yield from iter_eager_statements(block)
            for handler in node.handlers:
                yield from iter_eager_statements(handler.body)
        elif isinstance(node, (ast.With, ast.AsyncWith, ast.For,
                               ast.AsyncFor, ast.While, ast.ClassDef)):
            yield from iter_eager_statements(node.body)
            orelse = getattr(node, "orelse", None)
            if orelse:
                yield from iter_eager_statements(orelse)


def _module_level_names(module: LintModule) -> Set[str]:
    """Names the module binds eagerly at top level (incl. imports)."""
    names: Set[str] = set()
    for node in iter_eager_statements(module.tree.body):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name) and node.value is not None:
                names.add(node.target.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name != "*":
                    names.add(alias.asname or alias.name)
    return names


def _binds_getattr(node: ast.stmt) -> bool:
    """True when a module-level statement binds ``__getattr__``.

    Either ``def __getattr__(name): ...`` or an assignment with
    ``__getattr__`` among its targets, the shape the shared helper is
    bound with (``__getattr__, __dir__ = lazy_exports(...)``).
    """
    if isinstance(node, ast.FunctionDef):
        return node.name == "__getattr__"
    if not isinstance(node, ast.Assign):
        return False
    for target in node.targets:
        names = target.elts if isinstance(target, ast.Tuple) else [target]
        if any(isinstance(name, ast.Name) and name.id == "__getattr__"
               for name in names):
            return True
    return False


def lazy_export_map(module: LintModule) -> Dict[str, str]:
    """The PEP 562 name→submodule map of a lazy-export package.

    Recognises the repo idiom: a module-level ``__getattr__`` plus one or
    more literal ``{"Name": ".submodule"}`` dict assignments (values are
    submodule paths relative to the package).  Returns absolute target
    module names; empty when the module has no such seam.
    """
    if not any(_binds_getattr(node) for node in module.tree.body):
        return {}
    mapping: Dict[str, str] = {}
    package = module.name if module.is_package \
        else module.name.rsplit(".", 1)[0]
    for node in module.tree.body:
        if not isinstance(node, ast.Assign) \
                or not isinstance(node.value, ast.Dict):
            continue
        literal: Dict[str, str] = {}
        for key, value in zip(node.value.keys, node.value.values):
            if not (isinstance(key, ast.Constant) and isinstance(key.value, str)
                    and isinstance(value, ast.Constant)
                    and isinstance(value.value, str)):
                literal = {}
                break
            literal[key.value] = value.value
        for name, target in literal.items():
            if target.startswith("."):
                mapping[name] = package + target
            else:
                mapping[name] = target
    return mapping


def resolve_relative(module: LintModule, level: int,
                     target: Optional[str]) -> Optional[str]:
    """Absolute module name of a (possibly relative) ``from`` import."""
    if level == 0:
        return target
    parts = list(module.segments)
    if not module.is_package:
        parts = parts[:-1]
    parts = parts[:len(parts) - (level - 1)] if level > 1 else parts
    if not parts:
        return None  # relative import escaping the scanned tree
    base = ".".join(parts)
    return f"{base}.{target}" if target else base


def _ancestors(target: str) -> Iterator[str]:
    """``a.b.c`` → ``a``, ``a.b``, ``a.b.c`` (importing loads them all)."""
    parts = target.split(".")
    for index in range(1, len(parts) + 1):
        yield ".".join(parts[:index])


def eager_import_edges(module: LintModule,
                       project: Project) -> List[ImportEdge]:
    """Every module this one loads at import time (deduplicated)."""
    edges: List[ImportEdge] = []
    seen: Set[str] = set()

    def add(target: str, line: int) -> None:
        for name in _ancestors(target):
            if name not in seen:
                seen.add(name)
                edges.append(ImportEdge(module.name, name, line))

    for node in iter_eager_statements(module.tree.body):
        if isinstance(node, ast.Import):
            for alias in node.names:
                add(alias.name, node.lineno)
        elif isinstance(node, ast.ImportFrom):
            base = resolve_relative(module, node.level, node.module)
            if base is None:
                continue
            add(base, node.lineno)
            base_module = project.by_name.get(base)
            lazy_map = lazy_export_map(base_module) if base_module else {}
            eager_names = _module_level_names(base_module) \
                if base_module else set()
            for alias in node.names:
                if alias.name == "*":
                    continue
                submodule = f"{base}.{alias.name}"
                if submodule in project.by_name:
                    # ``from pkg import submodule`` loads the submodule.
                    add(submodule, node.lineno)
                elif base_module is not None \
                        and alias.name not in eager_names \
                        and alias.name in lazy_map:
                    # PEP 562 seam: the name is not bound at top level, so
                    # this ``from`` import triggers ``__getattr__`` — and
                    # with it the mapped submodule — eagerly.
                    add(lazy_map[alias.name], node.lineno)
    return edges


class ImportGraph:
    """The eager import graph over a whole project."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self._edges: Dict[str, List[ImportEdge]] = {
            module.name: eager_import_edges(module, project)
            for module in project.modules
        }

    def edges_from(self, name: str) -> List[ImportEdge]:
        """Eager edges out of module ``name`` (empty for external modules)."""
        return self._edges.get(name, [])

    def reachable_from(self, root: str, *more_roots: str
                       ) -> Dict[str, Tuple[Optional[str], ImportEdge]]:
        """BFS closure of the eager graph from ``root`` (and ``more_roots``).

        Returns ``{module: (parent_module, edge)}`` for every module
        reached (excluding the roots themselves) — enough to reconstruct
        the import chain that loads any of them.
        """
        parents: Dict[str, Tuple[Optional[str], ImportEdge]] = {}
        queue: List[str] = [root, *more_roots]
        visited: Set[str] = set(queue)
        while queue:
            current = queue.pop(0)
            for edge in self.edges_from(current):
                if edge.target in visited:
                    continue
                visited.add(edge.target)
                parents[edge.target] = (current, edge)
                queue.append(edge.target)
        return parents

    def chain_to(self, parents: Dict[str, Tuple[Optional[str], ImportEdge]],
                 target: str, root: str) -> List[str]:
        """The module chain ``root → ... → target`` for a BFS result.

        With several BFS roots the chain starts at whichever root loaded
        ``target``.
        """
        chain = [target]
        current = target
        while current != root and current in parents:
            current = parents[current][0] or root
            chain.append(current)
        return list(reversed(chain))
