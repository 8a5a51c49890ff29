"""Small AST helpers the checkers share.

Everything here is deliberately syntactic: the checkers reason about what
the source *says*, not what it would do at runtime, so helpers extract
names, decorators, and literal strings conservatively — when a construct
is too dynamic to read statically, they return nothing and the rule stays
silent rather than guessing.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

#: Mutating container methods — calling one on a module-level container
#: from hot-path code is a cross-thread write (the RPR002 bug class).
MUTATOR_METHODS = frozenset({
    "add", "append", "clear", "discard", "extend", "insert", "pop",
    "popitem", "remove", "setdefault", "update",
})


def call_name(node: ast.Call) -> Optional[str]:
    """The called name: ``foo`` for ``foo()`` and ``a.b.foo()`` alike."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def dotted_call_name(node: ast.Call) -> Optional[str]:
    """``os.replace`` for ``os.replace(...)``; ``None`` when dynamic."""
    parts: List[str] = []
    func: ast.expr = node.func
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if isinstance(func, ast.Name):
        parts.append(func.id)
        return ".".join(reversed(parts))
    return None


def decorator_names(node: ast.AST) -> Set[str]:
    """Bare decorator names (``dataclass`` for ``@dataclass(frozen=True)``)."""
    names: Set[str] = set()
    for decorator in getattr(node, "decorator_list", []):
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, ast.Attribute):
            names.add(target.attr)
    return names


def iter_functions(tree: ast.Module
                   ) -> Iterator[Tuple[ast.AST, Tuple[ast.AST, ...]]]:
    """Every function/method in the module with its enclosing scope chain.

    Yields ``(function, parents)`` where ``parents`` is the tuple of
    enclosing ``ClassDef``/function nodes, outermost first (empty for
    module-level functions).
    """

    def walk(node: ast.AST,
             parents: Tuple[ast.AST, ...]) -> Iterator[
                 Tuple[ast.AST, Tuple[ast.AST, ...]]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child, parents
                yield from walk(child, parents + (child,))
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, parents + (child,))
            else:
                yield from walk(child, parents)

    yield from walk(tree, ())


def enclosing_class(parents: Tuple[ast.AST, ...]) -> Optional[ast.ClassDef]:
    """The nearest enclosing class of a function, if any."""
    for node in reversed(parents):
        if isinstance(node, ast.ClassDef):
            return node
    return None


def literal_text(node: ast.expr) -> str:
    """All string-literal fragments inside an expression, concatenated.

    Reads through f-strings, ``+`` concatenation, ``%``/``.format`` calls —
    enough to see the static words of a warning message without evaluating
    anything.  Dynamic parts contribute nothing.
    """
    fragments: List[str] = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            fragments.append(sub.value)
    return " ".join(fragments)


def looks_like_lock(expr: ast.expr, module_locks: Set[str]) -> bool:
    """True when a ``with`` context expression is plausibly a lock.

    Module-level ``threading.Lock()``/``RLock()`` names are known exactly;
    beyond those, any name or attribute containing ``lock`` (``self._lock``,
    an imported ``_CACHE_LOCK``) is accepted — the rule is about *unguarded*
    state, and a mis-named lock is a different review problem.
    """
    if isinstance(expr, ast.Name):
        return expr.id in module_locks or "lock" in expr.id.lower()
    if isinstance(expr, ast.Attribute):
        return "lock" in expr.attr.lower()
    return False


def function_calls(node: ast.AST) -> Set[str]:
    """Every called name inside ``node`` (nested defs included)."""
    names: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            name = call_name(sub)
            if name is not None:
                names.add(name)
    return names
