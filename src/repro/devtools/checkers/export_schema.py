"""RPR006 — export-schema consistency.

Sweep records travel through four representations: dataclass fields,
``as_dict`` payloads, exporter columns, and journal lines.  Drift between
them is silent until an old journal refuses to load (the PR 8
entry-less-journal incident was exactly a schema-evolution gap).  Three
statically-checkable agreements:

* a dataclass ``as_dict`` building a *dict literal* must export every
  declared field's value — renaming keys (paper notation like ``P_r``)
  is presentation, a field that never reaches the payload is drift
  (``dataclasses.asdict`` is trivially consistent);
* a class with ``to_line``/``from_line`` must only *read* keys it also
  *writes* — a key parsed but never serialised can never round-trip;
* ``from_dict`` must not splat the raw mapping into the constructor
  (``cls(**data)``) — that crashes on any journal written before a field
  was added; route through a defaults-tolerant ``*record_from_dict``
  helper or ``dataclasses.fields`` instead.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from ..findings import Finding
from ..project import LintModule, Project
from .common import call_name, decorator_names


def _literal_str_keys(node: ast.Dict) -> Optional[Set[str]]:
    keys: Set[str] = set()
    for key in node.keys:
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            keys.add(key.value)
        else:
            return None  # dynamic key — stay silent
    return keys


def _method(cls: ast.ClassDef, name: str) -> Optional[ast.FunctionDef]:
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name == name:
            return node
    return None


def _field_names(cls: ast.ClassDef) -> List[str]:
    names: List[str] = []
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name):
            if "ClassVar" in ast.dump(node.annotation):
                continue
            if node.target.id.startswith("_"):
                continue
            names.append(node.target.id)
    return names


def _returned_dict_literals(function: ast.FunctionDef
                            ) -> Iterator[ast.Dict]:
    for node in ast.walk(function):
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict):
            yield node.value


def _self_attribute_reads(function: ast.FunctionDef) -> Set[str]:
    """Attributes read off ``self`` anywhere in ``function``."""
    names: Set[str] = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Load) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "self":
            names.add(node.attr)
    return names


def _string_subscript_reads(function: ast.FunctionDef) -> Set[str]:
    """Keys read as ``mapping["key"]`` or ``mapping.get("key")``."""
    keys: Set[str] = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Subscript) \
                and isinstance(node.ctx, ast.Load) \
                and isinstance(node.slice, ast.Constant) \
                and isinstance(node.slice.value, str):
            keys.add(node.slice.value)
        elif isinstance(node, ast.Call) and call_name(node) == "get" \
                and node.args \
                and isinstance(node.args[0], ast.Constant) \
                and isinstance(node.args[0].value, str):
            keys.add(node.args[0].value)
    return keys


def _written_dict_keys(function: ast.FunctionDef) -> Optional[Set[str]]:
    """Keys of every dict literal built inside ``function``."""
    keys: Set[str] = set()
    saw_literal = False
    for node in ast.walk(function):
        if isinstance(node, ast.Dict):
            literal = _literal_str_keys(node)
            if literal is None:
                return None  # dynamic construction — stay silent
            keys |= literal
            saw_literal = True
    return keys if saw_literal else None


class ExportSchemaChecker:
    """Flag schema drift between record fields, exports and journal lines."""

    rule_id = "RPR006"
    title = ("export-schema consistency: record fields, exporter columns "
             "and journal keys must agree, with defaults for old data")

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    yield from self._check_class(node, module)

    def _check_class(self, cls: ast.ClassDef,
                     module: LintModule) -> Iterator[Finding]:
        if "dataclass" in decorator_names(cls):
            yield from self._check_as_dict(cls, module)
            yield from self._check_from_dict(cls, module)
        yield from self._check_line_round_trip(cls, module)

    def _check_as_dict(self, cls: ast.ClassDef,
                       module: LintModule) -> Iterator[Finding]:
        as_dict = _method(cls, "as_dict")
        if as_dict is None:
            return
        if not any(_returned_dict_literals(as_dict)):
            return  # asdict(self)-style bodies are trivially consistent
        exported = _self_attribute_reads(as_dict)
        missing = sorted(name for name in _field_names(cls)
                         if name not in exported)
        if missing:
            yield Finding(
                path=module.display_path, line=as_dict.lineno,
                rule=self.rule_id,
                message=(f"'{cls.name}.as_dict' never exports field(s) "
                         f"{', '.join(missing)}; every declared field must "
                         f"reach the payload (rename keys if needed, but "
                         f"do not drop values)"))

    def _check_from_dict(self, cls: ast.ClassDef,
                         module: LintModule) -> Iterator[Finding]:
        from_dict = _method(cls, "from_dict")
        if from_dict is None:
            return
        args = [arg.arg for arg in from_dict.args.args]
        data_params = set(args[1:2])  # the mapping parameter after cls/self
        tolerant = any(
            "record_from_dict" in name or name == "fields"
            for name in _called_names(from_dict))
        if tolerant:
            return
        for node in ast.walk(from_dict):
            if not isinstance(node, ast.Call):
                continue
            for keyword in node.keywords:
                if keyword.arg is None \
                        and isinstance(keyword.value, ast.Name) \
                        and keyword.value.id in data_params:
                    yield Finding(
                        path=module.display_path, line=node.lineno,
                        rule=self.rule_id,
                        message=(f"'{cls.name}.from_dict' splats the raw "
                                 f"mapping into the constructor; old "
                                 f"journals without newer fields will "
                                 f"crash — filter through dataclasses."
                                 f"fields or _record_from_dict"))
                    return

    def _check_line_round_trip(self, cls: ast.ClassDef,
                               module: LintModule) -> Iterator[Finding]:
        to_line = _method(cls, "to_line")
        from_line = _method(cls, "from_line")
        if to_line is None or from_line is None:
            return
        written = _written_dict_keys(to_line)
        if written is None:
            return
        read = _string_subscript_reads(from_line)
        orphaned = sorted(read - written)
        if orphaned:
            yield Finding(
                path=module.display_path, line=from_line.lineno,
                rule=self.rule_id,
                message=(f"'{cls.name}.from_line' reads key(s) "
                         f"{', '.join(orphaned)} that '{cls.name}.to_line' "
                         f"never writes; the round-trip cannot succeed"))


def _called_names(function: ast.FunctionDef) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Call):
            name = call_name(node)
            if name is not None:
                names.add(name)
    return names
