"""Contracts between ``src/repro`` and the files outside it that name it.

* ``pyproject.toml`` declares the package version that
  ``repro.__version__`` reports;
* ``perfbench/tracing.py`` wraps ~40 ``repro`` functions and methods by
  name; a refactor that renames one breaks ``perfbench/run.py --trace 1``
  long before anyone runs the benchmark;
* only ``repro/durable.py`` spells a durable write (fsync, atomic
  replace, exclusive create, append).
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]


def test_package_version_matches_pyproject():
    # A regex, not tomllib: Python 3.10 (in the CI matrix) has no tomllib.
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    declared = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert declared is not None, "pyproject.toml declares no version"
    assert repro.__version__ == declared.group(1)


def test_perfbench_wrap_points_exist():
    code = ("import tracing\n"
            "tracing.install('t')\n"
            "tracing.uninstall()\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src"),
         env.get("PYTHONPATH", "")])
    completed = subprocess.run([sys.executable, "-c", code], env=env,
                               capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr


def _durable_calls(tree):
    """``(line, what)`` of every raw durable operation in ``tree``: an
    ``os.fsync``, ``os.replace`` or ``os.O_EXCL`` reference and every
    ``open`` call whose literal mode appends."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "os" \
                and node.attr in ("fsync", "replace", "O_EXCL"):
            yield node.lineno, f"os.{node.attr}"
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) \
            else getattr(func, "id", None)
        if name not in ("open", "fdopen"):
            continue
        # ``path.open(mode)`` takes the mode first, ``open(path, mode)``
        # and ``os.fdopen(fd, mode)`` second.
        bound = isinstance(func, ast.Attribute) and name == "open" \
            and not (isinstance(func.value, ast.Name)
                     and func.value.id in ("io", "os"))
        modes = list(node.args[:1] if bound else node.args[1:2])
        modes += [keyword.value for keyword in node.keywords
                  if keyword.arg == "mode"]
        for mode in modes:
            if isinstance(mode, ast.Constant) \
                    and isinstance(mode.value, str) and "a" in mode.value:
                yield node.lineno, f"mode {mode.value!r} open"


def test_only_durable_writes_durably():
    # Every fsync, atomic replace, exclusive create and append goes
    # through repro.durable, so a crash sweep that patches that one
    # module reaches every durable write of the package.
    package = ROOT / "src" / "repro"
    found = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for line, what in _durable_calls(tree):
            found.append(f"{path.relative_to(package.parent)}:{line} {what}")
    assert found and all(entry.startswith("repro/durable.py:")
                         for entry in found), found
