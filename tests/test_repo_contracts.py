"""Contracts between ``src/repro`` and the files outside it that name it.

* ``pyproject.toml`` declares the package version that
  ``repro.__version__`` reports;
* ``perfbench/tracing.py`` wraps ~40 ``repro`` functions and methods by
  name; a refactor that renames one breaks ``perfbench/run.py --trace 1``
  long before anyone runs the benchmark.
"""

from __future__ import annotations

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
