"""Lazy package exports and the module set of each entry point.

Every package ``__init__`` of :mod:`repro` exports through a literal
``_EXPORTS`` map and the PEP 562 hooks of :mod:`repro._lazy`, so a
process imports only the modules it runs.  Two layers of assertions:

* the export maps: every ``__all__`` name resolves, is advertised by
  ``dir()`` and binds under ``from pkg import *``, and every ``_EXPORTS``
  entry names the module that defines the name;
* the module sets, pinned in fresh processes: a one-case PRR sweep, a
  service up to its readiness line and a distributed worker finishing a
  PRR-only lease never load the transient circuit solver, the gate
  library, the behavioural SRAM and its component models, the analysis
  helpers, the fault models or the power session.  A cold PRR pass
  imports after set-up exactly the two engine modules it always did.
  The same processes, started without ``OPENBLAS_NUM_THREADS``, have it
  set to 1 before numpy loads; a value the user set is kept.

Static twin: rule RPR001 of :mod:`repro.devtools` proves the same for
the eager import graphs of ``python -m repro.sweep``, ``repro.serve``
and ``repro.distrib``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from typing import Iterable, List

import pytest

from repro.devtools.checkers.lazy_import import DEFERRED_MODULES, ENTRY_POINTS

SRC = Path(__file__).resolve().parents[1] / "src"

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.bist",
    "repro.circuit",
    "repro.core",
    "repro.distrib",
    "repro.engine",
    "repro.faults",
    "repro.march",
    "repro.power",
    "repro.serve",
    "repro.sram",
    "repro.sweep",
]

#: Modules none of the three entry-point processes may load (a name
#: also covers its submodules).
NEVER_LOADED = (
    "repro.analysis",
    "repro.circuit.elements",
    "repro.circuit.gates",
    "repro.circuit.mosfet",
    "repro.circuit.transient",
    "repro.circuit.waveform",
    "repro.core.precharge_controller",
    "repro.core.session",
    "repro.faults",
    "repro.march.dof",
    "repro.sram.bitline",
    "repro.sram.column",
    "repro.sram.memory",
    "repro.sram.periphery",
    "repro.sram.precharge",
)
#: The further modules each entry point loads only in other subcommands.
ALSO_DEFERRED = {
    "sweep": ("repro.sweep.merge",),
    "serve": ("repro.serve.client",),
    "distrib": ("repro.sweep.merge", "repro.distrib.coordinator"),
}


def _env(**extra: str) -> dict:
    """This process's environment without ``OPENBLAS_NUM_THREADS`` (the
    entry points set it), plus ``extra``, with ``src`` on the path."""
    env = {key: value for key, value in os.environ.items()
           if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), env.get("PYTHONPATH", "")])
    env.update(extra)
    return env


#: Runs ``python -m MODULE ARGS`` (through :mod:`runpy`, as ``-m`` does)
#: and writes to OUT when the process exits: every module it loaded
#: (``modules``) and ``OPENBLAS_NUM_THREADS`` at exit and, if numpy
#: loaded, at its first import (``blas``).  ``-X importtime`` cannot
#: replace it: it does not itemise modules that
#: ``importlib.import_module`` loads, which is how lazy exports resolve.
RUN_MODULE = """
import atexit, json, os, runpy, sys
out, module, *argv = sys.argv[1:]
blas = {}

class NumpyWatch:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            blas.setdefault("at_numpy", os.environ.get("OPENBLAS_NUM_THREADS"))

def dump():
    blas["at_exit"] = os.environ.get("OPENBLAS_NUM_THREADS")
    with open(out, "w") as handle:
        json.dump({"modules": sorted(sys.modules), "blas": blas}, handle)

sys.meta_path.insert(0, NumpyWatch())
atexit.register(dump)
sys.argv = [module, *argv]
runpy.run_module(module, run_name="__main__", alter_sys=True)
"""


def _run_module(out: Path, module: str, *argv: str) -> List[str]:
    """The ``python -c RUN_MODULE`` command line."""
    return [sys.executable, "-c", RUN_MODULE, str(out), module, *argv]


def _loaded(dump: Path) -> List[str]:
    """The modules a ``RUN_MODULE`` process loaded, after checking that
    it ran, and loaded numpy if at all, with one OpenBLAS thread."""
    dumped = json.loads(dump.read_text())
    assert dumped["blas"]["at_exit"] == "1", dumped["blas"]
    assert dumped["blas"].get("at_numpy", "1") == "1", dumped["blas"]
    return dumped["modules"]


def _loaded_within(modules: Iterable[str], prefixes: Iterable[str]
                   ) -> List[str]:
    prefixes = tuple(prefixes)
    return sorted(module for module in modules
                  if any(module == prefix or module.startswith(prefix + ".")
                         for prefix in prefixes))


# ----------------------------------------------------------------------
# The export maps
# ----------------------------------------------------------------------
@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves_and_is_listed(package):
    module = importlib.import_module(package)
    listed = set(dir(module))
    for name in module.__all__:
        getattr(module, name)
        assert name in listed, f"{package}.{name} missing from dir()"


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_binds_every_export(package):
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    module = importlib.import_module(package)
    missing = sorted(set(module.__all__) - set(namespace))
    assert not missing, f"from {package} import * left unbound: {missing}"


@pytest.mark.parametrize("package", PACKAGES)
def test_export_map_names_the_defining_module(package):
    module = importlib.import_module(package)
    exports = module._EXPORTS
    assert set(exports) <= set(module.__all__)
    for name, target in exports.items():
        source = importlib.import_module(target, package)
        assert name in vars(source), \
            f"{package}._EXPORTS sends {name!r} to {source.__name__}, " \
            "which does not bind it"
        value = vars(source)[name]
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == source.__name__, \
                f"{package}._EXPORTS sends {name!r} to {source.__name__}, " \
                f"but it is defined in {value.__module__}"


def test_rpr001_checks_the_same_sets():
    """The static rule and these process pins enforce one policy."""
    assert tuple(f"repro.{name}" for name in DEFERRED_MODULES) \
        == NEVER_LOADED
    assert {entry.split(".")[0]: tuple(f"repro.{name}" for name in extra)
            for entry, extra in ENTRY_POINTS.items()} == ALSO_DEFERRED


def test_unknown_attribute_still_raises():
    import repro.sram

    with pytest.raises(AttributeError, match="no attribute 'Nope'"):
        repro.sram.Nope  # noqa: B018


def test_import_repro_loads_no_subsystem():
    code = ("import json, sys, repro\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            "                        if m.startswith('repro'))))")
    completed = subprocess.run([sys.executable, "-c", code], env=_env(),
                               capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr
    assert json.loads(completed.stdout) == ["repro", "repro._lazy"]


# ----------------------------------------------------------------------
# Module sets of the entry points, in fresh processes
# ----------------------------------------------------------------------
def test_prr_sweep_loads_only_what_it_runs(tmp_path):
    """(a) a one-case ``python -m repro.sweep --prr-grid`` run."""
    out, loaded = tmp_path / "out.json", tmp_path / "modules.json"
    completed = subprocess.run(
        _run_module(loaded, "repro.sweep", "--prr-grid",
                    "--geometry", "16x64", "--algorithm", "March C-",
                    "--quiet", "--json", str(out)),
        env=_env(), cwd=tmp_path, capture_output=True, text=True,
        timeout=300)
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert len(json.loads(out.read_text())["records"]) == 1
    modules = _loaded(loaded)
    assert "repro.engine.power_campaign" in modules  # it really ran
    assert _loaded_within(modules, NEVER_LOADED + ALSO_DEFERRED["sweep"]) \
        == []


def test_service_start_loads_only_what_it_runs(tmp_path):
    """(b) ``python -m repro.serve`` up to its readiness line (then
    stopped by SIGTERM; the stop loads no deferred module either)."""
    loaded = tmp_path / "modules.json"
    process = subprocess.Popen(
        _run_module(loaded, "repro.serve", "--port", "0",
                    "--cache-dir", str(tmp_path / "cache")),
        env=_env(), cwd=tmp_path, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    try:
        line = process.stdout.readline()
    finally:
        process.send_signal(signal.SIGTERM)
        _, stderr = process.communicate(timeout=60)
    assert line.startswith("[serve] listening on"), stderr[-2000:]
    assert process.returncode == 0, stderr[-2000:]
    modules = _loaded(loaded)
    assert "repro.serve.service" in modules
    assert _loaded_within(modules, NEVER_LOADED + ALSO_DEFERRED["serve"]) \
        == []


def test_distrib_worker_loads_only_what_it_runs(tmp_path):
    """(c) ``python -m repro.distrib worker`` finishing PRR-only leases."""
    from repro.distrib.coordinator import Coordinator
    from repro.sweep.runner import prr_grid

    root, loaded = tmp_path / "campaign", tmp_path / "modules.json"
    Coordinator.create(root, prr_grid(["16x64"], ["March C-", "MATS+"],
                                      backend="vectorized"), workers=1)
    completed = subprocess.run(
        _run_module(loaded, "repro.distrib", "worker", str(root),
                    "--worker-id", "solo"),
        env=_env(), cwd=tmp_path, capture_output=True, text=True,
        timeout=300)
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert "0 revoked" in completed.stdout
    assert Coordinator(root).status()["complete"]
    modules = _loaded(loaded)
    assert "repro.engine.power_campaign" in modules
    assert _loaded_within(modules, NEVER_LOADED + ALSO_DEFERRED["distrib"]) \
        == []


@pytest.mark.parametrize("module", ["repro.sweep", "repro.serve",
                                    "repro.distrib"])
def test_entry_point_keeps_an_explicit_blas_thread_count(tmp_path, module):
    """A value the user set wins over the entry point's default of 1."""
    dump = tmp_path / "dump.json"
    completed = subprocess.run(_run_module(dump, module, "--help"),
                               env=_env(OPENBLAS_NUM_THREADS="3"),
                               capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert json.loads(dump.read_text())["blas"]["at_exit"] == "3"


def test_cold_prr_pass_imports_only_the_engine_after_setup():
    """The benchmark's cold pass (``perfbench/child.py cold-pass``):
    set-up imports numpy, the grid engine and the sweep package; the
    run then imports exactly the two engine modules it executes, so no
    import cost moves from set-up into the measured run."""
    code = """
import sys
import numpy
from repro.engine import grid
from repro.sweep import SweepRunner, case_from_dict
ready = set(sys.modules)
cases = [case_from_dict({"kind": "prr", "rows": 64, "columns": 64,
                         "algorithm": "March C-", "backend": "vectorized",
                         "banks": 2})]
SweepRunner(cases, processes=1, strategy="batched").run()
print(" ".join(sorted(set(sys.modules) - ready)))
"""
    completed = subprocess.run([sys.executable, "-c", code], env=_env(),
                               capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.split() == ["repro.engine.power_campaign",
                                        "repro.engine.vectorized"]
