"""RPR001 — lazy-import purity.

``import repro`` must stay cheap and optional-dependency-free: the heavy
numerics stacks (numpy, numba, cupy) load behind the PEP 562
``__getattr__`` seams and the engine dispatcher, never at package import
time.  The dynamic tests (``tests/test_lazy_imports.py``) prove it for
real interpreter runs; this rule proves it for the whole *static* eager
import graph, including edges that only materialise through lazy-export
maps (``from repro.engine import BACKEND_CHOICES`` eagerly loads
``repro.engine.dispatch``).

The same graph keeps each command-line entry point's start-up small: the
eager graph of ``python -m repro.sweep`` / ``repro.serve`` /
``repro.distrib`` (the ``__main__`` module and the packages ``-m`` runs
first) must not reach a module that only one case kind, one subcommand
or the behavioural reference path executes (:data:`DEFERRED_MODULES`,
plus the per-entry-point :data:`ENTRY_POINTS` extras).  Those modules
are imported inside the functions that use them.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

from ..findings import Finding
from ..importgraph import ImportEdge, ImportGraph
from ..project import Project

#: Top-level modules the eager graph of a scanned package must not reach.
FORBIDDEN_ROOTS = ("cupy", "numba", "numpy")

#: Modules no entry point may load at start-up, relative to the root
#: package (each also covers its submodules): the transient circuit
#: solver and gate library, the behavioural SRAM and its column,
#: bit-line, pre-charge and periphery models, the pre-charge controller,
#: the analysis helpers, the DOF catalogue, the fault models and the
#: power session.
DEFERRED_MODULES = (
    "analysis",
    "circuit.elements",
    "circuit.gates",
    "circuit.mosfet",
    "circuit.transient",
    "circuit.waveform",
    "core.precharge_controller",
    "core.session",
    "faults",
    "march.dof",
    "sram.bitline",
    "sram.column",
    "sram.memory",
    "sram.periphery",
    "sram.precharge",
)

#: Entry point (relative to the root package) → the further modules only
#: some of its subcommands run.
ENTRY_POINTS: Dict[str, Tuple[str, ...]] = {
    "sweep.__main__": ("sweep.merge",),
    "serve.__main__": ("serve.client",),
    "distrib.__main__": ("sweep.merge", "distrib.coordinator"),
}


def _is_within(module: str, prefix: str) -> bool:
    """True when ``module`` is ``prefix`` or one of its submodules."""
    return module == prefix or module.startswith(prefix + ".")


class LazyImportChecker:
    """Prove no scanned root package eagerly reaches a forbidden module,
    and no entry point a module it defers."""

    rule_id = "RPR001"
    title = ("lazy-import purity: package import graphs must not eagerly "
             "reach numpy/numba/cupy, nor entry points their deferred "
             "modules")

    def check(self, project: Project) -> Iterator[Finding]:
        graph = ImportGraph(project)
        for root in project.root_packages():
            yield from self._check_root(project, graph, root)
            for entry, extra in ENTRY_POINTS.items():
                yield from self._check_entry_point(
                    project, graph, f"{root}.{entry}",
                    [f"{root}.{name}" for name in DEFERRED_MODULES + extra])

    def _check_root(self, project: Project, graph: ImportGraph,
                    root: str) -> Iterator[Finding]:
        parents = graph.reachable_from(root)
        for target in sorted(parents):
            if target not in FORBIDDEN_ROOTS:
                continue
            chain = graph.chain_to(parents, target, root)
            yield self._finding(
                project, parents[target][1],
                f"'import {root}' eagerly reaches '{target}' "
                f"(chain: {' -> '.join(chain)}); heavy numerics must stay "
                f"behind the lazy-import seams")

    def _check_entry_point(self, project: Project, graph: ImportGraph,
                           entry: str,
                           deferred: List[str]) -> Iterator[Finding]:
        if entry not in project.by_name:
            return
        # ``python -m pkg`` imports pkg's ancestors, then runs __main__.
        command = entry.rsplit(".", 1)[0]
        parts = command.split(".")
        ancestors = [".".join(parts[:index])
                     for index in range(1, len(parts) + 1)]
        parents = graph.reachable_from(entry, *ancestors)
        reported: Set[str] = set()
        for target in parents:  # BFS order: the shortest chain comes first
            prefix = next((prefix for prefix in deferred
                           if _is_within(target, prefix)), None)
            if prefix is None or prefix in reported:
                continue
            reported.add(prefix)  # one finding per deferred module
            # The walk back stops at whichever start module loaded it.
            chain = graph.chain_to(parents, target, entry)
            yield self._finding(
                project, parents[target][1],
                f"'python -m {command}' eagerly loads '{target}' "
                f"(chain: {' -> '.join(chain)}); import it inside the "
                f"subcommand or case kind that runs it")

    def _finding(self, project: Project, edge: ImportEdge,
                 message: str) -> Finding:
        module = project.by_name[edge.importer]
        return Finding(path=module.display_path, line=edge.line,
                       rule=self.rule_id, message=message)
