"""repro — reproduction of "Minimizing Test Power in SRAM through Reduction
of Pre-charge Activity" (Dilillo, Rosinger, Al-Hashimi, Girard — DATE 2006).

The package is organised as one subpackage per subsystem:

* :mod:`repro.circuit`  — Spice-substitute transient/gate simulation substrate
* :mod:`repro.sram`     — behavioural, cycle-accurate SRAM with pre-charge and RES modelling
* :mod:`repro.power`    — per-event energy model and cycle-accurate accounting
* :mod:`repro.march`    — March test notation, algorithm library, address orders
* :mod:`repro.faults`   — functional fault models and backend-pluggable DOF-1 coverage campaigns
* :mod:`repro.core`     — the paper's contribution: modified pre-charge control,
  low-power test mode planning, analytical PRR model, test sessions
* :mod:`repro.bist`     — a BIST engine that deploys the low-power test mode,
  with backend-pluggable power measurement
* :mod:`repro.analysis` — experiment support: circuit fixtures and table rendering
* :mod:`repro.engine`   — NumPy-vectorized batch backends: power measurement,
  fault campaigns and BIST power campaigns
* :mod:`repro.sweep`    — scenario-grid sweep runner (power + coverage +
  measured-vs-analytical PRR) and the ``python -m repro.sweep`` CLI
* :mod:`repro.serve`    — long-running campaign service: JSON/HTTP front,
  content-addressed result cache, request coalescing onto stacked engine
  passes, replayable workload traces (``python -m repro.serve``)
* :mod:`repro.devtools` — AST-based static analysis enforcing the repo's
  lazy-import / thread-safety / durability / provenance / schema
  invariants as a CI gate (``python -m repro.devtools.lint``)

Quickstart::

    from repro import ArrayGeometry, TestSession, MARCH_CM

    geometry = ArrayGeometry(rows=64, columns=64)
    session = TestSession(geometry)
    comparison = session.compare_modes(MARCH_CM)
    print(f"PRR = {comparison.prr:.1%}")

The same measurement at the paper's full 512 x 512 scale runs in seconds on
the vectorized backend::

    from repro import PAPER_GEOMETRY, TestSession, MARCH_CM

    session = TestSession(PAPER_GEOMETRY, backend="vectorized")
    print(f"PRR = {session.compare_modes(MARCH_CM).prr:.1%}")

So does the paper's Section 3 admissibility argument — fault detection
does not depend on the chosen address order — on the vectorized fault
campaign engine::

    from repro import MARCH_CM, PAPER_GEOMETRY, build_fault_list, check_order_invariance
    from repro.march.dof import coverage_equivalence_orders

    faults = build_fault_list(PAPER_GEOMETRY)
    orders = coverage_equivalence_orders(PAPER_GEOMETRY)
    report = check_order_invariance(MARCH_CM, orders, PAPER_GEOMETRY, faults)
    assert report.invariant

And so does the measured Table 1 through the BIST deployment path, on the
vectorized power campaign::

    from repro import BistController, MARCH_CM, PAPER_GEOMETRY

    controller = BistController(PAPER_GEOMETRY, backend="auto")
    result = controller.run(MARCH_CM, low_power=True)
    print(result.describe())

Every name below resolves lazily (PEP 562): ``import repro`` loads none
of the subsystems, and ``from repro import TestSession`` imports only
the module that defines :class:`~repro.core.session.TestSession` and its
own dependencies.  Each subpackage exports the same way, so a process
imports only what it runs.
"""

from ._lazy import lazy_exports

__version__ = "1.12.0"

#: The paper this repository reproduces.
PAPER_REFERENCE = (
    "L. Dilillo, P. Rosinger, B. M. Al-Hashimi, P. Girard, "
    "\"Minimizing Test Power in SRAM through Reduction of Pre-charge Activity\", "
    "Design, Automation and Test in Europe (DATE), 2006."
)

#: The submodule that defines each exported name, imported on first access.
_EXPORTS = {
    "TechnologyParameters": ".circuit.technology",
    "PAPER_TECHNOLOGY": ".circuit.technology",
    "default_technology": ".circuit.technology",
    "ArrayGeometry": ".sram.geometry",
    "PAPER_GEOMETRY": ".sram.geometry",
    "SMALL_GEOMETRY": ".sram.geometry",
    "SRAM": ".sram.memory",
    "OperatingMode": ".sram.modes",
    "PrechargePlan": ".sram.modes",
    "solid_background": ".sram.array",
    "checkerboard_background": ".sram.array",
    "EnergyLedger": ".power.accounting",
    "PowerModel": ".power.model",
    "PowerSource": ".power.sources",
    "MarchAlgorithm": ".march.algorithm",
    "parse_march": ".march.parser",
    "get_algorithm": ".march.library",
    "RowMajorOrder": ".march.ordering",
    "MARCH_CM": ".march.library",
    "MARCH_SS": ".march.library",
    "MATS_PLUS": ".march.library",
    "MARCH_SR": ".march.library",
    "MARCH_G": ".march.library",
    "PAPER_TABLE1_ALGORITHMS": ".march.library",
    "AnalyticalPowerModel": ".core.prr",
    "LowPowerTestPlanner": ".core.lowpower",
    "ModifiedPrechargeController": ".core.precharge_controller",
    "TestSession": ".core.session",
    "ModeComparison": ".core.session",
    "compare_modes": ".core.session",
    "BistController": ".bist.controller",
    "BistOrder": ".bist.address_generator",
    "BistResult": ".bist.controller",
    "POWER_BACKENDS": ".bist.backend",
    "FaultInjection": ".faults.simulator",
    "FaultSimulator": ".faults.simulator",
    "StuckAtFault": ".faults.models",
    "FAULT_BACKENDS": ".faults.backend",
    "build_fault_list": ".faults.coverage",
    "check_order_invariance": ".faults.coverage",
    "run_campaign": ".faults.coverage",
    "run_coverage": ".faults.coverage",
    "VectorizedEngine": ".engine.vectorized",
    "EngineError": ".engine.dispatch",
    "UnsupportedConfiguration": ".engine.vectorized",
    "VectorizedFaultCampaign": ".engine.fault_campaign",
    "UnsupportedFaultCampaign": ".engine.fault_campaign",
    "VectorizedPowerCampaign": ".engine.power_campaign",
    "SweepRunner": ".sweep.runner",
    "SweepCase": ".sweep.runner",
    "CoverageCase": ".sweep.runner",
    "PrrCase": ".sweep.runner",
    "SweepResult": ".sweep.runner",
    "sweep_grid": ".sweep.runner",
    "coverage_grid": ".sweep.runner",
    "prr_grid": ".sweep.runner",
}

__all__ = ["PAPER_REFERENCE", "__version__", *_EXPORTS]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
