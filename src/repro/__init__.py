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
* :mod:`repro.analysis` — experiment methodology helpers (scaling, fixtures, tables)
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
"""

from .circuit import PAPER_TECHNOLOGY, TechnologyParameters, default_technology
from .sram import (
    ArrayGeometry,
    OperatingMode,
    PAPER_GEOMETRY,
    PrechargePlan,
    SMALL_GEOMETRY,
    SRAM,
    checkerboard_background,
    solid_background,
)
from .power import EnergyLedger, PowerModel, PowerSource
from .march import (
    MARCH_CM,
    MARCH_G,
    MARCH_SR,
    MARCH_SS,
    MATS_PLUS,
    MarchAlgorithm,
    PAPER_TABLE1_ALGORITHMS,
    RowMajorOrder,
    get_algorithm,
    parse_march,
)
from .core import (
    AnalyticalPowerModel,
    LowPowerTestPlanner,
    ModeComparison,
    ModifiedPrechargeController,
    TestSession,
    compare_modes,
)
from .bist import BistController, BistOrder, BistResult, POWER_BACKENDS
from .faults import (
    FAULT_BACKENDS,
    FaultInjection,
    FaultSimulator,
    StuckAtFault,
    build_fault_list,
    check_order_invariance,
    run_campaign,
    run_coverage,
)
from .engine import (  # numpy-free: resolved from engine.dispatch
    KERNEL_CHOICES,
    EngineError,
)
from .sweep import (
    CoverageCase,
    PrrCase,
    SweepCase,
    SweepResult,
    SweepRunner,
    coverage_grid,
    prr_grid,
    sweep_grid,
)

__version__ = "1.11.0"

#: Engine classes resolved lazily (PEP 562) so that importing :mod:`repro`
#: (or any scalar subsystem) never loads numpy; the vectorized modules load
#: on first attribute access instead.
_LAZY_ENGINE_EXPORTS = (
    "VectorizedEngine",
    "UnsupportedConfiguration",
    "VectorizedFaultCampaign",
    "UnsupportedFaultCampaign",
    "VectorizedPowerCampaign",
    # kernel-tier helpers (numpy loads on first use, numba never before
    # the compiled tier is actually requested)
    "KERNELS",
    "available_kernels",
    "resolve_kernel",
)


def __getattr__(name: str):
    """Resolve the vectorized engine exports from :mod:`repro.engine` lazily."""
    if name in _LAZY_ENGINE_EXPORTS:
        from . import engine

        value = getattr(engine, name)
        globals()[name] = value  # cache: subsequent access skips __getattr__
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    """Advertise the lazy engine exports alongside the module globals."""
    return sorted(set(globals()) | set(_LAZY_ENGINE_EXPORTS))

#: The paper this repository reproduces.
PAPER_REFERENCE = (
    "L. Dilillo, P. Rosinger, B. M. Al-Hashimi, P. Girard, "
    "\"Minimizing Test Power in SRAM through Reduction of Pre-charge Activity\", "
    "Design, Automation and Test in Europe (DATE), 2006."
)

__all__ = [
    "PAPER_REFERENCE", "__version__",
    "TechnologyParameters", "PAPER_TECHNOLOGY", "default_technology",
    "ArrayGeometry", "PAPER_GEOMETRY", "SMALL_GEOMETRY", "SRAM",
    "OperatingMode", "PrechargePlan", "solid_background", "checkerboard_background",
    "EnergyLedger", "PowerModel", "PowerSource",
    "MarchAlgorithm", "parse_march", "get_algorithm", "RowMajorOrder",
    "MARCH_CM", "MARCH_SS", "MATS_PLUS", "MARCH_SR", "MARCH_G",
    "PAPER_TABLE1_ALGORITHMS",
    "AnalyticalPowerModel", "LowPowerTestPlanner", "ModifiedPrechargeController",
    "TestSession", "ModeComparison", "compare_modes",
    "BistController", "BistOrder", "BistResult", "POWER_BACKENDS",
    "FaultInjection", "FaultSimulator", "StuckAtFault", "FAULT_BACKENDS",
    "build_fault_list", "check_order_invariance", "run_campaign", "run_coverage",
    "VectorizedEngine", "EngineError", "UnsupportedConfiguration",
    "VectorizedFaultCampaign", "UnsupportedFaultCampaign",
    "VectorizedPowerCampaign",
    "KERNEL_CHOICES", "KERNELS", "available_kernels", "resolve_kernel",
    "SweepRunner", "SweepCase", "CoverageCase", "PrrCase", "SweepResult",
    "sweep_grid", "coverage_grid", "prr_grid",
]
