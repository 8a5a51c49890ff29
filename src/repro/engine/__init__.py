"""Vectorized batch execution backends (power measurement + fault campaigns).

* :mod:`repro.engine.dispatch` — the shared backend-selection seam: the
  backend choices, the :class:`BackendDispatcher` fallback scaffold used
  by every facade, and the NumPy-free :class:`EngineError` root of the
  engine exception hierarchy.
* :mod:`repro.engine.vectorized` — the NumPy power-measurement engine and
  its one kernel, the flat kernel: a whole run reduced over the compiled
  segment shapes of its trace (pre-charge activity, RES stress counters
  and per-event energies as closed-form sums weighted by shape
  multiplicity) instead of per-cell Python loops.
* :mod:`repro.engine.fault_campaign` — the NumPy fault-campaign engine:
  simulates every injection of a fault class simultaneously as parallel
  victim-state arrays over one shared compiled operation trace, emitting
  per-fault detection verdicts bit-identical to the reference simulator.
* :mod:`repro.engine.power_campaign` — the NumPy BIST power-campaign
  engine: replays a compiled operation trace and computes the pre-charge
  activity, comparator outcomes and all five Section 5 power sources in
  closed vector form, for both pre-charge planners (the measured Table 1
  workload).
* :mod:`repro.engine.grid` — the grid-batched evaluation layer every
  sweep, distrib worker and service wave executes cases through:
  per-geometry groups of scenarios (all algorithms, orders and both
  planners) in one stacked flat-kernel pass sharing one compiled-trace
  cache, with records bit-identical to each case's own executor.

The engines plug into their session APIs through a ``backend`` switch
(:class:`repro.core.session.TestSession`,
:class:`repro.faults.FaultSimulator` and
:class:`repro.bist.BistController`: ``"reference"``, ``"vectorized"`` or
``"auto"``) and are what make the paper-scale 512 x 512 measured
experiments, the DOF-1 coverage campaigns and the :mod:`repro.sweep`
scenario grids tractable.  The behavioural reference backend is the one
oracle every engine is tested against.

Attribute access is lazy (PEP 562): importing :mod:`repro.engine` — or the
numpy-free :mod:`repro.engine.dispatch` — never loads the vectorized
modules, so the scalar layers and the sweep orchestrator can catch
:class:`EngineError` and enumerate the backend choices without numpy
installed.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

#: Which submodule provides each lazily-exported name.
_EXPORTS = {
    "VectorizedEngine": ".vectorized",
    "CellStressTotals": ".vectorized",
    "UnsupportedConfiguration": ".vectorized",
    "VectorizedFaultCampaign": ".fault_campaign",
    "UnsupportedFaultCampaign": ".fault_campaign",
    "VectorizedPowerCampaign": ".power_campaign",
    "BatchedGridEngine": ".grid",
    # dispatch is numpy-free; resolving these never loads an engine module.
    "EngineError": ".dispatch",
    "BackendDispatcher": ".dispatch",
    "BACKEND_CHOICES": ".dispatch",
}

__all__ = list(_EXPORTS)

if TYPE_CHECKING:  # pragma: no cover - static imports for type checkers
    from .dispatch import BACKEND_CHOICES, BackendDispatcher, EngineError
    from .fault_campaign import UnsupportedFaultCampaign, VectorizedFaultCampaign
    from .grid import BatchedGridEngine
    from .power_campaign import VectorizedPowerCampaign
    from .vectorized import (
        CellStressTotals,
        UnsupportedConfiguration,
        VectorizedEngine,
    )

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
