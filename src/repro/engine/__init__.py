"""Vectorized batch execution backends (power measurement + fault campaigns).

* :mod:`repro.engine.dispatch` — the shared backend-selection seam: the
  backend and kernel choices, the :class:`BackendDispatcher` fallback
  scaffold used by every facade, and the NumPy-free :class:`EngineError`
  root of the engine exception hierarchy.
* :mod:`repro.engine.vectorized` — the NumPy power-measurement engine:
  simulates an entire March element over the whole array as array operations
  (background state, pre-charge activity masks, RES stress counters and
  per-event energy accumulation as vector reductions) instead of per-cell
  Python loops.
* :mod:`repro.engine.fault_campaign` — the NumPy fault-campaign engine:
  simulates every injection of a fault class simultaneously as parallel
  victim-state arrays over one shared compiled operation trace, emitting
  per-fault detection verdicts bit-identical to the reference simulator.
* :mod:`repro.engine.power_campaign` — the NumPy BIST power-campaign
  engine: replays a compiled operation trace and computes the pre-charge
  activity, comparator outcomes and all five Section 5 power sources in
  closed vector form, for both pre-charge planners (the measured Table 1
  workload).
* :mod:`repro.engine.compiled` — the optional compiled kernel tier
  (``kernel="jit"``: a Numba port of the flat kernel's per-slot
  reductions).  Imported lazily on first use and never required: when
  numba is absent the engine falls back to the ``"flat"`` numpy kernel
  with a single warning, and every result records the tier that
  actually ran.
* :mod:`repro.engine.grid` — the grid-batched evaluation layer:
  per-geometry groups of sweep scenarios (all algorithms, orders and both
  planners) evaluated through one stacked flat-kernel pass sharing one
  compiled-trace cache, with records bit-identical to the per-case path
  (the ``strategy="batched"`` seam of :class:`repro.sweep.SweepRunner`).

The engines plug into their session APIs through a ``backend`` switch
(:class:`repro.core.session.TestSession`,
:class:`repro.faults.FaultSimulator` and
:class:`repro.bist.BistController`: ``"reference"``, ``"vectorized"`` or
``"auto"``) and are what make the paper-scale 512 x 512 measured
experiments, the DOF-1 coverage campaigns and the :mod:`repro.sweep`
scenario grids tractable.

Attribute access is lazy (PEP 562): importing :mod:`repro.engine` — or the
numpy-free :mod:`repro.engine.dispatch` — never loads the vectorized
modules, so the scalar layers and the sweep orchestrator can catch
:class:`EngineError` and enumerate the backend and kernel choices without
numpy installed.
"""

from importlib import import_module
from typing import TYPE_CHECKING

#: Which submodule provides each lazily-exported name.
_EXPORTS = {
    "VectorizedEngine": ".vectorized",
    "CellStressTotals": ".vectorized",
    "UnsupportedConfiguration": ".vectorized",
    # kernel-tier surface (the "jit" compiled tier and its
    # availability/fallback helpers) lives on the vectorized module.
    "KERNELS": ".vectorized",
    "available_kernels": ".vectorized",
    "kernel_available": ".vectorized",
    "resolve_kernel": ".vectorized",
    "reset_kernel_state": ".vectorized",
    "VectorizedFaultCampaign": ".fault_campaign",
    "UnsupportedFaultCampaign": ".fault_campaign",
    "VectorizedPowerCampaign": ".power_campaign",
    "BatchedGridEngine": ".grid",
    # dispatch is numpy-free; resolving these never loads an engine module.
    "EngineError": ".dispatch",
    "BackendDispatcher": ".dispatch",
    "BACKEND_CHOICES": ".dispatch",
    "KERNEL_CHOICES": ".dispatch",
}

__all__ = list(_EXPORTS)

if TYPE_CHECKING:  # pragma: no cover - static imports for type checkers
    from .dispatch import (
        BACKEND_CHOICES,
        KERNEL_CHOICES,
        BackendDispatcher,
        EngineError,
    )
    from .fault_campaign import UnsupportedFaultCampaign, VectorizedFaultCampaign
    from .grid import BatchedGridEngine
    from .power_campaign import VectorizedPowerCampaign
    from .vectorized import (
        KERNELS,
        CellStressTotals,
        UnsupportedConfiguration,
        VectorizedEngine,
        available_kernels,
        kernel_available,
        reset_kernel_state,
        resolve_kernel,
    )


def __getattr__(name: str):
    """Resolve an exported name from its submodule on first access."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module, __name__), name)
    globals()[name] = value  # cache: subsequent access skips __getattr__
    return value


def __dir__():
    """Advertise the lazy exports alongside the module globals."""
    return sorted(set(globals()) | set(_EXPORTS))
