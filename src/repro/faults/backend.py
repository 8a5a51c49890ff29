"""Pluggable fault-simulation backends.

Fault campaigns are batch workloads: the same March run replayed against a
whole list of injected faults.  This module defines the backend seam the
campaign layer plugs into — mirroring the ``backend`` switch
:class:`repro.core.session.TestSession` uses for power measurement:

* :class:`ReferenceFaultBackend` — the cycle-accurate scalar path: one
  :class:`~repro.faults.simulator.LogicalMemory` per injection, replaying a
  *shared* compiled :class:`~repro.march.execution.OperationTrace` (the
  trace is built once per (algorithm, order, direction) and reused across
  every injection, instead of re-walking the address order per fault).
* ``"vectorized"`` — :class:`repro.engine.fault_campaign.VectorizedFaultCampaign`,
  which simulates every injection of a fault class, under every order of a
  campaign, simultaneously as NumPy state arrays.  It lives in
  :mod:`repro.engine` so the faults layer stays importable without numpy.

Both backends must produce bit-identical
:class:`~repro.faults.simulator.DetectionResult` lists; the test-suite
asserts this across every standard fault model, both addressing
directions and several address orders.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Protocol, Sequence

from ..engine.dispatch import BACKEND_CHOICES
from ..march.algorithm import MarchAlgorithm
from ..march.element import AddressingDirection
from ..march.execution import OperationTrace, TraceCache
from ..march.ordering import AddressOrder
from ..sram.geometry import ArrayGeometry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .simulator import DetectionResult, FaultInjection


#: Valid values of the ``backend`` switch of :class:`repro.faults.FaultSimulator`.
FAULT_BACKENDS = BACKEND_CHOICES


class FaultBackend(Protocol):
    """Protocol every fault-simulation backend implements.

    A backend turns (algorithm, orders, injection list) into one
    :class:`~repro.faults.simulator.DetectionResult` list per order, each
    with one result per injection in input order (:meth:`simulate_orders`,
    the campaign call); :meth:`simulate_many` is its one-order form.  The
    reference backend replays each order's compiled trace per injection;
    the vectorized engine needs only each lane's victim, aggressor and
    neighbour positions, so it replays each fault class once for every
    order together.  ``trace`` is an optional pre-compiled run
    description for the one order (the reference backend replays it;
    the vectorized engine does not read it).
    """

    #: registry name of the backend ("reference" / "vectorized").
    name: str

    def simulate_orders(self, algorithm: MarchAlgorithm,
                        orders: Sequence[AddressOrder],
                        injections: Sequence["FaultInjection"],
                        ) -> List[List["DetectionResult"]]:
        """Simulate every injection under each order; one list per order."""
        ...  # pragma: no cover - protocol stub

    def simulate_many(self, algorithm: MarchAlgorithm, order: AddressOrder,
                      injections: Sequence["FaultInjection"],
                      trace: Optional[OperationTrace] = None,
                      ) -> List["DetectionResult"]:
        """Simulate every injection under one March run; results in input order."""
        ...  # pragma: no cover - protocol stub


class ReferenceFaultBackend:
    """Scalar per-fault replay over a shared compiled operation trace.

    The behavioural ground truth: one
    :class:`~repro.faults.simulator.LogicalMemory` per injection, every
    fault-model hook executed exactly as defined in
    :mod:`repro.faults.models`.  The only optimisation over the naive
    per-fault :func:`repro.march.execution.walk` is that the address
    traversal is compiled once per (algorithm, order, direction) and
    replayed as plain tuples — results are unchanged (the regression test
    pins this against a fresh-walk implementation).
    """

    name = "reference"

    def __init__(self, geometry: ArrayGeometry,
                 any_direction: AddressingDirection = AddressingDirection.UP,
                 traces: Optional[TraceCache] = None) -> None:
        self.geometry = geometry
        self.any_direction = any_direction
        # Optionally a caller-shared cache (e.g. the sweep orchestrator's
        # process-local one), so campaigns across simulator instances reuse
        # compiled traces instead of recompiling per case.
        self._traces = traces if traces is not None else TraceCache()

    # ------------------------------------------------------------------
    def trace_for(self, algorithm: MarchAlgorithm,
                  order: AddressOrder) -> OperationTrace:
        """The cached compiled trace of ``algorithm`` over ``order``."""
        return self._traces.get(algorithm, order, self.any_direction)

    def simulate_one(self, algorithm: MarchAlgorithm, order: AddressOrder,
                     injection: Optional["FaultInjection"],
                     trace: Optional[OperationTrace] = None,
                     ) -> "DetectionResult":
        """Simulate one injection (or the fault-free memory, ``None``)."""
        from .simulator import (  # deferred: simulator imports this module
            DetectionResult, FaultInjection, LogicalMemory)
        from .models import FaultFree

        if trace is None:
            trace = self.trace_for(algorithm, order)
        memory = LogicalMemory(self.geometry, injection)
        write = memory.write
        read = memory.read
        mismatches = 0
        first: Optional[int] = None
        for index, row, word, operation in trace.iter_accesses():
            if operation.is_write:
                write(row, word, operation.value)
                continue
            if read(row, word) != operation.value:
                mismatches += 1
                if first is None:
                    first = index
        return DetectionResult(
            injection=injection if injection is not None else FaultInjection(
                fault=FaultFree(), victim=(0, 0)),
            algorithm=algorithm.name,
            order=order.name,
            detected=mismatches > 0,
            first_detection_step=first,
            mismatches=mismatches,
        )

    def simulate_many(self, algorithm: MarchAlgorithm, order: AddressOrder,
                      injections: Sequence["FaultInjection"],
                      trace: Optional[OperationTrace] = None,
                      ) -> List["DetectionResult"]:
        """Replay the shared trace once per injection (scalar loop)."""
        if trace is None:
            trace = self.trace_for(algorithm, order)
        return [self.simulate_one(algorithm, order, injection, trace=trace)
                for injection in injections]

    def simulate_orders(self, algorithm: MarchAlgorithm,
                        orders: Sequence[AddressOrder],
                        injections: Sequence["FaultInjection"],
                        ) -> List[List["DetectionResult"]]:
        """One :meth:`simulate_many` per order, over its cached trace."""
        injections = list(injections)
        return [self.simulate_many(algorithm, order, injections)
                for order in orders]
