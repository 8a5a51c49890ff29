"""Functional fault simulator for March tests.

The simulator runs a March algorithm against a *logical* memory (values
only, no electrical model — that keeps full-array fault campaigns fast) with
one injected fault, and reports whether any read mismatched its expectation.
It is the tool behind the DOF-1 experiments: the same fault list is
simulated under different address orders and the detection results must
agree, which is the property the paper relies on when it fixes the address
order to "word line after word line".

Execution is backend-pluggable, mirroring
:class:`repro.core.session.TestSession`: ``backend="reference"`` replays a
shared compiled trace against one :class:`LogicalMemory` per injection,
``backend="vectorized"`` hands the whole fault list to the NumPy campaign
engine (:mod:`repro.engine.fault_campaign`) which simulates every injection
of a fault class simultaneously, and ``backend="auto"`` (the default) picks
the vectorized engine whenever the campaign qualifies — falling back to the
reference path for fault models it has no kernel for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..engine.dispatch import BackendDispatcher, EngineError
from ..march.algorithm import MarchAlgorithm
from ..march.element import AddressingDirection
from ..march.execution import OperationTrace, TraceCache
from ..march.ordering import AddressOrder
from ..sram.geometry import ArrayGeometry
from .backend import ReferenceFaultBackend
from .models import CellState, CouplingFault, FaultFree, FaultModel


class FaultSimulationError(Exception):
    """Raised on inconsistent fault injection requests."""


Coordinate = Tuple[int, int]


def type1_neighbourhood(geometry: ArrayGeometry,
                        victim: Coordinate) -> Tuple[Coordinate, ...]:
    """The type-1 NPSF neighbourhood of ``victim``: its in-bounds
    orthogonal (north, south, west, east) cells, in that order."""
    geometry.validate_coordinates(*victim)
    row, column = victim
    candidates = ((row - 1, column), (row + 1, column),
                  (row, column - 1), (row, column + 1))
    return tuple(
        (r, c) for r, c in candidates
        if 0 <= r < geometry.rows and 0 <= c < geometry.words_per_row)


@dataclass(frozen=True)
class FaultInjection:
    """A fault model placed at a victim cell (plus, depending on the model,
    an aggressor cell or a neighbourhood of cells)."""

    fault: FaultModel
    victim: Coordinate
    aggressor: Optional[Coordinate] = None
    neighbourhood: Optional[Tuple[Coordinate, ...]] = None

    def __post_init__(self) -> None:
        if self.fault.is_coupling and self.aggressor is None:
            raise FaultSimulationError(
                f"{self.fault.describe()} is a coupling fault and needs an aggressor")
        if not self.fault.is_coupling and self.aggressor is not None:
            raise FaultSimulationError(
                f"{self.fault.describe()} is a single-cell fault and takes no aggressor")
        if self.aggressor is not None and self.aggressor == self.victim:
            raise FaultSimulationError("aggressor and victim must be different cells")
        if self.fault.is_neighbourhood:
            if not self.neighbourhood:
                raise FaultSimulationError(
                    f"{self.fault.describe()} is a neighbourhood fault and "
                    "needs a non-empty neighbourhood")
            object.__setattr__(self, "neighbourhood", tuple(self.neighbourhood))
            if self.victim in self.neighbourhood:
                raise FaultSimulationError(
                    "the victim cannot be part of its own neighbourhood")
            if len(set(self.neighbourhood)) != len(self.neighbourhood):
                raise FaultSimulationError("neighbourhood cells must be distinct")
            pattern = getattr(self.fault, "pattern", None)
            if pattern is not None and len(pattern) != len(self.neighbourhood):
                raise FaultSimulationError(
                    f"{self.fault.describe()} has a {len(pattern)}-cell pattern "
                    f"but the neighbourhood has {len(self.neighbourhood)} cells")
        elif self.neighbourhood is not None:
            raise FaultSimulationError(
                f"{self.fault.describe()} takes no neighbourhood")

    def describe(self) -> str:
        if self.aggressor is not None:
            return f"{self.fault.describe()}@victim{self.victim}/aggressor{self.aggressor}"
        if self.neighbourhood is not None:
            return (f"{self.fault.describe()}@victim{self.victim}"
                    f"/neighbourhood{self.neighbourhood}")
        return f"{self.fault.describe()}@{self.victim}"


@dataclass
class DetectionResult:
    """Outcome of simulating one injected fault under one March run."""

    injection: FaultInjection
    algorithm: str
    order: str
    detected: bool
    first_detection_step: Optional[int] = None
    mismatches: int = 0

    def describe(self) -> str:
        status = "DETECTED" if self.detected else "missed"
        return f"{self.injection.describe()}: {status} by {self.algorithm} under {self.order}"


class LogicalMemory:
    """Value-only memory with one injected fault (bit-oriented)."""

    def __init__(self, geometry: ArrayGeometry,
                 injection: Optional[FaultInjection] = None) -> None:
        if geometry.bits_per_word != 1:
            raise FaultSimulationError(
                "the logical fault simulator models bit-oriented arrays "
                "(bits_per_word == 1), matching the paper's scope")
        self.geometry = geometry
        self.injection = injection
        self._states: Dict[Coordinate, CellState] = {}
        self._fault_free = FaultFree()
        #: last value observed on the data bus (used by stuck-open faults).
        self._bus_value = 0
        #: per-cell cycle stamp of the last access (for retention faults).
        self._last_access: Dict[Coordinate, int] = {}
        #: (cycle, kind) of the victim's most recent access — dynamic faults
        #: need the *kind* and exact adjacency, which ``_last_access`` (whose
        #: missing-key default of 0 would alias "never accessed" with cycle 0)
        #: cannot provide.
        self._victim_last: Optional[Tuple[int, str]] = None
        #: neighbourhood cell -> position in the injection's neighbourhood.
        self._neighbour_index: Dict[Coordinate, int] = {}
        self._cycle = 0
        if injection is not None:
            self.geometry.validate_coordinates(*injection.victim)
            if injection.aggressor is not None:
                self.geometry.validate_coordinates(*injection.aggressor)
            if injection.neighbourhood is not None:
                for position, cell in enumerate(injection.neighbourhood):
                    self.geometry.validate_coordinates(*cell)
                    self._neighbour_index[cell] = position

    # ------------------------------------------------------------------
    def _state(self, coordinate: Coordinate) -> CellState:
        state = self._states.get(coordinate)
        if state is None:
            state = CellState()
            self._states[coordinate] = state
        return state

    def _model_for(self, coordinate: Coordinate) -> FaultModel:
        if self.injection is not None and coordinate == self.injection.victim:
            return self.injection.fault
        return self._fault_free

    def _touch(self, coordinate: Coordinate) -> None:
        # Retention behaviour: how long since this cell was last accessed?
        if self.injection is not None and coordinate == self.injection.victim:
            idle = self._cycle - self._last_access.get(coordinate, 0)
            self.injection.fault.on_idle(self._state(coordinate), idle)
        self._last_access[coordinate] = self._cycle

    def _apply_coupling_after_aggressor(self, wrote: bool,
                                        old_value: Optional[int],
                                        new_value: Optional[int]) -> None:
        injection = self.injection
        if injection is None or injection.aggressor is None:
            return
        victim_state = self._state(injection.victim)
        if wrote:
            assert new_value is not None
            injection.fault.on_aggressor_write(victim_state, old_value, new_value)
        else:
            injection.fault.on_aggressor_read(victim_state, new_value)

    def _apply_coupling_on_victim_access(self) -> None:
        injection = self.injection
        if injection is None or injection.aggressor is None:
            return
        aggressor_state = self._state(injection.aggressor)
        injection.fault.on_aggressor_state(self._state(injection.victim),
                                           aggressor_state.value)

    def _neighbour_values(self) -> Tuple[Optional[int], ...]:
        assert self.injection is not None and self.injection.neighbourhood
        return tuple(self._state(cell).value
                     for cell in self.injection.neighbourhood)

    def _apply_neighbourhood_on_victim_access(self) -> None:
        injection = self.injection
        if injection is None or injection.neighbourhood is None:
            return
        injection.fault.on_neighbourhood_state(self._state(injection.victim),
                                               self._neighbour_values())

    def _victim_prev_kind(self) -> Optional[str]:
        """Kind of the access in the immediately preceding clock cycle,
        when that access hit the victim; ``None`` otherwise."""
        if self._victim_last is None:
            return None
        cycle, kind = self._victim_last
        return kind if cycle == self._cycle - 1 else None

    # ------------------------------------------------------------------
    def write(self, row: int, column: int, value: int) -> None:
        coordinate = (row, column)
        self._cycle += 1
        self._touch(coordinate)
        is_aggressor = (self.injection is not None
                        and self.injection.aggressor == coordinate)
        is_victim = (self.injection is not None
                     and self.injection.victim == coordinate)
        if is_victim:
            self._apply_coupling_on_victim_access()
            self._apply_neighbourhood_on_victim_access()
        state = self._state(coordinate)
        old_value = state.value
        self._model_for(coordinate).on_write(state, value)
        self._bus_value = value
        if is_victim:
            self._victim_last = (self._cycle, "w")
        if is_aggressor:
            self._apply_coupling_after_aggressor(True, old_value, value)
        neighbour = self._neighbour_index.get(coordinate)
        if neighbour is not None:
            assert self.injection is not None
            self.injection.fault.on_neighbourhood_write(
                self._state(self.injection.victim), neighbour,
                old_value, value, self._neighbour_values())

    def read(self, row: int, column: int) -> int:
        coordinate = (row, column)
        self._cycle += 1
        self._touch(coordinate)
        is_aggressor = (self.injection is not None
                        and self.injection.aggressor == coordinate)
        is_victim = (self.injection is not None
                     and self.injection.victim == coordinate)
        if is_victim:
            self._apply_coupling_on_victim_access()
            self._apply_neighbourhood_on_victim_access()
        state = self._state(coordinate)
        model = self._model_for(coordinate)
        if model.is_dynamic:
            observed = model.on_dynamic_read(state, self._victim_prev_kind())
        else:
            observed = model.on_read(state)
        if observed is None:
            observed = self._bus_value
        self._bus_value = observed
        if is_victim:
            self._victim_last = (self._cycle, "r")
        if is_aggressor:
            self._apply_coupling_after_aggressor(False, None, state.value)
        return observed

    def peek(self, row: int, column: int) -> Optional[int]:
        return self._state((row, column)).value


class FaultSimulator:
    """Run March algorithms against injected faults and report detection.

    ``backend`` selects the execution engine:

    * ``"reference"`` — the scalar ground truth: one :class:`LogicalMemory`
      per injection replaying a shared compiled trace.  Supports every
      :class:`~repro.faults.models.FaultModel`, including user subclasses.
    * ``"vectorized"`` — the NumPy campaign engine
      (:class:`repro.engine.fault_campaign.VectorizedFaultCampaign`):
      all injections of a fault class simulated simultaneously as parallel
      state arrays.  Raises
      :class:`repro.engine.fault_campaign.UnsupportedFaultCampaign` for
      fault models it has no kernel for (and needs numpy).
    * ``"auto"`` (default) — vectorized when the campaign qualifies,
      silently falling back to the reference engine otherwise.

    Both engines produce bit-identical :class:`DetectionResult` lists —
    same verdicts, first-detection steps and mismatch counts — which the
    test-suite asserts across every standard fault model, both addressing
    directions and several address orders.  :attr:`last_backend_used`
    reports which engine executed the most recent call.
    """

    def __init__(self, geometry: ArrayGeometry,
                 any_direction: AddressingDirection = AddressingDirection.UP,
                 backend: str = "auto",
                 trace_cache: Optional[TraceCache] = None) -> None:
        self._dispatch = BackendDispatcher(self._make_engine,
                                           error=FaultSimulationError)
        self.backend = self._dispatch.validate(backend)
        self.geometry = geometry
        self.any_direction = any_direction
        # ``trace_cache`` optionally shares compiled traces across
        # simulators (the sweep orchestrator passes its process-local one).
        self._reference = ReferenceFaultBackend(geometry, any_direction,
                                                traces=trace_cache)

    @property
    def last_backend_used(self) -> Optional[str]:
        """Engine that executed the calling thread's most recent simulate
        call ("reference"/"vectorized"; ``None`` before the first call).
        Thread-local so concurrent campaigns through a shared simulator
        never mis-attribute provenance.
        """
        return self._dispatch.last_backend_used

    @last_backend_used.setter
    def last_backend_used(self, backend: Optional[str]) -> None:
        self._dispatch.note_backend_used(backend)

    # ------------------------------------------------------------------
    def _make_engine(self):
        """Build the vectorized campaign engine (imported lazily: numpy)."""
        from ..engine.fault_campaign import VectorizedFaultCampaign

        return VectorizedFaultCampaign(
            self.geometry, any_direction=self.any_direction)

    def trace_for(self, algorithm: MarchAlgorithm,
                  order: AddressOrder) -> OperationTrace:
        """The compiled operation trace shared by both backends (cached)."""
        return self._reference.trace_for(algorithm, order)

    # ------------------------------------------------------------------
    def simulate(self, algorithm: MarchAlgorithm, order: AddressOrder,
                 injection: Optional[FaultInjection]) -> DetectionResult:
        """Simulate one injected fault (or the fault-free memory) under one run."""
        if injection is None:
            # The fault-free run needs no fault kernels; replay directly.
            result = self._reference.simulate_one(algorithm, order, None)
            self.last_backend_used = "reference"
            return result
        return self.simulate_many(algorithm, order, [injection])[0]

    def simulate_many(self, algorithm: MarchAlgorithm, order: AddressOrder,
                      injections: Iterable[FaultInjection]) -> List[DetectionResult]:
        """Simulate a whole fault list under one run (the campaign call).

        Results are returned in input order.  The selected backend (see
        the class docstring) executes the complete batch; ``"auto"`` falls
        back to the reference engine when the vectorized campaign rejects
        the batch (unknown fault model, missing numpy).
        """
        injections = list(injections)
        trace = self.trace_for(algorithm, order)

        def simulate_vectorized(campaign) -> List[DetectionResult]:
            results = campaign.simulate_many(algorithm, order, injections,
                                             trace=trace)
            self.last_backend_used = "vectorized"
            return results

        def simulate_reference() -> List[DetectionResult]:
            results = self._reference.simulate_many(algorithm, order,
                                                    injections, trace=trace)
            self.last_backend_used = "reference"
            return results

        if not injections:
            return simulate_reference()
        # A rejected batch (unknown fault model, unsupported geometry,
        # missing numpy) leaves the engine without corrupt state, so the
        # cached instance stays valid for later batches — no invalidation.
        return self._dispatch.call(
            self.backend, vectorized=simulate_vectorized,
            reference=simulate_reference,
            fallback=(EngineError, ImportError))

    def fault_free_passes(self, algorithm: MarchAlgorithm, order: AddressOrder) -> bool:
        """Sanity check: the fault-free memory must never flag a mismatch."""
        return not self.simulate(algorithm, order, None).mismatches
