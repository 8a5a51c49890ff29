"""Test sessions: run a March algorithm on the behavioural SRAM and measure.

A :class:`TestSession` wires together the pieces the experiments need:

* the behavioural memory (:class:`repro.sram.SRAM`),
* a March algorithm and an address order (DOF 1 choice),
* a pre-charge planner (functional mode or the paper's low-power test mode),

executes the whole test and returns a :class:`TestRunResult` with the
energy ledger, average power, stress counters, read mismatches (fault
detections) and any faulty swaps.  :func:`compare_modes` runs the same
algorithm in both modes on identical memories and reports the measured
Power Reduction Ratio — the quantity of the paper's Table 1.

Execution is pluggable: the default ``backend="reference"`` walks the
behavioural memory cycle by cycle, while ``backend="vectorized"`` hands the
run to the NumPy batch engine of :mod:`repro.engine`, which computes the
same measurements as whole-array reductions (required for paper-scale
geometries).  ``backend="auto"`` picks the vectorized engine whenever the
run qualifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..circuit.technology import TechnologyParameters, default_technology
from ..engine.dispatch import BACKEND_CHOICES, BackendDispatcher
from ..march.algorithm import MarchAlgorithm
from ..march.element import AddressingDirection
from ..march.execution import walk
from ..march.ordering import AddressOrder, RowMajorOrder
from ..power.sources import PowerSource
from ..sram.array import BackgroundFunction, solid_background
from ..sram.geometry import ArrayGeometry
from ..sram.modes import OperatingMode
from .lowpower import FunctionalModePlanner, LowPowerTestPlanner, PrechargePlanner

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sram.memory import SRAM


class SessionError(Exception):
    """Raised on inconsistent session configuration."""


@dataclass
class ReadMismatch:
    """A read that returned something else than the March expectation."""

    cycle: int
    row: int
    word: int
    expected: int
    observed: int
    element_index: int
    operation_index: int


@dataclass
class TestRunResult:
    """Everything measured while running one algorithm in one mode."""

    algorithm: str
    mode: str
    order: str
    geometry: str
    cycles: int
    total_energy: float
    average_power: float
    energy_by_source: Dict[PowerSource, float]
    mismatches: List[ReadMismatch] = field(default_factory=list)
    faulty_swaps: List[Tuple[int, int]] = field(default_factory=list)
    read_hazards: int = 0
    row_transitions: int = 0
    full_restores: int = 0
    full_res_column_cycles: int = 0
    floating_column_cycles: int = 0
    bank_transitions: int = 0
    #: Kernel that measured this run: "flat" on the vectorized backend
    #: (its one kernel), "" on the reference backend.
    kernel: str = ""

    @property
    def passed(self) -> bool:
        """True when no read mismatch occurred (the memory is seen fault-free)."""
        return not self.mismatches

    @property
    def energy_per_cycle(self) -> float:
        return self.total_energy / self.cycles if self.cycles else 0.0

    def source_fraction(self, source: PowerSource) -> float:
        total = sum(self.energy_by_source.values())
        if total <= 0:
            return 0.0
        return self.energy_by_source.get(source, 0.0) / total


@dataclass(frozen=True)
class ModeComparison:
    """Functional-mode vs. low-power-test-mode measurement for one algorithm."""

    algorithm: str
    functional: TestRunResult
    low_power: TestRunResult

    @property
    def prr(self) -> float:
        """Measured Power Reduction Ratio, 1 − P_LPT / P_F."""
        if self.functional.average_power <= 0:
            return 0.0
        return 1.0 - self.low_power.average_power / self.functional.average_power

    def as_table1_row(self, algorithm: MarchAlgorithm) -> Dict[str, object]:
        """One row in the format of the paper's Table 1."""
        return {
            "Algorithm": algorithm.name,
            "# elm": algorithm.element_count,
            "# oper": algorithm.operation_count,
            "# read": algorithm.read_count,
            "# write": algorithm.write_count,
            "PRR": f"{100.0 * self.prr:.1f} %",
        }


#: Valid values of the ``backend`` switch of :class:`TestSession`.
BACKENDS = BACKEND_CHOICES


class TestSession:
    """Run March algorithms on one memory configuration.

    ``backend`` selects the execution engine:

    * ``"reference"`` (default) — the cycle-accurate behavioural memory
      (:class:`repro.sram.SRAM`), one access at a time.  Supports every
      configuration, including injected faults and custom planners.
    * ``"vectorized"`` — the NumPy batch engine
      (:class:`repro.engine.VectorizedEngine`), which measures the same
      quantities as whole-array reductions and makes paper-scale geometries
      (the full 512 x 512 array) tractable.  Raises
      :class:`repro.engine.UnsupportedConfiguration` for runs it cannot
      replay exactly (custom memories/planners, address orders that do not
      keep the pre-charged traversal neighbour).
    * ``"auto"`` — vectorized when the run qualifies, silently falling back
      to the reference engine otherwise.

    Both engines produce equivalent :class:`TestRunResult` measurements
    (energy totals and per-source breakdowns, stress counters, fault
    detections); the test-suite asserts this on every Table 1 algorithm.
    The backend is fixed here, at construction.
    """

    def __init__(self, geometry: ArrayGeometry,
                 tech: TechnologyParameters | None = None,
                 order: Optional[AddressOrder] = None,
                 background: Optional[BackgroundFunction] = None,
                 any_direction: AddressingDirection = AddressingDirection.UP,
                 detailed: Optional[bool] = None,
                 backend: str = "reference") -> None:
        self._dispatch = BackendDispatcher(self._make_engine,
                                           error=SessionError)
        self.backend = self._dispatch.validate(backend)
        self.geometry = geometry
        self.tech = tech or default_technology()
        self.order = order or RowMajorOrder(geometry)
        self.background = background if background is not None else solid_background(0)
        self.any_direction = any_direction
        self.detailed = detailed

    @property
    def last_backend_used(self) -> Optional[str]:
        """Engine that executed the calling thread's most recent
        :meth:`run` (``None`` before the first run): "reference" or
        "vectorized".  Thread-local so concurrent runs through a shared
        session (the serving worker pool) never mis-attribute provenance.
        """
        return self._dispatch.last_backend_used

    @last_backend_used.setter
    def last_backend_used(self, backend: Optional[str]) -> None:
        self._dispatch.note_backend_used(backend)

    # ------------------------------------------------------------------
    def _build_memory(self, mode: OperatingMode, label: str) -> SRAM:
        # Deferred: only the reference walk loads the behavioural memory.
        from ..sram.memory import SRAM

        memory = SRAM(self.geometry, tech=self.tech, mode=mode,
                      ledger_label=label,
                      detailed_ledger=self.detailed,
                      track_cell_stress=self.detailed)
        memory.apply_background(self.background)
        return memory

    def _planner_for(self, mode: OperatingMode) -> PrechargePlanner:
        if mode is OperatingMode.LOW_POWER_TEST:
            return LowPowerTestPlanner(self.geometry, tech=self.tech)
        return FunctionalModePlanner()

    def _make_engine(self):
        """Build the :class:`repro.engine.VectorizedEngine` for this session.

        The dispatcher's engine factory: called lazily on the first
        vectorized run (the import defers numpy) and again after a failed
        run invalidates the cached engine.
        """
        from ..engine import VectorizedEngine  # deferred: numpy optional

        return VectorizedEngine(
            self.geometry, tech=self.tech, order=self.order,
            any_direction=self.any_direction, detailed=self.detailed)

    # ------------------------------------------------------------------
    def run(self, algorithm: MarchAlgorithm, mode: OperatingMode,
            memory: Optional[SRAM] = None,
            planner: Optional[PrechargePlanner] = None) -> TestRunResult:
        """Run ``algorithm`` once in ``mode`` and return the measurements.

        A pre-built ``memory`` (e.g. one with injected faults) and/or a
        custom ``planner`` can be supplied; otherwise fresh fault-free ones
        are created.  The session's backend executes the run (see the
        class docstring); a custom memory or planner always runs on the
        reference engine, which a ``"vectorized"`` session refuses.
        """
        if memory is None and planner is None:
            def run_vectorized(engine) -> TestRunResult:
                result = engine.run(algorithm, mode)
                self.last_backend_used = "vectorized"
                return result

            # A failed engine must not be cached, so "auto" fallback also
            # invalidates it; "vectorized" surfaces the EngineError.
            return self._dispatch.call(
                self.backend, vectorized=run_vectorized,
                reference=lambda: self._run_reference(algorithm, mode,
                                                      memory, planner),
                invalidate_on_fallback=True)
        if self.backend == "vectorized":
            raise SessionError(
                "the vectorized backend cannot run with a custom memory "
                "or planner; use backend='reference' (or 'auto')")
        return self._run_reference(algorithm, mode, memory, planner)

    def _run_reference(self, algorithm: MarchAlgorithm, mode: OperatingMode,
                       memory: Optional[SRAM],
                       planner: Optional[PrechargePlanner]) -> TestRunResult:
        """The cycle-accurate walk over the behavioural memory."""
        algorithm.validate()
        if memory is None:
            memory = self._build_memory(mode, label=f"{algorithm.name} [{mode.value}]")
        else:
            memory.set_mode(mode)
        planner = planner or self._planner_for(mode)
        if planner.requires_low_power_mode and mode is not OperatingMode.LOW_POWER_TEST:
            raise SessionError(
                "the low-power planner requires OperatingMode.LOW_POWER_TEST")
        planner.reset()

        mismatches: List[ReadMismatch] = []
        faulty_swaps: List[Tuple[int, int]] = []
        hazards = 0

        use_plan = mode is OperatingMode.LOW_POWER_TEST
        for step in walk(algorithm, self.order, self.any_direction):
            plan = planner.plan(step) if use_plan else None
            if step.is_read:
                outcome = memory.read(step.row, step.word, plan=plan)
                if outcome.value != step.operation.value:
                    mismatches.append(ReadMismatch(
                        cycle=outcome.cycle, row=step.row, word=step.word,
                        expected=step.operation.value, observed=outcome.value,
                        element_index=step.element_index,
                        operation_index=step.operation_index))
            else:
                outcome = memory.write(step.row, step.word, step.operation.value,
                                       plan=plan)
            if outcome.read_hazard:
                hazards += 1
            if outcome.faulty_swaps:
                faulty_swaps.extend(outcome.faulty_swaps)

        ledger = memory.ledger
        self.last_backend_used = "reference"
        return TestRunResult(
            algorithm=algorithm.name,
            mode=mode.value,
            order=self.order.name,
            geometry=self.geometry.describe(),
            cycles=memory.cycle,
            total_energy=ledger.total_energy(),
            average_power=ledger.average_power(),
            energy_by_source=ledger.energy_by_source(),
            mismatches=mismatches,
            faulty_swaps=faulty_swaps,
            read_hazards=hazards,
            row_transitions=memory.counters.row_transitions,
            full_restores=memory.counters.full_restores,
            full_res_column_cycles=memory.counters.full_res_column_cycles,
            floating_column_cycles=memory.counters.floating_column_cycles,
            bank_transitions=memory.counters.bank_transitions,
        )

    # ------------------------------------------------------------------
    def compare_modes(self, algorithm: MarchAlgorithm) -> ModeComparison:
        """Run ``algorithm`` in both modes on fresh fault-free memories."""
        functional = self.run(algorithm, OperatingMode.FUNCTIONAL)
        low_power = self.run(algorithm, OperatingMode.LOW_POWER_TEST)
        return ModeComparison(algorithm=algorithm.name,
                              functional=functional, low_power=low_power)

    def table1(self, algorithms: Sequence[MarchAlgorithm]) -> List[Dict[str, object]]:
        """Measured reproduction of the paper's Table 1 for ``algorithms``."""
        rows: List[Dict[str, object]] = []
        for algorithm in algorithms:
            comparison = self.compare_modes(algorithm)
            rows.append(comparison.as_table1_row(algorithm))
        return rows


def compare_modes(geometry: ArrayGeometry, algorithm: MarchAlgorithm,
                  tech: TechnologyParameters | None = None,
                  **session_kwargs) -> ModeComparison:
    """Convenience wrapper: one-call functional vs. low-power comparison."""
    session = TestSession(geometry, tech=tech, **session_kwargs)
    return session.compare_modes(algorithm)
