"""Pluggable BIST power-measurement backends.

A BIST power campaign is a batch workload: the same March run measured in
functional and low-power test mode, across a library of algorithms and at
paper-scale geometries.  This module defines the backend seam the
:class:`~repro.bist.controller.BistController` plugs into — the same shape
as :class:`repro.faults.backend.FaultBackend` and the ``backend`` switch of
:class:`repro.core.session.TestSession`:

* :class:`ReferencePowerBackend` — the cycle-accurate scalar path: one
  behavioural :class:`~repro.sram.memory.SRAM` per run, walked access by
  access with the real pre-charge planners and the response comparator.
  Supports every configuration, including injected-fault memories.
* ``"vectorized"`` — :class:`repro.engine.power_campaign.VectorizedPowerCampaign`,
  which replays a compiled :class:`~repro.march.execution.OperationTrace`
  and computes the pre-charge activity, the comparator outcomes and all
  five Section 5 power sources in closed vector form.  It lives in
  :mod:`repro.engine` so the BIST layer stays importable without numpy.

Both backends must produce equivalent :class:`~repro.bist.controller.BistResult`
measurements — energy totals per source, pass/fail verdicts and the bounded
comparator log; ``tests/test_prr_differential.py`` asserts this across the
whole algorithm library.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Protocol

from ..circuit.technology import TechnologyParameters, default_technology
from ..core.lowpower import FunctionalModePlanner, LowPowerTestPlanner
from ..engine.dispatch import BACKEND_CHOICES
from ..march.algorithm import MarchAlgorithm
from ..march.execution import walk
from ..march.ordering import AddressOrder
from ..sram.array import BackgroundFunction, solid_background
from ..sram.geometry import ArrayGeometry
from ..sram.memory import OperatingMode, SRAM
from .comparator import Comparator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .controller import BistResult


#: Valid values of the ``backend`` switch of :class:`repro.bist.BistController`.
POWER_BACKENDS = BACKEND_CHOICES


def planner_name(low_power: bool) -> str:
    """The planner class name that produces a mode's power figures.

    Shared by both power backends so :attr:`BistResult.planner` reports the
    same attribution regardless of the engine that measured the run.
    """
    return (LowPowerTestPlanner.__name__ if low_power
            else FunctionalModePlanner.__name__)


class PowerBackend(Protocol):
    """Protocol every BIST power-measurement backend implements.

    A backend runs one March ``algorithm`` over one ``order`` in one mode
    (``low_power``) against a fault-free memory initialised with
    ``background``, and returns the full
    :class:`~repro.bist.controller.BistResult` — pass/fail plus the
    comparator log, cycle count and the per-source energy ledger — with
    its :attr:`~repro.bist.controller.BistResult.backend` and
    :attr:`~repro.bist.controller.BistResult.planner` fields filled in.
    """

    #: registry name of the backend ("reference" / "vectorized").
    name: str

    def measure(self, algorithm: MarchAlgorithm, order: AddressOrder,
                low_power: bool,
                background: Optional[BackgroundFunction] = None,
                log_limit: int = 64) -> "BistResult":
        """Measure one run; see the class docstring."""
        ...  # pragma: no cover - protocol stub


class ReferencePowerBackend:
    """Scalar cycle-by-cycle walk over the behavioural memory.

    The behavioural ground truth: a fresh :class:`~repro.sram.memory.SRAM`
    (or a caller-supplied one, e.g. with injected faults), the real
    :class:`~repro.core.lowpower.LowPowerTestPlanner` /
    :class:`~repro.core.lowpower.FunctionalModePlanner`, and the response
    comparator checking every read — exactly what the pre-backend
    :class:`~repro.bist.controller.BistController` executed inline.
    """

    name = "reference"

    def __init__(self, geometry: ArrayGeometry,
                 tech: TechnologyParameters | None = None) -> None:
        self.geometry = geometry
        self.tech = tech or default_technology()

    # ------------------------------------------------------------------
    def build_memory(self, low_power: bool,
                     background: Optional[BackgroundFunction] = None) -> SRAM:
        """A fresh fault-free memory in the requested mode, background applied."""
        mode = OperatingMode.LOW_POWER_TEST if low_power else OperatingMode.FUNCTIONAL
        memory = SRAM(self.geometry, tech=self.tech, mode=mode,
                      ledger_label=f"BIST [{mode.value}]")
        memory.apply_background(background if background is not None
                                else solid_background(0))
        return memory

    def measure(self, algorithm: MarchAlgorithm, order: AddressOrder,
                low_power: bool,
                background: Optional[BackgroundFunction] = None,
                log_limit: int = 64,
                memory: Optional[SRAM] = None,
                comparator: Optional[Comparator] = None) -> "BistResult":
        """Walk ``algorithm`` on the behavioural memory and measure everything.

        ``memory`` optionally supplies a pre-built (e.g. fault-injected)
        memory instead of a fresh fault-free one; ``comparator`` optionally
        reuses a caller-owned comparator (it is reset first).  Neither extra
        parameter is part of the :class:`PowerBackend` protocol — only the
        reference backend can honour them.
        """
        from .controller import BistResult  # deferred: controller imports this module

        if memory is None:
            memory = self.build_memory(low_power, background)
        else:
            memory.set_mode(OperatingMode.LOW_POWER_TEST if low_power
                            else OperatingMode.FUNCTIONAL)
        planner = (LowPowerTestPlanner(self.geometry, tech=self.tech)
                   if low_power else FunctionalModePlanner())
        planner.reset()
        if comparator is None:
            comparator = Comparator(log_limit=log_limit)
        comparator.reset()

        for step in walk(algorithm, order):
            plan = planner.plan(step) if low_power else None
            if step.is_write:
                memory.write(step.row, step.word, step.operation.value, plan=plan)
                continue
            outcome = memory.read(step.row, step.word, plan=plan)
            comparator.check(cycle=outcome.cycle, row=step.row, word=step.word,
                             expected=step.operation.value, observed=outcome.value)

        ledger = memory.ledger
        return BistResult(
            algorithm=algorithm.name,
            low_power_mode=low_power,
            passed=comparator.passed,
            failures=comparator.failures,
            cycles=memory.cycle,
            total_energy=ledger.total_energy(),
            average_power=ledger.average_power(),
            energy_by_source=ledger.energy_by_source(),
            failure_log=list(comparator.log),
            planner=planner_name(low_power),
            backend=self.name,
        )
