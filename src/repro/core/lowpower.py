"""Cycle-level pre-charge planning: functional mode vs. low-power test mode.

The behavioural memory executes whatever :class:`repro.sram.PrechargePlan`
it is given for each access cycle.  This module produces those plans:

* :class:`FunctionalModePlanner` reproduces the unmodified memory (every
  unselected column pre-charged every cycle);
* :class:`LowPowerTestPlanner` implements the paper's scheme — only the
  selected column and the one that immediately follows it (in the traversal
  direction) are pre-charged, and the last access on each row runs one
  functional-mode cycle that restores every bit line (Figure 7's fix).

The low-power planner mirrors the hardware of Section 4: the plan for a
cycle depends only on the selected column, the traversal direction, and the
"last access on this row" marker the BIST sequencer knows — no lookahead
beyond what the modified control logic itself encodes.  The switching
energy of the added control elements and the LPtest line transitions are
attached to the plans so the memory can book them (power sources 3 and 5 of
Section 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

from ..circuit.technology import TechnologyParameters, default_technology
from ..march.element import AddressingDirection
from ..march.execution import AccessStep
from ..power.model import PowerModel
from ..sram.geometry import ArrayGeometry
from ..sram.modes import FUNCTIONAL_PLAN, PrechargePlan


class PlannerError(Exception):
    """Raised on inconsistent planner usage."""


def traversal_neighbour_delta(direction: AddressingDirection) -> int:
    """Word-index offset of the column the control logic keeps pre-charged.

    ``+1`` for ascending traversal (the paper's CS̄_j → NPr_{j+1} wiring of
    Figure 8) and ``-1`` for descending traversal (the mirrored wiring of
    the direction-aware controller extension).  This is the single
    definition of the policy: :class:`LowPowerTestPlanner` applies it one
    access at a time, and the vectorized backend
    (:mod:`repro.engine.vectorized`) applies it to whole coordinate arrays —
    sharing it keeps the two execution paths provably identical.
    """
    return -1 if direction is AddressingDirection.DOWN else 1


class PrechargePlanner:
    """Interface: produce the pre-charge plan for one access step."""

    #: True when the planner requires the memory to be in LOW_POWER_TEST mode.
    requires_low_power_mode = False

    def plan(self, step: AccessStep) -> PrechargePlan:
        raise NotImplementedError

    def reset(self) -> None:
        """Forget any per-run state (called before a new test run)."""


class FunctionalModePlanner(PrechargePlanner):
    """The unmodified memory: every unselected column pre-charged each cycle."""

    requires_low_power_mode = False

    def plan(self, step: AccessStep) -> PrechargePlan:  # noqa: ARG002 - uniform interface
        return FUNCTIONAL_PLAN


@dataclass(frozen=True)
class PlannerStatistics:
    """Counters accumulated by the low-power planner over a run."""

    cycles: int = 0
    restore_cycles: int = 0
    column_changes: int = 0

    def with_increment(self, restore: bool, column_changed: bool) -> "PlannerStatistics":
        return PlannerStatistics(
            cycles=self.cycles + 1,
            restore_cycles=self.restore_cycles + (1 if restore else 0),
            column_changes=self.column_changes + (1 if column_changed else 0),
        )


class LowPowerTestPlanner(PrechargePlanner):
    """The paper's low-power test mode pre-charge policy."""

    requires_low_power_mode = True

    def __init__(self, geometry: ArrayGeometry,
                 tech: TechnologyParameters | None = None) -> None:
        self.geometry = geometry
        self.tech = tech or default_technology()
        self._power_model = PowerModel(geometry, tech=self.tech)
        self._control_element_energy = self._power_model.control_element_energy()
        self._previous_word: Optional[int] = None
        self.statistics = PlannerStatistics()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        self._previous_word = None
        self.statistics = PlannerStatistics()

    # ------------------------------------------------------------------
    def neighbour_word(self, word: int, direction: AddressingDirection) -> Optional[int]:
        """The word whose columns the control logic keeps pre-charged.

        In the ascending word-line order this is ``word + 1`` (the paper's
        CS̄_j → NPr_{j+1} wiring); in the descending order it is ``word - 1``
        (the mirrored wiring of the direction-aware controller extension) —
        see :func:`traversal_neighbour_delta`.  At the edge of the row there
        is no neighbour — the row-transition restoration takes care of
        preparing the next row's first column.
        """
        candidate = word + traversal_neighbour_delta(direction)
        if 0 <= candidate < self.geometry.words_per_row:
            return candidate
        return None

    def plan(self, step: AccessStep) -> PrechargePlan:
        word = step.word
        neighbour = self.neighbour_word(word, step.direction)
        if neighbour is None:
            enabled: FrozenSet[int] = frozenset()
        else:
            enabled = frozenset(self.geometry.columns_of_word(neighbour))

        column_changed = self._previous_word is not None and self._previous_word != word
        first_cycle = self._previous_word is None
        self._previous_word = word

        # One control element switches for each column change ("there is only
        # one control element switching for each column changing", §5 source 5).
        control_energy = 0.0
        if column_changed or first_cycle:
            control_energy = self._control_element_energy

        # The LPtest line toggles around the row-transition restoration cycle
        # (charged once per row transition, §5 source 3).
        lptest_toggles = 1 if step.last_access_on_row else 0

        self.statistics = self.statistics.with_increment(
            restore=step.last_access_on_row, column_changed=column_changed)

        return PrechargePlan(
            enabled_columns=enabled,
            full_restore=step.last_access_on_row,
            control_energy=control_energy,
            lptest_toggles=lptest_toggles,
        )


@dataclass(frozen=True)
class WordOrientedLowPowerPlanner(PrechargePlanner):
    """Extension for word-oriented memories (the paper's future work).

    Identical policy, but "column" becomes "word group": the pre-charge stays
    on for all the bit-line pairs of the selected word and of the neighbouring
    word.  Implemented by delegating to :class:`LowPowerTestPlanner`, which
    already resolves a word to its physical columns through the geometry.
    """

    geometry: ArrayGeometry

    requires_low_power_mode = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "_delegate", LowPowerTestPlanner(self.geometry))

    def plan(self, step: AccessStep) -> PrechargePlan:
        return self._delegate.plan(step)

    def reset(self) -> None:
        self._delegate.reset()
