"""Per-column bundle: bit-line pair, pre-charge circuit and floating state.

The behavioural memory orchestrates one :class:`Column` per physical
bit-line pair.  Besides wiring the pair to its pre-charge circuit, the
column keeps the lazy "floating" book-keeping that makes the low-power test
mode simulation fast on large arrays: a column whose pre-charge has been
switched off decays deterministically (exponentially, driven by the
connected cell), so its voltage only needs to be brought up to date when the
column is next touched — when it is restored, re-selected, or checked for
the faulty swap of Figure 7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..circuit.technology import TechnologyParameters, default_technology
from .bitline import BitLinePair, RestorationResult
from .precharge import PrechargeCircuit
from .timing import ClockCycle


class ColumnError(Exception):
    """Raised on inconsistent column state transitions."""


@dataclass
class FloatingContext:
    """What has been driving a floating column since its pre-charge went off."""

    since_cycle: int
    #: True when the connected cell pulls BL low, False when it pulls BLB
    #: low, None when no word line is asserted (pure leakage float).
    cell_pulls_bl_low: Optional[bool]


class Column:
    """One column of the array: BL/BLB pair + pre-charge circuit + state."""

    def __init__(self, index: int, rows: int, clock: ClockCycle,
                 tech: TechnologyParameters | None = None,
                 bank_index: int = 0) -> None:
        self.tech = tech or default_technology()
        self.index = index
        self.bank_index = bank_index
        self.clock = clock
        self.pair = BitLinePair(rows=rows, tech=self.tech)
        self.precharge = PrechargeCircuit(column_index=index, rows=rows,
                                          tech=self.tech, bank_index=bank_index)
        self._floating: Optional[FloatingContext] = None
        self._last_update_cycle = 0

    # ------------------------------------------------------------------
    # State queries
    # ------------------------------------------------------------------
    @property
    def is_floating(self) -> bool:
        return self._floating is not None

    def voltages_at(self, cycle: int) -> tuple[float, float]:
        """Bit-line voltages as of the start of ``cycle`` (applies lazy decay)."""
        self.catch_up(cycle)
        return self.pair.snapshot()

    # ------------------------------------------------------------------
    # Floating book-keeping
    # ------------------------------------------------------------------
    def begin_floating(self, cycle: int, cell_pulls_bl_low: Optional[bool]) -> None:
        """Mark the column as floating starting at ``cycle``.

        If it is already floating only the driving-cell context is updated
        (this happens at a row transition when the restoration cycle has
        been skipped and a different cell takes over the lines).
        """
        self.catch_up(cycle)
        self.precharge.set_enabled(False)
        if self._floating is None:
            self._floating = FloatingContext(since_cycle=cycle,
                                             cell_pulls_bl_low=cell_pulls_bl_low)
        else:
            self._floating.cell_pulls_bl_low = cell_pulls_bl_low

    def catch_up(self, cycle: int) -> None:
        """Bring the pair's voltages up to the start of ``cycle``."""
        if cycle < self._last_update_cycle:
            raise ColumnError(
                f"column {self.index}: catch_up to cycle {cycle} before "
                f"last update at cycle {self._last_update_cycle}"
            )
        elapsed_cycles = cycle - self._last_update_cycle
        if elapsed_cycles and self._floating is not None:
            duration = elapsed_cycles * self.clock.period
            if self._floating.cell_pulls_bl_low is None:
                self.pair.float_idle(duration)
            else:
                self.pair.float_with_cell(self._floating.cell_pulls_bl_low, duration)
        self._last_update_cycle = cycle

    # ------------------------------------------------------------------
    # Pre-charge actions
    # ------------------------------------------------------------------
    def restore(self, cycle: int) -> RestorationResult:
        """Restore the pair to VDD at ``cycle`` and leave the pre-charge ON."""
        self.catch_up(cycle)
        self.precharge.set_enabled(True)
        result = self.precharge.restore_pair(self.pair)
        self._floating = None
        return result

    def sustain_res(self, cycle: int, duration: float,
                    stress_fraction: float = 1.0) -> float:
        """Hold the pair against a stressed cell for ``duration`` seconds."""
        self.catch_up(cycle)
        self.precharge.set_enabled(True)
        self._floating = None
        return self.precharge.sustain_res(duration, stress_fraction)

    def prepare_operation(self, cycle: int) -> None:
        """Selected-column setup: pre-charge OFF for the operation phase."""
        self.catch_up(cycle)
        self.precharge.set_enabled(False)
        self._floating = None

    def finish_operation(self, cycle: int) -> RestorationResult:
        """Selected-column wrap-up: pre-charge ON, bit lines restored."""
        self.precharge.set_enabled(True)
        result = self.precharge.restore_pair(self.pair)
        self._last_update_cycle = cycle
        self._floating = None
        return result

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Return the column to the powered-up, fully pre-charged state."""
        self.pair.v_bl = self.tech.vdd
        self.pair.v_blb = self.tech.vdd
        self.precharge.set_enabled(True)
        self.precharge.reset_statistics()
        self._floating = None
        self._last_update_cycle = 0
