"""Bit-line pair model: the dominant capacitances of the SRAM array.

Each column owns a pair of long, highly capacitive lines (BL and BLB).
Their charging/discharging is what makes the pre-charge circuitry the main
power consumer of an SRAM (the paper quotes 70-80 % of total power, after
reference [8]).  The behavioural model tracks the pair's voltages cycle by
cycle:

* an active pre-charge restores both lines to VDD (energy drawn from the
  supply proportional to the restored swing);
* a read or write develops/forces a differential on the pair;
* with the pre-charge disabled (low-power test mode) the lines float and the
  selected cell slowly discharges one of them — an exponential decay whose
  time constant is calibrated so that the line reaches logic '0' in roughly
  nine clock cycles, matching the paper's Figure 6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..circuit.technology import TechnologyParameters, default_technology


class BitLineError(Exception):
    """Raised on invalid bit-line manipulations."""


@dataclass
class RestorationResult:
    """Outcome of a pre-charge restoration on one bit-line pair."""

    swing_bl: float
    swing_blb: float
    energy: float


class BitLinePair:
    """Voltages and charge book-keeping of one column's BL/BLB pair."""

    #: Voltage fraction of VDD under which a line reads as logic '0'.
    LOGIC_LOW_FRACTION = 0.3
    #: Voltage fraction of VDD above which a line reads as logic '1'.
    LOGIC_HIGH_FRACTION = 0.7

    def __init__(self, rows: int, tech: TechnologyParameters | None = None) -> None:
        if rows <= 0:
            raise BitLineError(f"rows must be positive, got {rows}")
        self.tech = tech or default_technology()
        self.rows = rows
        self.capacitance = self.tech.bitline_capacitance(rows)
        vdd = self.tech.vdd
        self.v_bl = vdd
        self.v_blb = vdd

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    @property
    def vdd(self) -> float:
        return self.tech.vdd

    def differential(self) -> float:
        """BL minus BLB voltage."""
        return self.v_bl - self.v_blb

    def is_fully_precharged(self, tolerance_fraction: float = 0.02) -> bool:
        """Both lines within ``tolerance_fraction`` of VDD."""
        tol = tolerance_fraction * self.vdd
        return (self.vdd - self.v_bl) <= tol and (self.vdd - self.v_blb) <= tol

    def bl_is_logic_low(self) -> bool:
        return self.v_bl <= self.LOGIC_LOW_FRACTION * self.vdd

    def blb_is_logic_low(self) -> bool:
        return self.v_blb <= self.LOGIC_LOW_FRACTION * self.vdd

    def lowest_voltage(self) -> float:
        return min(self.v_bl, self.v_blb)

    # ------------------------------------------------------------------
    # Pre-charge restoration
    # ------------------------------------------------------------------
    def restore(self) -> RestorationResult:
        """Restore both lines to VDD through the pre-charge circuit.

        Returns the swings that were recharged and the supply energy this
        cost (C · ΔV · VDD per line, plus the equalisation overhead factor
        from the technology description).
        """
        swing_bl = self.vdd - self.v_bl
        swing_blb = self.vdd - self.v_blb
        if swing_bl < 0 or swing_blb < 0:
            raise BitLineError("bit-line voltage above VDD; state is corrupted")
        energy = self.tech.swing_energy(self.capacitance, swing_bl)
        energy += self.tech.swing_energy(self.capacitance, swing_blb)
        energy *= 1.0 + self.tech.precharge_overhead_factor
        self.v_bl = self.vdd
        self.v_blb = self.vdd
        return RestorationResult(swing_bl=swing_bl, swing_blb=swing_blb, energy=energy)

    # ------------------------------------------------------------------
    # Operations on the selected column
    # ------------------------------------------------------------------
    def develop_read_differential(self, cell_pulls_bl_low: bool,
                                  swing_fraction: float = 0.5) -> float:
        """Develop the small read differential on the pair.

        The accessed cell sinks charge from one line for the first half of
        the clock cycle.  The default swing (half the supply) reflects the
        conservative, non-pulsed sensing scheme assumed for the paper's
        memory; the pre-charge circuit recharges it during the second half
        of the cycle.  Returns the developed swing in volts.
        """
        if not 0.0 < swing_fraction <= 1.0:
            raise BitLineError("swing_fraction must be in (0, 1]")
        swing = swing_fraction * self.vdd
        if cell_pulls_bl_low:
            self.v_bl = max(0.0, self.v_bl - swing)
        else:
            self.v_blb = max(0.0, self.v_blb - swing)
        return swing

    def force_write_levels(self, value: int) -> float:
        """Drive the pair to full write levels for the given value.

        The write drivers pull one line to ground and hold the other at
        VDD.  Following the cell convention ('1' keeps BL low), writing '1'
        discharges BL and writing '0' discharges BLB.  Returns the total
        voltage swing discharged (the pre-charge circuit will have to put it
        back at the end of the cycle).
        """
        if value not in (0, 1):
            raise BitLineError(f"write value must be 0 or 1, got {value!r}")
        discharged = 0.0
        if value == 1:
            discharged += self.v_bl
            self.v_bl = 0.0
            self.v_blb = self.vdd
        else:
            discharged += self.v_blb
            self.v_blb = 0.0
            self.v_bl = self.vdd
        return discharged

    # ------------------------------------------------------------------
    # Floating behaviour (pre-charge disabled, low-power test mode)
    # ------------------------------------------------------------------
    def float_with_cell(self, cell_pulls_bl_low: bool, duration: float) -> float:
        """Let the selected cell discharge the floating pair for ``duration``.

        Only the line on the cell's '0' node is discharged; the other line
        stays where it is (both it and the cell node are at VDD, so no
        charge moves — Figure 6a/6b).  Returns the voltage drop on the
        discharged line during this interval.
        """
        if duration < 0:
            raise BitLineError("duration must be non-negative")
        tau = self.tech.floating_discharge_tau(self.rows)
        decay = math.exp(-duration / tau)
        if cell_pulls_bl_low:
            before = self.v_bl
            self.v_bl = before * decay
            return before - self.v_bl
        before = self.v_blb
        self.v_blb = before * decay
        return before - self.v_blb

    def float_idle(self, duration: float, leakage_tau: float = 1.0e-3) -> None:
        """Leakage decay of a floating pair not connected to any cell.

        The time constant is huge compared with a test session; this exists
        so long idle periods (retention-style experiments) behave sanely.
        """
        if duration < 0:
            raise BitLineError("duration must be non-negative")
        decay = math.exp(-duration / leakage_tau)
        self.v_bl *= decay
        self.v_blb *= decay

    def residual_stress_fraction(self) -> float:
        """How much read-equivalent stress a floating pair still exerts.

        1.0 when both lines are at VDD (full RES on the attached cell), and
        it decreases with the discharged line's voltage: once the line the
        cell is pulling down reaches logic '0' the cell no longer fights
        anything (Figure 6b — "no more power consumption associated with
        RES").  Used to model the paper's α parameter (the few cells that
        still see a reduced RES while their bit line decays).
        """
        return self.lowest_voltage() / self.vdd

    def snapshot(self) -> tuple[float, float]:
        """Return ``(v_bl, v_blb)``."""
        return (self.v_bl, self.v_blb)
