"""Pre-charge circuit model — the protagonist of the paper.

Each column owns a pre-charge circuit (two pull-up PMOS plus an equalisation
PMOS) whose job is to restore and equalise BL/BLB to VDD after every
operation.  In functional mode the circuit of every unselected column stays
ON for the whole cycle, sustaining the read-equivalent stress (RES) of the
cells on the active row: the cells pull one bit line down while the
pre-charge pulls it back up, and that fight is the single biggest power
consumer of the memory during test.

The model tracks the ON/OFF state commanded by the control logic (normal
pre-charge signal ``Pr_j`` in functional mode, the modified ``NPr_j`` of
Figure 8 in the low-power test mode), counts activity, and converts the
physical work it does into supply energy:

* :meth:`restore_pair` — recharging the column's bit lines at the end of an
  operation or at a row transition (energy proportional to the restored
  swing);
* :meth:`sustain_res` — holding the bit lines at VDD against a selected
  cell for one stress interval (the per-cycle energy the proposed scheme
  removes on all but one column).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..circuit.technology import TechnologyParameters, default_technology
from .bitline import BitLinePair, RestorationResult


class PrechargeError(Exception):
    """Raised on inconsistent pre-charge commands."""


@dataclass
class PrechargeActivity:
    """Activity counters of one pre-charge circuit."""

    cycles_on: int = 0
    cycles_off: int = 0
    restorations: int = 0
    res_intervals: int = 0
    energy: float = 0.0

    def reset(self) -> None:
        self.cycles_on = 0
        self.cycles_off = 0
        self.restorations = 0
        self.res_intervals = 0
        self.energy = 0.0


class PrechargeCircuit:
    """Behavioural pre-charge circuit of one column."""

    def __init__(self, column_index: int, rows: int,
                 tech: TechnologyParameters | None = None,
                 bank_index: int = 0) -> None:
        if column_index < 0:
            raise PrechargeError("column_index must be non-negative")
        if bank_index < 0:
            raise PrechargeError("bank_index must be non-negative")
        self.tech = tech or default_technology()
        self.column_index = column_index
        #: Sub-array bank this circuit serves.  ``rows`` is the bit-line
        #: height the circuit restores against — in a banked organisation
        #: that is the *bank* height, not the whole array.
        self.bank_index = bank_index
        self.rows = rows
        self.enabled = True
        self.activity = PrechargeActivity()

    def describe(self) -> str:
        """Identity string used in error messages and reports."""
        if self.bank_index:
            return f"bank {self.bank_index}, column {self.column_index}"
        return f"column {self.column_index}"

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def set_enabled(self, enabled: bool) -> None:
        """Command the circuit for the current cycle (ON = pre-charging)."""
        self.enabled = bool(enabled)

    # ------------------------------------------------------------------
    # Physical work
    # ------------------------------------------------------------------
    def restore_pair(self, pair: BitLinePair) -> RestorationResult:
        """Restore the column's bit lines to VDD.

        Only legal while the circuit is enabled; the energy is charged to
        this circuit's accumulator and also returned to the caller so the
        memory model can attribute it to the right power source (operation
        restoration vs. row-transition restoration).
        """
        if not self.enabled:
            raise PrechargeError(
                f"{self.describe()}: restoration requested while pre-charge is OFF"
            )
        result = pair.restore()
        self.activity.restorations += 1
        self.activity.energy += result.energy
        return result

    def sustain_res(self, duration: float, stress_fraction: float = 1.0) -> float:
        """Energy spent holding the bit lines against a stressed cell.

        ``duration`` is the stress interval (half a clock cycle in the
        paper's Figure 2c timing — the operation phase; the restoration
        phase is billed through :meth:`restore_pair`).  ``stress_fraction``
        scales the fight for partially discharged floating lines (the few
        cells that still see a *reduced* RES in low-power test mode).

        The energy model: during the stress the cell's pull-down conducts a
        quasi-DC current from the pre-charge PMOS to ground.  We size that
        current from the technology's cell pull-down path at full drive and
        charge V_DD · I · duration to the supply.
        """
        if not self.enabled:
            raise PrechargeError(
                f"{self.describe()}: RES sustained while pre-charge is OFF"
            )
        if duration < 0:
            raise PrechargeError("duration must be non-negative")
        if not 0.0 <= stress_fraction <= 1.0:
            raise PrechargeError("stress_fraction must be within [0, 1]")
        current = self._res_current()
        energy = self.tech.vdd * current * duration * stress_fraction
        self.activity.res_intervals += 1
        self.activity.energy += energy
        return energy

    def _res_current(self) -> float:
        """Quasi-DC current of the pre-charge/cell fight during a RES.

        The technology description carries this as a calibrated equilibrium
        current (see
        :attr:`repro.circuit.technology.TechnologyParameters.res_equilibrium_current`):
        the initial transient settles quickly and the remaining fight is a
        small static current that the pre-charge PMOS keeps replacing for as
        long as the word line stays high.
        """
        return self.tech.res_equilibrium_current

    def reset_statistics(self) -> None:
        self.activity.reset()
