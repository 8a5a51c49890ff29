"""Cycle-accurate behavioural SRAM with per-source energy accounting.

This is the central substrate of the reproduction: a memory that executes
read and write operations one clock cycle at a time, tracks which pre-charge
circuits are active during each cycle, models the read-equivalent stress
(RES) of the unselected columns, the floating-bit-line behaviour of the
low-power test mode, the faulty swap at row transitions, and books every
quantum of supply energy to one of the Section 5 power sources.

The memory itself is policy-free: each access receives a
:class:`PrechargePlan` describing which pre-charge circuits are enabled
during the cycle and whether this cycle performs the full-array restoration
of the paper's row-transition rule.  The plans are produced either by the
built-in functional-mode behaviour (every unselected column pre-charged) or
by the modified pre-charge controller in :mod:`repro.core`, which is the
paper's actual contribution.

Performance note: unselected columns in functional mode all behave
identically (full RES, bit lines pinned at VDD), so their energy is booked
in aggregate instead of iterating over the whole array each cycle.  In the
low-power test mode the floating columns decay deterministically and are
only brought up to date lazily when touched (see
:class:`repro.sram.column.Column`).  This keeps a full 512 x 512 March run
tractable in pure Python while remaining exact for every quantity the
experiments report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuit.technology import TechnologyParameters, default_technology
from ..power.accounting import EnergyLedger
from ..power.sources import PowerSource
from .array import BackgroundFunction, CellArray
from .cell import CellFactory
from .column import Column
from .geometry import ArrayGeometry
from .modes import (
    CELL_RES_RATIO,
    DETAILED_CELL_LIMIT,
    FUNCTIONAL_PLAN,
    MemoryError_,
    OperatingMode,
    PrechargePlan,
)
from .periphery import ColumnDecoder, RowDecoder, SenseAmplifier, WriteDriver
from .timing import ClockCycle


@dataclass
class AccessOutcome:
    """Everything observable about one access cycle."""

    cycle: int
    row: int
    word: int
    operation: str
    value: int
    energy: float
    read_correct: Optional[bool] = None
    read_hazard: bool = False
    faulty_swaps: List[Tuple[int, int]] = field(default_factory=list)


@dataclass
class StressCounters:
    """Aggregate stress statistics maintained by the memory."""

    full_res_column_cycles: int = 0
    partial_res_column_cycles: int = 0
    floating_column_cycles: int = 0
    row_transitions: int = 0
    full_restores: int = 0
    bank_transitions: int = 0

    def reset(self) -> None:
        self.full_res_column_cycles = 0
        self.partial_res_column_cycles = 0
        self.floating_column_cycles = 0
        self.row_transitions = 0
        self.full_restores = 0
        self.bank_transitions = 0


class SRAM:
    """Behavioural SRAM memory (see module docstring)."""

    #: Fraction of VDD below which a selected column's bit lines are deemed
    #: insufficiently pre-charged for a reliable operation.
    READ_HAZARD_FRACTION = 0.7

    #: Arrays at or below this many cells get fully detailed book-keeping by
    #: default (per-event ledger entries, per-cell stress statistics).
    DETAILED_CELL_LIMIT = DETAILED_CELL_LIMIT

    def __init__(self, geometry: ArrayGeometry,
                 tech: TechnologyParameters | None = None,
                 mode: OperatingMode = OperatingMode.FUNCTIONAL,
                 cell_factory: CellFactory | None = None,
                 ledger_label: str = "",
                 track_cell_stress: Optional[bool] = None,
                 detailed_ledger: Optional[bool] = None) -> None:
        self.geometry = geometry
        self.tech = tech or default_technology()
        self.mode = mode
        self.clock = ClockCycle.from_technology(self.tech)
        self.array = CellArray(geometry, tech=self.tech, cell_factory=cell_factory)
        # One shared Column per bit-line pair, sized to the *bank* height:
        # a banked organisation splits each physical bit line into one
        # segment per bank.  Because the low-power policy fully restores
        # every column at each row's end and floating stretches never span
        # rows, at most one bank's segment carries state at a time, so a
        # single Column per pair models per-bank segments exactly.
        self.columns = [Column(index=c, rows=geometry.rows_per_bank,
                               clock=self.clock, tech=self.tech)
                        for c in range(geometry.columns)]
        self.row_decoder = RowDecoder(geometry, tech=self.tech)
        self.column_decoder = ColumnDecoder(geometry, tech=self.tech)
        self.sense_amplifier = SenseAmplifier(tech=self.tech)
        self.write_driver = WriteDriver(tech=self.tech)
        detailed_default = geometry.cell_count <= self.DETAILED_CELL_LIMIT
        self._detailed_ledger = detailed_default if detailed_ledger is None else detailed_ledger
        self.ledger = EnergyLedger(clock_period=self.clock.period,
                                   label=ledger_label or geometry.describe(),
                                   keep_events=self._detailed_ledger,
                                   track_per_cycle=self._detailed_ledger)
        self.counters = StressCounters()
        self.track_cell_stress = (detailed_default if track_cell_stress is None
                                  else track_cell_stress)
        self._cycle = 0
        self._active_row: Optional[int] = None
        #: Columns whose pre-charge is currently OFF and whose bit lines are
        #: floating (low-power test mode).  Maintained incrementally so the
        #: per-cycle work does not scale with the array width.
        self._floating_columns: set[int] = set()
        #: Complement of the floating set: columns whose bit lines are held
        #: by a pre-charge circuit (or were just operated on).  Kept so that
        #: the columns that *newly* start floating each cycle can be found
        #: without scanning the whole array.
        self._attached_columns: set[int] = set(range(geometry.columns))
        #: Per-cycle RES energy of one unselected, pre-charged column (P_A).
        self._res_energy_per_column = (
            self.tech.vdd * self.tech.res_equilibrium_current
            * self.clock.operation_duration
        )
        #: Ratio of cell-side RES energy to pre-charge-side RES energy (see
        #: the module-level :data:`CELL_RES_RATIO`).
        self._cell_res_ratio = CELL_RES_RATIO
        self._lptest_line_cap = self.tech.wordline_capacitance(geometry.columns)
        #: Currently selected bank (None before the first access).  Only
        #: tracked for banked geometries; a bank change books one
        #: bank-select line transition (beyond-paper, word-line-class load).
        self._active_bank: Optional[int] = None
        self._bank_select_energy = self.tech.swing_energy(
            self.tech.wordline_capacitance(geometry.columns))

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def set_mode(self, mode: OperatingMode) -> None:
        self.mode = mode

    def apply_background(self, background: BackgroundFunction) -> None:
        """Initialise every cell (no energy is charged for this shortcut)."""
        self.array.apply_background(background)

    def reset(self, ledger_label: str = "") -> None:
        """Reset dynamic state: bit lines, counters, cycle count, energy ledger."""
        for column in self.columns:
            column.reset()
        self.row_decoder.deselect()
        self.counters.reset()
        self.array.reset_statistics()
        self.ledger = EnergyLedger(clock_period=self.clock.period,
                                   label=ledger_label or self.ledger.label,
                                   keep_events=self._detailed_ledger,
                                   track_per_cycle=self._detailed_ledger)
        self._cycle = 0
        self._active_row = None
        self._active_bank = None
        self._floating_columns.clear()
        self._attached_columns = set(range(self.geometry.columns))

    @property
    def cycle(self) -> int:
        """Number of access cycles executed so far."""
        return self._cycle

    @property
    def res_energy_per_column_cycle(self) -> float:
        """The paper's P_A: pre-charge energy to sustain one RES for one cycle."""
        return self._res_energy_per_column

    # ------------------------------------------------------------------
    # Public access API
    # ------------------------------------------------------------------
    def read(self, row: int, word: int,
             plan: Optional[PrechargePlan] = None) -> AccessOutcome:
        """Read the word at ``(row, word)`` in one clock cycle."""
        return self._access("read", row, word, None, plan)

    def write(self, row: int, word: int, value: int,
              plan: Optional[PrechargePlan] = None) -> AccessOutcome:
        """Write ``value`` at ``(row, word)`` in one clock cycle."""
        return self._access("write", row, word, value, plan)

    def peek(self, row: int, word: int) -> int:
        """Non-invasive logical read (no cycle, no energy, no stress)."""
        columns = self.geometry.columns_of_word(word)
        bits = [self._require_value(row, c) for c in columns]
        return self._bits_to_word(bits)

    def poke(self, row: int, word: int, value: int) -> None:
        """Non-invasive logical write (fault-free state setup)."""
        columns = self.geometry.columns_of_word(word)
        bits = self._word_to_bits(value, len(columns))
        for column_index, bit in zip(columns, bits):
            self.array.cell(row, column_index).force(bit)

    # ------------------------------------------------------------------
    # Core access machinery
    # ------------------------------------------------------------------
    def _access(self, operation: str, row: int, word: int,
                value: Optional[int], plan: Optional[PrechargePlan]) -> AccessOutcome:
        self.geometry.validate_coordinates(row, word)
        if plan is None:
            plan = FUNCTIONAL_PLAN
        if self.mode is OperatingMode.FUNCTIONAL and plan.enabled_columns is not None:
            raise MemoryError_(
                "restricted pre-charge plans are only legal in LOW_POWER_TEST mode; "
                "switch the memory mode first"
            )
        cycle = self._cycle
        selected_columns = self.geometry.columns_of_word(word)
        op_source = (PowerSource.OPERATION_READ if operation == "read"
                     else PowerSource.OPERATION_WRITE)
        outcome = AccessOutcome(cycle=cycle, row=row, word=word,
                                operation=operation, value=0, energy=0.0)

        total_before = self.ledger.total_energy()

        # 1. Word-line / row handling (includes the faulty-swap hazard when a
        #    row transition happens over still-floating bit lines).
        self._handle_row_transition(cycle, row, outcome, op_source)

        # 2. Address decode energy.
        _, row_energy = self.row_decoder.select(row)
        _, col_energy = self.column_decoder.select(word)
        self.ledger.record_energy(cycle, op_source, row_energy + col_energy,
                                  row=row, detail="address decode + word line")

        # 3. Operation on the selected column(s).
        if operation == "read":
            outcome.value, outcome.read_correct, outcome.read_hazard = \
                self._do_read(cycle, row, selected_columns, op_source)
        else:
            assert value is not None
            outcome.value = value
            outcome.read_hazard = self._do_write(cycle, row, selected_columns,
                                                 value, op_source)
        self._floating_columns.difference_update(selected_columns)

        # 4. Unselected columns: RES for the pre-charged ones, floating decay
        #    for the rest.
        self._handle_unselected(cycle, row, selected_columns, plan)

        # 5. Row-transition full restoration (the paper's one functional-mode
        #    cycle at the end of each row in low-power test mode).
        if plan.full_restore:
            self._full_restore(cycle, exclude=selected_columns)

        # 6. Mode-control overheads.
        if plan.control_energy:
            self.ledger.record_energy(cycle, PowerSource.CONTROL_LOGIC,
                                      plan.control_energy,
                                      detail="modified pre-charge control logic")
        if plan.lptest_toggles:
            energy = plan.lptest_toggles * self.tech.swing_energy(self._lptest_line_cap)
            self.ledger.record_energy(cycle, PowerSource.LPTEST_DRIVER, energy,
                                      detail="LPtest mode-selection line")

        # 7. Array leakage for this cycle.
        leakage = (self.geometry.cell_count * self.tech.cell_leakage_current
                   * self.tech.vdd * self.clock.period)
        self.ledger.record_energy(cycle, PowerSource.LEAKAGE, leakage)

        outcome.energy = self.ledger.total_energy() - total_before
        self._cycle += 1
        return outcome

    # ------------------------------------------------------------------
    def _handle_row_transition(self, cycle: int, row: int, outcome: AccessOutcome,
                               op_source: PowerSource) -> None:
        if self._active_row == row:
            return
        if self._active_row is not None:
            self.counters.row_transitions += 1
            self.row_decoder.deselect()
        self._active_row = row
        if self.geometry.is_banked:
            bank = self.geometry.bank_of_row(row)
            if self._active_bank is not None and bank != self._active_bank:
                self.counters.bank_transitions += 1
                self.ledger.record_energy(
                    cycle, PowerSource.BANK_SELECT, self._bank_select_energy,
                    row=row, detail="bank-select line transition")
            self._active_bank = bank
        # Connecting a new row to columns whose bit lines are still floating
        # (i.e. the restoration cycle was skipped) exposes the new row's
        # cells to whatever differential the old row left behind: Figure 7's
        # faulty swap.  With the paper's restoration rule no column is
        # floating at this point and the loop below is a no-op.
        for column_index in sorted(self._floating_columns):
            column = self.columns[column_index]
            v_bl, v_blb = column.voltages_at(cycle)
            cell = self.array.cell(row, column_index)
            if cell.value is not None and cell.check_faulty_swap(v_bl, v_blb):
                outcome.faulty_swaps.append((row, column_index))
            # Whatever happened, the new row's cell now drives the pair.
            pulls = cell.pulls_bl_low() if cell.value is not None else None
            column.begin_floating(cycle, pulls)

    def _do_read(self, cycle: int, row: int, selected_columns: Sequence[int],
                 op_source: PowerSource) -> Tuple[int, bool, bool]:
        bits: List[int] = []
        hazard = False
        correct = True
        for column_index in selected_columns:
            column = self.columns[column_index]
            column.prepare_operation(cycle)
            if column.pair.lowest_voltage() < self.READ_HAZARD_FRACTION * self.tech.vdd:
                hazard = True
            cell = self.array.cell(row, column_index)
            stored = cell.read()
            swing = column.pair.develop_read_differential(cell.pulls_bl_low())
            sensed, sense_energy = self.sense_amplifier.sense(column.pair.differential())
            if sensed != stored:
                correct = False
            bits.append(sensed)
            restoration = column.finish_operation(cycle)
            self.ledger.record_energy(cycle, op_source,
                                      sense_energy + restoration.energy,
                                      column=column_index, row=row,
                                      detail="read: sense + bit-line restoration")
        return self._bits_to_word(bits), correct, hazard

    def _do_write(self, cycle: int, row: int, selected_columns: Sequence[int],
                  value: int, op_source: PowerSource) -> bool:
        bits = self._word_to_bits(value, len(selected_columns))
        hazard = False
        for column_index, bit in zip(selected_columns, bits):
            column = self.columns[column_index]
            column.prepare_operation(cycle)
            if column.pair.lowest_voltage() < self.READ_HAZARD_FRACTION * self.tech.vdd:
                hazard = True
            discharged = column.pair.force_write_levels(bit)
            driver_energy = self.write_driver.drive_energy(discharged,
                                                           column.pair.capacitance)
            self.array.cell(row, column_index).write(bit)
            restoration = column.finish_operation(cycle)
            self.ledger.record_energy(cycle, op_source,
                                      driver_energy + restoration.energy,
                                      column=column_index, row=row,
                                      detail="write: drivers + bit-line restoration")
        return hazard

    def _handle_unselected(self, cycle: int, row: int,
                           selected_columns: Sequence[int],
                           plan: PrechargePlan) -> None:
        selected = set(selected_columns)
        op_duration = self.clock.operation_duration
        if plan.enabled_columns is None:
            # Functional behaviour: every unselected column keeps its
            # pre-charge ON and its cell on the active row undergoes a full
            # RES.  All those columns behave identically, so book the energy
            # in aggregate rather than walking the array.
            if self._floating_columns:
                # Returning to the functional pre-charge policy after a
                # low-power stretch: the previously floating columns must be
                # recharged first, and that energy belongs to the pre-charge
                # circuits of unselected columns.
                recharge = 0.0
                for column_index in sorted(self._floating_columns - selected):
                    recharge += self.columns[column_index].restore(cycle).energy
                self._floating_columns.clear()
                self._attached_columns = set(range(self.geometry.columns))
                self.ledger.record_energy(cycle, PowerSource.PRECHARGE_UNSELECTED,
                                          recharge, row=row,
                                          detail="re-precharge after low-power stretch")
            count = self.geometry.columns - len(selected)
            if count <= 0:
                return
            res_energy = count * self._res_energy_per_column
            self.ledger.record_energy(cycle, PowerSource.PRECHARGE_UNSELECTED,
                                      res_energy, row=row,
                                      detail=f"RES sustained on {count} columns")
            self.ledger.record_energy(cycle, PowerSource.CELL_RES,
                                      res_energy * self._cell_res_ratio, row=row)
            self.counters.full_res_column_cycles += count
            if self.track_cell_stress and self.geometry.columns <= 128:
                for column_index in range(self.geometry.columns):
                    if column_index not in selected:
                        self.array.cell(row, column_index).apply_read_equivalent_stress()
            return

        enabled = set(plan.enabled_columns) - selected
        for column_index in enabled:
            if not 0 <= column_index < self.geometry.columns:
                raise MemoryError_(f"pre-charge plan names unknown column {column_index}")
            column = self.columns[column_index]
            energy = column.sustain_res(cycle, op_duration)
            restoration = column.restore(cycle)
            self._floating_columns.discard(column_index)
            self.ledger.record_energy(cycle, PowerSource.PRECHARGE_UNSELECTED,
                                      energy + restoration.energy,
                                      column=column_index, row=row,
                                      detail="RES sustained (next column)")
            self.ledger.record_energy(cycle, PowerSource.CELL_RES,
                                      energy * self._cell_res_ratio,
                                      column=column_index, row=row)
            self.counters.full_res_column_cycles += 1
            if self.track_cell_stress:
                self.array.cell(row, column_index).apply_read_equivalent_stress()

        # Every other unselected column floats: its pre-charge is OFF and
        # the active row's cell (still selected by the common word line)
        # interacts with the bit lines.  No supply energy is drawn — the
        # discharge is paid from charge already on the lines — but the
        # partially discharged columns still exert a reduced RES on their
        # cells (the paper's α parameter).  Only columns that are floating
        # *for the first time* need any work; the rest decay lazily.
        newly_floating = self._attached_columns - selected - enabled
        for column_index in sorted(newly_floating):
            column = self.columns[column_index]
            cell = self.array.cell(row, column_index)
            pulls = cell.pulls_bl_low() if cell.value is not None else None
            column.begin_floating(cycle, pulls)
            self._floating_columns.add(column_index)
            if self.track_cell_stress and cell.value is not None:
                cell.apply_read_equivalent_stress(partial=True)
            self.counters.partial_res_column_cycles += 1
        self._attached_columns = selected | enabled
        self.counters.floating_column_cycles += (
            self.geometry.columns - len(selected) - len(enabled))

    def _full_restore(self, cycle: int, exclude: Sequence[int]) -> None:
        """Restore every column's bit lines (the row-transition cycle)."""
        excluded = set(exclude)
        total = 0.0
        for column in self.columns:
            if column.index in excluded:
                # The selected column was already restored by its own
                # operation's restoration phase this cycle.
                continue
            result = column.restore(cycle)
            total += result.energy
        self._floating_columns.clear()
        self._attached_columns = set(range(self.geometry.columns))
        self.ledger.record_energy(cycle, PowerSource.ROW_TRANSITION_RESTORE, total,
                                  detail="full-array bit-line restoration")
        self.counters.full_restores += 1

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _require_value(self, row: int, column: int) -> int:
        value = self.array.cell(row, column).value
        if value is None:
            raise MemoryError_(f"cell ({row}, {column}) read before initialisation")
        return value

    @staticmethod
    def _word_to_bits(value: int, width: int) -> List[int]:
        if value < 0 or value >= (1 << width):
            raise MemoryError_(f"value {value} does not fit in {width} bit(s)")
        return [(value >> bit) & 1 for bit in range(width)]

    @staticmethod
    def _bits_to_word(bits: Sequence[int]) -> int:
        word = 0
        for position, bit in enumerate(bits):
            word |= (bit & 1) << position
        return word

    # ------------------------------------------------------------------
    # Reporting helpers
    # ------------------------------------------------------------------
    def average_power(self) -> float:
        """Average power per clock cycle so far (watts)."""
        return self.ledger.average_power()

    def energy_breakdown(self) -> Dict[PowerSource, float]:
        return self.ledger.energy_by_source()

    def precharge_activity_fraction(self) -> float:
        """Share of total energy spent by pre-charge activity.

        Pre-charge activity covers both the unselected columns' RES
        sustaining and the bit-line restorations folded into the operation
        energies; the latter are not separable in the ledger, so this
        reports the unselected + row-transition share, which is the lower
        bound the experiments compare against the paper's 70-80 % claim.
        """
        return (self.ledger.source_fraction(PowerSource.PRECHARGE_UNSELECTED)
                + self.ledger.source_fraction(PowerSource.ROW_TRANSITION_RESTORE))
