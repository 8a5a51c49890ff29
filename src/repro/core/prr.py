"""Analytical power model of Section 5: P_F, P_LPT and the Power Reduction Ratio.

The paper summarises its analysis with three equations (per clock cycle):

    P_F   = (#read · P_r + #write · P_w) / #operations

    P_LPT = P_F − [ (#col − 2) · P_A  −  (#elements / #operations) · P_B ]

    PRR   = 1 − P_LPT / P_F

where ``#read``, ``#write``, ``#operations`` and ``#elements`` describe the
March algorithm (per address), ``#col`` is the number of array columns, and
P_r, P_w, P_A, P_B are the per-event energies described in
:mod:`repro.power.model`.

This module evaluates those equations for any algorithm/geometry pair (the
closed-form path used for the paper's full 512 x 512 array) and also offers
an *extended* variant that keeps the second-order terms the paper argues are
negligible (LPtest line driver, control-element switching, cell-side RES),
so the "negligible" claims can be verified quantitatively rather than taken
on faith.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..circuit.technology import TechnologyParameters, default_technology
from ..march.algorithm import MarchAlgorithm
from ..power.model import OperationEnergies, PowerModel
from ..sram.geometry import ArrayGeometry


class AnalyticalModelError(Exception):
    """Raised for degenerate inputs (e.g. fewer than three columns)."""


@dataclass(frozen=True)
class AnalyticalPrediction:
    """Closed-form prediction for one algorithm on one array geometry."""

    algorithm: str
    geometry: str
    #: average functional-mode energy per clock cycle (the paper's P_F,
    #: expressed as energy; divide by the clock period for watts).
    functional_per_cycle: float
    #: average low-power-test-mode energy per clock cycle (P_LPT).
    low_power_per_cycle: float
    #: the Power Reduction Ratio, 1 − P_LPT / P_F.
    prr: float
    #: the savings term (#col − 2) · P_A.
    res_savings_per_cycle: float
    #: the row-transition overhead term (#elements / #operations) · P_B.
    row_transition_overhead_per_cycle: float
    #: second-order overheads kept by the extended model (0 for the paper's
    #: equation).
    secondary_overhead_per_cycle: float = 0.0

    def as_row(self) -> Dict[str, float | str]:
        return {
            "algorithm": self.algorithm,
            "P_F (J/cycle)": self.functional_per_cycle,
            "P_LPT (J/cycle)": self.low_power_per_cycle,
            "PRR (%)": 100.0 * self.prr,
        }


class AnalyticalPowerModel:
    """Evaluates the Section 5 equations for a geometry/technology pair."""

    #: The fewest columns the Section 5 equations hold for.
    MIN_COLUMNS = 3

    def __init__(self, geometry: ArrayGeometry,
                 tech: TechnologyParameters | None = None,
                 energies: OperationEnergies | None = None) -> None:
        if geometry.columns < self.MIN_COLUMNS:
            raise AnalyticalModelError(
                "the Section 5 equations assume at least three columns "
                f"(got {geometry.columns})")
        self.geometry = geometry
        self.tech = tech or default_technology()
        self.energies = energies or PowerModel(geometry, tech=self.tech).energies()

    # ------------------------------------------------------------------
    # The paper's three equations
    # ------------------------------------------------------------------
    def functional_power(self, algorithm: MarchAlgorithm) -> float:
        """P_F: average per-cycle energy in functional mode.

        The paper folds the unselected-column pre-charge activity into its
        measured P_r / P_w (they are whole-memory powers); the closed-form
        model makes that explicit: operation energy of the selected column
        plus (#col − 1) pre-charge circuits sustaining RES.
        """
        ops = algorithm.operation_count
        reads, writes = algorithm.read_count, algorithm.write_count
        operation_energy = (reads * self.energies.read + writes * self.energies.write) / ops
        words_per_access = self.geometry.bits_per_word
        unselected = self.geometry.columns - words_per_access
        res_energy = unselected * self.energies.res_per_column
        cell_res = unselected * self.energies.cell_res
        return operation_energy + res_energy + cell_res + self.energies.leakage_per_cycle

    def low_power_test_power(self, algorithm: MarchAlgorithm,
                             include_secondary: bool = False,
                             include_next_column_recharge: bool = False) -> float:
        """P_LPT: average per-cycle energy in the low-power test mode.

        With both flags at their defaults this is exactly the paper's
        equation.  ``include_secondary`` adds the LPtest-driver and
        control-logic terms the paper argues are negligible;
        ``include_next_column_recharge`` adds the recharge of the following
        column's discharged bit line, which the paper's equation omits and
        which the behavioural measurement includes.
        """
        functional = self.functional_power(algorithm)
        savings = self.res_savings_per_cycle()
        overhead = self.row_transition_overhead_per_cycle(algorithm)
        secondary = self.secondary_overhead_per_cycle(algorithm) if include_secondary else 0.0
        recharge = (self.next_column_recharge_per_cycle(algorithm)
                    if include_next_column_recharge else 0.0)
        return functional - savings + overhead + secondary + recharge

    def prr(self, algorithm: MarchAlgorithm, include_secondary: bool = False,
            include_next_column_recharge: bool = False) -> float:
        """The Power Reduction Ratio, 1 − P_LPT / P_F."""
        functional = self.functional_power(algorithm)
        low_power = self.low_power_test_power(
            algorithm, include_secondary=include_secondary,
            include_next_column_recharge=include_next_column_recharge)
        return 1.0 - low_power / functional

    # ------------------------------------------------------------------
    # Individual terms
    # ------------------------------------------------------------------
    def res_savings_per_cycle(self) -> float:
        """(#col − 2·bits_per_word) · P_A: the suppressed pre-charge activity.

        In the bit-oriented case this is the paper's (#col − 2) · P_A: only
        the selected column and its neighbour keep their pre-charge, all
        other columns' RES-sustaining energy is saved.  The cell-side RES
        energy of those columns disappears with it.
        """
        active = 2 * self.geometry.bits_per_word
        saved_columns = self.geometry.columns - active
        if saved_columns < 0:
            saved_columns = 0
        return saved_columns * (self.energies.res_per_column + self.energies.cell_res)

    def row_transition_overhead_per_cycle(self, algorithm: MarchAlgorithm) -> float:
        """(#elements / #operations) · P_B: the restoration cycles, amortised.

        One full-array restoration happens per row per element (total
        ``#elements · #rows`` over the run); each restores ``#columns``
        columns at P_B apiece, and the run lasts
        ``#operations · #rows · #words_per_row`` cycles.  The per-cycle
        average therefore reduces to
        ``(#elements / #operations) · P_B · bits_per_word``, which is exactly
        the paper's (#elm / #ops) · P_B term for a bit-oriented array.
        """
        per_element_rate = algorithm.element_count / algorithm.operation_count
        return (per_element_rate * self.energies.restore_per_column
                * self.geometry.bits_per_word)

    def next_column_recharge_per_cycle(self, algorithm: MarchAlgorithm) -> float:
        """Amortised cost of recharging the *next* column's discharged bit line.

        This term is absent from the paper's Section 5 equations: when the
        pre-charge of the following column is switched on (one cycle before
        that column is selected), its bit line has typically already been
        discharged by its cell while it was floating, so the pre-charge
        circuit must put roughly one full bit-line swing back.  That happens
        about once per column visit, i.e. once every
        ``#operations / #elements`` cycles.  The cycle-accurate behavioural
        measurement includes this cost automatically; keeping it available
        here lets the analytical model reconcile with the measurement (see
        EXPERIMENTS.md for the discussion of this systematic difference with
        the paper's own accounting).
        """
        per_element_rate = algorithm.element_count / algorithm.operation_count
        return (per_element_rate * self.energies.restore_per_column
                * self.geometry.bits_per_word)

    def secondary_overhead_per_cycle(self, algorithm: MarchAlgorithm) -> float:
        """LPtest driver + control-element switching, amortised per cycle.

        The paper argues both are negligible; keeping them lets the tests
        and the ablation bench quantify "negligible".
        """
        per_row_cycles = algorithm.operation_count * self.geometry.words_per_row
        lptest = self.energies.lptest_line / per_row_cycles * algorithm.element_count
        # one control element switches per column change: essentially once
        # per operation cycle divided by the operations per column visit.
        control = self.energies.control_element / max(1, algorithm.operation_count // algorithm.element_count)
        return lptest + control

    # ------------------------------------------------------------------
    def predict(self, algorithm: MarchAlgorithm,
                include_secondary: bool = False,
                include_next_column_recharge: bool = False) -> AnalyticalPrediction:
        """Full prediction bundle for one algorithm."""
        functional = self.functional_power(algorithm)
        savings = self.res_savings_per_cycle()
        overhead = self.row_transition_overhead_per_cycle(algorithm)
        secondary = self.secondary_overhead_per_cycle(algorithm) if include_secondary else 0.0
        if include_next_column_recharge:
            secondary += self.next_column_recharge_per_cycle(algorithm)
        low_power = functional - savings + overhead + secondary
        return AnalyticalPrediction(
            algorithm=algorithm.name,
            geometry=self.geometry.describe(),
            functional_per_cycle=functional,
            low_power_per_cycle=low_power,
            prr=1.0 - low_power / functional,
            res_savings_per_cycle=savings,
            row_transition_overhead_per_cycle=overhead,
            secondary_overhead_per_cycle=secondary,
        )
