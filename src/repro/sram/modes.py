"""Operating modes and per-cycle pre-charge plans of the SRAM.

The vocabulary shared by every execution path: the behavioural memory of
:mod:`repro.sram.memory` executes :class:`PrechargePlan` commands in an
:class:`OperatingMode`, the planners of :mod:`repro.core.lowpower` produce
them, and the vectorized engines of :mod:`repro.engine` measure the same
modes in closed form.  Kept apart from the behavioural memory, and free of
its cell, column and periphery models, so the vectorized paths import
only this vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import FrozenSet, Optional


class MemoryError_(Exception):
    """Raised on illegal accesses or inconsistent pre-charge plans."""


#: Ratio of cell-side RES energy to pre-charge-side RES energy; the paper
#: measures three orders of magnitude between the two.  Shared between the
#: behavioural memory and the vectorized backend (:mod:`repro.engine`) so
#: the two execution paths cannot drift apart.
CELL_RES_RATIO = 1.0e-3

#: Arrays at or below this many cells get fully detailed book-keeping by
#: default (per-event ledger entries, per-cell stress statistics), in the
#: behavioural memory and the vectorized engine alike.
DETAILED_CELL_LIMIT = 65536


class OperatingMode(Enum):
    """Memory operating mode (Section 4)."""

    FUNCTIONAL = "functional"
    LOW_POWER_TEST = "low_power_test"


@dataclass(frozen=True)
class PrechargePlan:
    """Pre-charge commands for one access cycle.

    ``enabled_columns``
        Columns whose pre-charge circuit is ON for the whole cycle, besides
        the selected column (which is always OFF during the operation phase
        and ON during its own restoration phase).  ``None`` reproduces the
        functional-mode behaviour: every unselected column stays pre-charged.
    ``full_restore``
        True for the one functional-mode cycle the low-power test mode
        inserts at the end of each row: every column's bit lines are
        restored to VDD during the restoration phase of this cycle.
    ``control_energy``
        Switching energy spent by the modified pre-charge control logic for
        this cycle (zero in plain functional mode).
    ``lptest_toggles``
        Number of transitions of the LPtest mode-selection line during this
        cycle (the line has word-line-class capacitance; it toggles around
        the row-transition restoration cycle).
    """

    enabled_columns: Optional[FrozenSet[int]] = None
    full_restore: bool = False
    control_energy: float = 0.0
    lptest_toggles: int = 0

    def __post_init__(self) -> None:
        if self.control_energy < 0:
            raise MemoryError_("control_energy must be non-negative")
        if self.lptest_toggles < 0:
            raise MemoryError_("lptest_toggles must be non-negative")


#: The plan equivalent to the unmodified functional-mode pre-charge policy.
FUNCTIONAL_PLAN = PrechargePlan(enabled_columns=None)
