"""Power modelling: per-event energies, sources, and cycle-accurate accounting.

* :mod:`repro.power.sources` — the Section-5 power source categories;
* :mod:`repro.power.accounting` — the energy ledger every simulation run
  books its supply energy into;
* :mod:`repro.power.model` — the closed-form per-event model (P_r, P_w,
  P_A, P_B) that feeds the analytical PRR equations and cross-checks the
  behavioural measurements.
"""

from .._lazy import lazy_exports

#: The submodule that defines each exported name, imported on first access.
_EXPORTS = {
    "PowerSource": ".sources",
    "SAVINGS_TARGET_SOURCES": ".sources",
    "OVERHEAD_SOURCES": ".sources",
    "AccountingError": ".accounting",
    "EnergyEvent": ".accounting",
    "EnergyLedger": ".accounting",
    "LedgerSummary": ".accounting",
    "SourceBreakdown": ".accounting",
    "OperationEnergies": ".model",
    "PowerModel": ".model",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
