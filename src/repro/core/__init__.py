"""The paper's contribution: the low-power test mode for SRAM pre-charge.

* :mod:`repro.core.precharge_controller` — gate-level model of the modified
  pre-charge control logic (Figure 8): one mux + one NAND per column, ten
  transistors, driving the per-column pre-charge enables of Figure 4;
* :mod:`repro.core.lowpower` — cycle-level pre-charge planners: functional
  mode and the paper's low-power test mode (selected column + following
  column only, one functional restoration cycle per row transition);
* :mod:`repro.core.prr` — the analytical Section 5 power model (P_F, P_LPT,
  PRR) evaluated from closed-form per-event energies;
* :mod:`repro.core.session` — test sessions that run March algorithms on the
  behavioural SRAM in either mode and measure the Power Reduction Ratio.
"""

from .._lazy import lazy_exports

#: The submodule that defines each exported name, imported on first access.
_EXPORTS = {
    "ModifiedPrechargeController": ".precharge_controller",
    "ControllerDecision": ".precharge_controller",
    "ControllerError": ".precharge_controller",
    "TRANSISTORS_PER_COLUMN": ".precharge_controller",
    "PrechargePlanner": ".lowpower",
    "FunctionalModePlanner": ".lowpower",
    "LowPowerTestPlanner": ".lowpower",
    "WordOrientedLowPowerPlanner": ".lowpower",
    "PlannerError": ".lowpower",
    "PlannerStatistics": ".lowpower",
    "traversal_neighbour_delta": ".lowpower",
    "AnalyticalPowerModel": ".prr",
    "AnalyticalPrediction": ".prr",
    "AnalyticalModelError": ".prr",
    "TestSession": ".session",
    "TestRunResult": ".session",
    "ModeComparison": ".session",
    "ReadMismatch": ".session",
    "SessionError": ".session",
    "compare_modes": ".session",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
