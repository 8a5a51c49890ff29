"""Functional fault models, fault injection, and coverage analysis.

Used to verify — rather than assume — the paper's Section 3 premise: the
fault detection capability of a March test does not depend on the address
sequence chosen for ⇑ (Degree Of Freedom 1), which is what legitimises the
word-line-after-word-line order of the low-power test mode.
"""

from .._lazy import lazy_exports

#: The submodule that defines each exported name, imported on first access.
_EXPORTS = {
    "CellState": ".models",
    "FaultModel": ".models",
    "FaultModelError": ".models",
    "FaultFree": ".models",
    "CouplingFault": ".models",
    "StuckAtFault": ".models",
    "TransitionFault": ".models",
    "ReadDestructiveFault": ".models",
    "DeceptiveReadDestructiveFault": ".models",
    "IncorrectReadFault": ".models",
    "WriteDestructiveFault": ".models",
    "StuckOpenFault": ".models",
    "DataRetentionFault": ".models",
    "StateCouplingFault": ".models",
    "IdempotentCouplingFault": ".models",
    "InversionCouplingFault": ".models",
    "DisturbCouplingFault": ".models",
    "DynamicFault": ".models",
    "DynamicReadDestructiveFault": ".models",
    "DynamicDeceptiveReadDestructiveFault": ".models",
    "DynamicIncorrectReadFault": ".models",
    "NeighbourhoodFault": ".models",
    "StaticNeighbourhoodPatternFault": ".models",
    "ActiveNeighbourhoodPatternFault": ".models",
    "single_cell_fault_models": ".models",
    "coupling_fault_models": ".models",
    "dynamic_fault_models": ".models",
    "neighbourhood_fault_models": ".models",
    "FAULT_BACKENDS": ".backend",
    "FaultBackend": ".backend",
    "ReferenceFaultBackend": ".backend",
    "DetectionResult": ".simulator",
    "FaultInjection": ".simulator",
    "FaultSimulationError": ".simulator",
    "FaultSimulator": ".simulator",
    "LogicalMemory": ".simulator",
    "type1_neighbourhood": ".simulator",
    "CampaignResult": ".coverage",
    "CoverageReport": ".coverage",
    "InvarianceReport": ".coverage",
    "DEFAULT_LOCATION_SEED": ".coverage",
    "build_fault_list": ".coverage",
    "check_order_invariance": ".coverage",
    "default_fault_locations": ".coverage",
    "neighbour_of": ".coverage",
    "run_campaign": ".coverage",
    "run_coverage": ".coverage",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
