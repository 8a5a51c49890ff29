"""SRAM substrate: cells, bit lines, pre-charge circuits, periphery, memory.

The behavioural memory model in :mod:`repro.sram.memory` executes read and
write operations cycle by cycle, tracking pre-charge activity, read
equivalent stress, floating bit lines and the faulty-swap hazard, and books
every quantum of supply energy into an :class:`repro.power.EnergyLedger`.
It is the measurement instrument on which the paper's experiments run.
"""

from .._lazy import lazy_exports

#: The submodule that defines each exported name, imported on first access.
_EXPORTS = {
    "ArrayGeometry": ".geometry",
    "PAPER_GEOMETRY": ".geometry",
    "SMALL_GEOMETRY": ".geometry",
    "CellError": ".cell",
    "CellFactory": ".cell",
    "CellStressStatistics": ".cell",
    "SixTransistorCell": ".cell",
    "BitLineError": ".bitline",
    "BitLinePair": ".bitline",
    "RestorationResult": ".bitline",
    "PrechargeActivity": ".precharge",
    "PrechargeCircuit": ".precharge",
    "PrechargeError": ".precharge",
    "ClockCycle": ".timing",
    "CyclePhase": ".timing",
    "TestClock": ".timing",
    "ColumnDecoder": ".periphery",
    "DecoderError": ".periphery",
    "RowDecoder": ".periphery",
    "SenseAmplifier": ".periphery",
    "WriteDriver": ".periphery",
    "Column": ".column",
    "ColumnError": ".column",
    "FloatingContext": ".column",
    "ArrayError": ".array",
    "BackgroundFunction": ".array",
    "CellArray": ".array",
    "checkerboard_background": ".array",
    "column_stripe_background": ".array",
    "row_stripe_background": ".array",
    "solid_background": ".array",
    "AccessOutcome": ".memory",
    "FUNCTIONAL_PLAN": ".modes",
    "MemoryError_": ".modes",
    "OperatingMode": ".modes",
    "PrechargePlan": ".modes",
    "SRAM": ".memory",
    "StressCounters": ".memory",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
