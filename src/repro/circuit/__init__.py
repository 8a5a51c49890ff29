"""Spice-substitute circuit simulation substrate.

The original paper validates its low-power test scheme with transistor-level
Spice simulations of a 0.13 µm SRAM.  This subpackage provides the
replacement used throughout the repository:

* :mod:`repro.circuit.technology` — the 0.13 µm / 1.6 V / 3 ns operating
  point every other model is calibrated from;
* :mod:`repro.circuit.mosfet` — square-law MOSFET devices;
* :mod:`repro.circuit.elements` — resistors, switches, sources, capacitors;
* :mod:`repro.circuit.transient` — a fixed-step nodal transient solver with
  per-source energy accounting;
* :mod:`repro.circuit.waveform` — sampled waveforms and their analysis;
* :mod:`repro.circuit.gates` — a combinational gate network model with
  transistor counts, delays and switching energy (used for the modified
  pre-charge control logic of Section 4).
"""

from .._lazy import lazy_exports

#: The submodule that defines each exported name, imported on first access.
_EXPORTS = {
    "TechnologyParameters": ".technology",
    "PAPER_TECHNOLOGY": ".technology",
    "default_technology": ".technology",
    "Waveform": ".waveform",
    "align_waveforms": ".waveform",
    "Mosfet": ".mosfet",
    "MosfetParameters": ".mosfet",
    "nmos": ".mosfet",
    "pmos": ".mosfet",
    "equivalent_on_resistance": ".mosfet",
    "GROUND": ".elements",
    "Capacitor": ".elements",
    "CurrentSource": ".elements",
    "Element": ".elements",
    "PiecewiseLinearSource": ".elements",
    "Resistor": ".elements",
    "Switch": ".elements",
    "always_off": ".elements",
    "always_on": ".elements",
    "step_control": ".elements",
    "Circuit": ".transient",
    "CircuitError": ".transient",
    "SourceEnergy": ".transient",
    "TransientResult": ".transient",
    "GateKind": ".gates",
    "GateInstance": ".gates",
    "LogicNetwork": ".gates",
    "LogicError": ".gates",
    "EvaluationResult": ".gates",
    "INVERTER": ".gates",
    "BUFFER": ".gates",
    "NAND2": ".gates",
    "NOR2": ".gates",
    "AND2": ".gates",
    "OR2": ".gates",
    "XOR2": ".gates",
    "TGATE_MUX2": ".gates",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
