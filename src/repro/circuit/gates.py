"""Gate-level logic substrate for the modified pre-charge control circuitry.

Section 4 of the paper implements the low-power test mode with one extra
element per column: a two-transmission-gate multiplexer plus one NAND gate
(ten transistors in total).  This module provides a small combinational
logic network model — gates with transistor counts, output-load
capacitances, propagation delays and per-toggle switching energy — used to

* evaluate the per-column pre-charge enable signals cycle by cycle
  (Figure 4 and Figure 8 behaviour);
* quantify the overhead of the added logic (area in transistors, extra
  delay on the Prj path, switching energy per column change), supporting
  the paper's "negligible impact" claims.

The network is purely combinational and is evaluated by levelisation
(topological order); sequential behaviour, where needed, lives in the
behavioural SRAM model, not here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Sequence, Tuple

from .technology import TechnologyParameters, default_technology


class LogicError(Exception):
    """Raised for malformed logic networks (unknown nets, cycles, ...)."""


@dataclass(frozen=True)
class GateKind:
    """Static description of a gate type."""

    name: str
    inputs: int
    transistors: int
    #: intrinsic delay in seconds (representative 0.13 µm FO1 figures).
    delay: float
    #: output capacitance switched on a toggle, in farads.
    output_cap: float
    #: boolean function of the input tuple.
    function: Callable[[Tuple[bool, ...]], bool]


def _check_arity(values: Tuple[bool, ...], expected: int, name: str) -> None:
    if len(values) != expected:
        raise LogicError(f"{name} expects {expected} inputs, got {len(values)}")


INVERTER = GateKind(
    name="inv", inputs=1, transistors=2, delay=22e-12, output_cap=1.2e-15,
    function=lambda v: not v[0],
)
BUFFER = GateKind(
    name="buf", inputs=1, transistors=4, delay=40e-12, output_cap=1.4e-15,
    function=lambda v: v[0],
)
NAND2 = GateKind(
    name="nand2", inputs=2, transistors=4, delay=30e-12, output_cap=1.6e-15,
    function=lambda v: not (v[0] and v[1]),
)
NOR2 = GateKind(
    name="nor2", inputs=2, transistors=4, delay=34e-12, output_cap=1.6e-15,
    function=lambda v: not (v[0] or v[1]),
)
AND2 = GateKind(
    name="and2", inputs=2, transistors=6, delay=52e-12, output_cap=1.8e-15,
    function=lambda v: v[0] and v[1],
)
OR2 = GateKind(
    name="or2", inputs=2, transistors=6, delay=56e-12, output_cap=1.8e-15,
    function=lambda v: v[0] or v[1],
)
XOR2 = GateKind(
    name="xor2", inputs=2, transistors=8, delay=70e-12, output_cap=2.0e-15,
    function=lambda v: v[0] != v[1],
)
#: Transmission-gate 2:1 multiplexer with local select inverter — the exact
#: structure of Figure 8 (two transmission gates + one inverter = 6
#: transistors).  Inputs: (select, when_select_0, when_select_1).
TGATE_MUX2 = GateKind(
    name="tgmux2", inputs=3, transistors=6, delay=28e-12, output_cap=1.8e-15,
    function=lambda v: v[2] if v[0] else v[1],
)


@dataclass
class GateInstance:
    """One gate placed in a :class:`LogicNetwork`."""

    name: str
    kind: GateKind
    inputs: Tuple[str, ...]
    output: str

    def evaluate(self, values: Mapping[str, bool]) -> bool:
        try:
            input_values = tuple(bool(values[n]) for n in self.inputs)
        except KeyError as exc:
            raise LogicError(f"gate {self.name!r} reads undriven net {exc.args[0]!r}") from exc
        _check_arity(input_values, self.kind.inputs, self.kind.name)
        return bool(self.kind.function(input_values))


@dataclass
class EvaluationResult:
    """Result of one combinational evaluation of a :class:`LogicNetwork`."""

    values: Dict[str, bool]
    toggled_nets: List[str]
    switching_energy: float
    critical_path_delay: float

    def value(self, net: str) -> bool:
        try:
            return self.values[net]
        except KeyError as exc:
            raise LogicError(f"unknown net {net!r}") from exc


class LogicNetwork:
    """A named combinational network with energy and delay book-keeping."""

    def __init__(self, name: str, tech: TechnologyParameters | None = None) -> None:
        self.name = name
        self.tech = tech or default_technology()
        self._gates: List[GateInstance] = []
        self._primary_inputs: List[str] = []
        self._net_loads: Dict[str, float] = {}
        self._previous_values: Dict[str, bool] | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_input(self, net: str) -> str:
        if net in self._primary_inputs:
            raise LogicError(f"primary input {net!r} declared twice")
        self._primary_inputs.append(net)
        return net

    def add_gate(self, kind: GateKind, name: str, inputs: Sequence[str], output: str) -> GateInstance:
        if len(inputs) != kind.inputs:
            raise LogicError(
                f"gate {name!r} of kind {kind.name!r} needs {kind.inputs} inputs, got {len(inputs)}"
            )
        if any(g.output == output for g in self._gates):
            raise LogicError(f"net {output!r} already driven by another gate")
        if output in self._primary_inputs:
            raise LogicError(f"net {output!r} is a primary input and cannot be driven")
        gate = GateInstance(name=name, kind=kind, inputs=tuple(inputs), output=output)
        self._gates.append(gate)
        return gate

    def add_net_load(self, net: str, capacitance: float) -> None:
        """Attach extra load (e.g. the pre-charge PMOS gates) to a net."""
        if capacitance < 0:
            raise LogicError("net load capacitance must be non-negative")
        self._net_loads[net] = self._net_loads.get(net, 0.0) + capacitance

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def gates(self) -> List[GateInstance]:
        return list(self._gates)

    def transistor_count(self) -> int:
        """Total transistor count of all gates in the network."""
        return sum(g.kind.transistors for g in self._gates)

    def nets(self) -> List[str]:
        names = set(self._primary_inputs)
        for gate in self._gates:
            names.add(gate.output)
            names.update(gate.inputs)
        return sorted(names)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _levelize(self) -> List[GateInstance]:
        """Topologically order the gates; raise on combinational loops."""
        driven_by: Dict[str, GateInstance] = {g.output: g for g in self._gates}
        levels: Dict[str, int] = {n: 0 for n in self._primary_inputs}
        ordered: List[GateInstance] = []
        remaining = list(self._gates)
        progress = True
        while remaining and progress:
            progress = False
            still: List[GateInstance] = []
            for gate in remaining:
                if all(net in levels for net in gate.inputs):
                    levels[gate.output] = 1 + max(levels[n] for n in gate.inputs)
                    ordered.append(gate)
                    progress = True
                else:
                    still.append(gate)
            remaining = still
        if remaining:
            undriven = sorted(
                {net for g in remaining for net in g.inputs
                 if net not in levels and net not in driven_by}
            )
            if undriven:
                raise LogicError(f"nets {undriven} are neither inputs nor gate outputs")
            raise LogicError(
                "combinational loop detected involving gates "
                + ", ".join(sorted(g.name for g in remaining))
            )
        return ordered

    def evaluate(self, inputs: Mapping[str, bool]) -> EvaluationResult:
        """Evaluate the network for one input vector.

        Switching energy is computed against the previous evaluation's net
        values (C·VDD² per toggled net, including explicit net loads); the
        first evaluation reports zero switching energy.
        """
        missing = [n for n in self._primary_inputs if n not in inputs]
        if missing:
            raise LogicError(f"missing values for primary inputs: {missing}")
        values: Dict[str, bool] = {n: bool(inputs[n]) for n in self._primary_inputs}
        arrival: Dict[str, float] = {n: 0.0 for n in self._primary_inputs}
        for gate in self._levelize():
            values[gate.output] = gate.evaluate(values)
            arrival[gate.output] = gate.kind.delay + max(arrival[n] for n in gate.inputs)

        toggled: List[str] = []
        energy = 0.0
        if self._previous_values is not None:
            for net, value in values.items():
                if self._previous_values.get(net) != value:
                    toggled.append(net)
                    cap = self._net_loads.get(net, 0.0)
                    cap += self._output_cap_of(net)
                    energy += cap * self.tech.vdd * self.tech.vdd
        self._previous_values = dict(values)
        critical = max(arrival.values()) if arrival else 0.0
        return EvaluationResult(
            values=values,
            toggled_nets=sorted(toggled),
            switching_energy=energy,
            critical_path_delay=critical,
        )

    def _output_cap_of(self, net: str) -> float:
        for gate in self._gates:
            if gate.output == net:
                return gate.kind.output_cap
        return 0.0

    def reset_state(self) -> None:
        """Forget the previous input vector (next evaluation costs no energy)."""
        self._previous_values = None

    def path_delay(self, output: str) -> float:
        """Worst-case arrival time of ``output`` assuming inputs at t=0."""
        arrival: Dict[str, float] = {n: 0.0 for n in self._primary_inputs}
        for gate in self._levelize():
            arrival[gate.output] = gate.kind.delay + max(arrival[n] for n in gate.inputs)
        if output not in arrival:
            raise LogicError(f"unknown output net {output!r}")
        return arrival[output]
