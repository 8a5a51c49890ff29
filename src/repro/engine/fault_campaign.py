"""NumPy-vectorized fault-campaign engine.

The reference fault path simulates one injected fault at a time: a complete
March execution per injection, even though every injection of a campaign
replays the *same* operation trace.  A full single-cell + coupling campaign
on the paper's 512 x 512 array is tens of thousands of complete March runs
— effectively unrunnable in scalar Python.

This engine exploits the structure the scalar simulator rediscovers on
every run:

* a March element applies its operations to every address, so each victim
  (and each aggressor) is visited exactly once per element, at a position
  given by the address order's rank of that cell — the whole schedule of
  one injection collapses to a handful of integers per element;
* every cell except the victim behaves fault-free, and a validated March
  algorithm reads exactly what it wrote, so the fault-free memory (cell
  values, data-bus value, aggressor state) is known in closed form from
  the trace — only the victim's state must actually be simulated;
* therefore all injections of one fault class can be simulated
  *simultaneously*: the victims' states become parallel NumPy arrays, and
  each March operation is a handful of vector expressions applied to every
  injection at once.

Per-fault detection verdicts (detected / first detection step / mismatch
count) are bit-identical to the reference simulator — the test-suite
asserts this across every standard fault model, both addressing directions
and several address orders.  Fault models the engine has no kernel for
(user-defined :class:`~repro.faults.models.FaultModel` subclasses) raise
:class:`UnsupportedFaultCampaign`, so ``backend="auto"`` campaigns fall
back to the reference path instead of silently mis-simulating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..march.algorithm import MarchAlgorithm, MarchValidationError
from ..march.element import AddressingDirection
from ..march.execution import OperationTrace, compile_trace
from ..march.ordering import AddressOrder
from ..sram.geometry import ArrayGeometry
from .vectorized import EngineError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..faults.simulator import DetectionResult, FaultInjection

try:  # numpy is required for this backend only; the scalar path runs without it
    import numpy as np
except ImportError:  # pragma: no cover - the container ships numpy
    np = None  # type: ignore[assignment]


class UnsupportedFaultCampaign(EngineError):
    """The vectorized engine cannot represent this campaign exactly.

    Raised for fault models without a vector kernel (user-defined
    subclasses), word-oriented geometries, unvalidated algorithms (whose
    fault-free bus values are not known in closed form), or a geometry
    mismatch between simulator and address order.  The reference backend
    handles every such case; ``backend="auto"`` falls back automatically.
    """


def _require_numpy() -> None:
    if np is None:  # pragma: no cover - exercised only without numpy
        raise EngineError(
            "the vectorized fault-campaign engine requires numpy; install "
            "numpy or use backend='reference'")


#: Encoding of the scalar simulator's ``CellState.value is None`` in the
#: int8 state arrays (cells start unwritten; stuck-open cells never leave it).
_NONE = -1


def _encode(value: Optional[int]) -> int:
    """Map ``None``/0/1 (the scalar cell value domain) onto int8 codes."""
    return _NONE if value is None else int(value)


# ----------------------------------------------------------------------
# Per-element campaign context (shared by every fault-class group)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _ElementContext:
    """Closed-form facts about one element every kernel needs.

    ``bg_before`` is the homogeneous fault-free cell value when the
    element starts (``-1`` before the first write); ``prev_value`` the
    fault-free data-bus value just before the element's first access
    (the last operation value of the previous element, 0 at test start);
    ``last_op_value`` the bus value after any non-first address finishes
    its visit — together they give the bus state preceding any victim
    visit without replaying the trace.
    """

    up: bool
    operations: Tuple
    k: int
    base_step: int
    bg_before: int
    prev_value: int
    last_op_value: int


def _element_contexts(trace: OperationTrace) -> List[_ElementContext]:
    """Compile the per-element closed-form facts of a trace."""
    contexts: List[_ElementContext] = []
    backgrounds = trace.element_backgrounds()
    previous_value = 0  # LogicalMemory initialises the data bus to 0
    for element, background in zip(trace.elements, backgrounds):
        contexts.append(_ElementContext(
            up=element.direction is AddressingDirection.UP,
            operations=element.operations,
            k=element.operation_count,
            base_step=element.base_step,
            bg_before=_encode(background),
            prev_value=previous_value,
            last_op_value=element.operations[-1].value,
        ))
        previous_value = element.operations[-1].value
    return contexts


# ----------------------------------------------------------------------
# Single-cell fault kernels — vector forms of repro.faults.models hooks
# ----------------------------------------------------------------------
class _SingleKernel:
    """Vector form of a single-cell fault model's write/read hooks.

    ``write`` maps (state array, written value) to the new state array;
    ``read`` returns ``(new state, stored observation, bus mask)`` where
    the bus mask marks lanes whose read drives nothing onto the data bus
    (the scalar ``on_read() is None`` case) and therefore observe the
    previous bus value.  The default implementations are fault-free,
    mirroring :class:`repro.faults.models.FaultModel`.
    """

    #: retention threshold in cycles (data-retention faults only).
    retention: Optional[int] = None
    #: value a retention fault decays to.
    leak_to: int = 0
    #: True when reads need back-to-back adjacency context
    #: (:meth:`read_dynamic` is called instead of :meth:`read`).
    dynamic = False

    def write(self, val: "np.ndarray", value: int) -> "np.ndarray":
        """Apply a functional write of ``value`` to every lane."""
        return np.full_like(val, value)

    def read(self, val: "np.ndarray"):
        """Return ``(new_state, stored_observation, bus_mask)`` per lane."""
        return val, val, val == _NONE


class _StuckAtKernel(_SingleKernel):
    """SAF: the cell permanently holds the stuck value."""

    def __init__(self, stuck_value: int) -> None:
        self.stuck_value = stuck_value

    def write(self, val, value):
        return np.full_like(val, self.stuck_value)

    def read(self, val):
        stuck = np.full_like(val, self.stuck_value)
        return stuck, stuck, np.zeros(val.shape, dtype=bool)


class _TransitionKernel(_SingleKernel):
    """TF: one write transition fails, the cell keeps its old value."""

    def __init__(self, rising: bool) -> None:
        self.rising = rising

    def write(self, val, value):
        if self.rising:
            fails = (val == 0) & (value == 1)
        else:
            fails = (val == 1) & (value == 0)
        return np.where(fails, val, np.int8(value))


class _ReadDestructiveKernel(_SingleKernel):
    """RDF: a read flips the cell and returns the flipped value."""

    def read(self, val):
        none = val == _NONE
        flipped = np.where(none, val, 1 - val).astype(np.int8)
        return flipped, flipped, none


class _DeceptiveReadDestructiveKernel(_SingleKernel):
    """DRDF: a read flips the cell but still returns the original value."""

    def read(self, val):
        none = val == _NONE
        flipped = np.where(none, val, 1 - val).astype(np.int8)
        return flipped, val, none


class _IncorrectReadKernel(_SingleKernel):
    """IRF: reads return the complement; the cell keeps its value."""

    def read(self, val):
        none = val == _NONE
        return val, np.where(none, val, 1 - val).astype(np.int8), none


class _WriteDestructiveKernel(_SingleKernel):
    """WDF: a non-transition write flips the cell."""

    def write(self, val, value):
        flips = (val != _NONE) & (val == value)
        return np.where(flips, 1 - np.int8(value), np.int8(value))


class _StuckOpenKernel(_SingleKernel):
    """SOF: writes never reach the cell; reads observe the data bus."""

    def write(self, val, value):
        return val

    def read(self, val):
        return val, val, np.ones(val.shape, dtype=bool)


class _RetentionKernel(_SingleKernel):
    """DRF: after enough idle cycles the cell decays to its leak value."""

    def __init__(self, leak_to: int, retention_cycles: int) -> None:
        self.retention = retention_cycles
        self.leak_to = leak_to


# ----------------------------------------------------------------------
# Dynamic two-operation fault kernels
# ----------------------------------------------------------------------
class _DynamicKernelBase(_SingleKernel):
    """Shared sensitisation logic of the dynamic (two-operation) kernels.

    ``read_dynamic`` receives the per-lane adjacency mask (the victim was
    accessed in the immediately preceding clock cycle) plus the kind of
    that access — a *scalar* (``"w"``/``"r"``), because every lane of a
    campaign executes the same operation sequence and only the global
    step numbers differ per lane.
    """

    dynamic = True

    def __init__(self, after: str) -> None:
        self.after = after

    def _sensitised(self, adjacent: "np.ndarray", prev_kind: str) -> "np.ndarray":
        if self.after != "any" and prev_kind != self.after:
            return np.zeros(adjacent.shape, dtype=bool)
        return adjacent

    def read_dynamic(self, val: "np.ndarray", adjacent: "np.ndarray",
                     prev_kind: str):
        """Return ``(new_state, stored_observation, bus_mask)`` per lane."""
        raise NotImplementedError


class _DynamicReadDestructiveKernel(_DynamicKernelBase):
    """dRDF: the back-to-back read flips the cell and returns the flip."""

    def read_dynamic(self, val, adjacent, prev_kind):
        sens = self._sensitised(adjacent, prev_kind) & (val != _NONE)
        flipped = np.where(sens, 1 - val, val).astype(np.int8)
        return flipped, flipped, val == _NONE


class _DynamicDeceptiveReadDestructiveKernel(_DynamicKernelBase):
    """dDRDF: the back-to-back read flips the cell, returns the original."""

    def read_dynamic(self, val, adjacent, prev_kind):
        sens = self._sensitised(adjacent, prev_kind) & (val != _NONE)
        flipped = np.where(sens, 1 - val, val).astype(np.int8)
        return flipped, val, val == _NONE


class _DynamicIncorrectReadKernel(_DynamicKernelBase):
    """dIRF: the back-to-back read returns the complement; state kept."""

    def read_dynamic(self, val, adjacent, prev_kind):
        sens = self._sensitised(adjacent, prev_kind) & (val != _NONE)
        stored = np.where(sens, 1 - val, val).astype(np.int8)
        return val, stored, val == _NONE


# ----------------------------------------------------------------------
# Coupling fault kernels
# ----------------------------------------------------------------------
class _CouplingKernel:
    """Vector form of an aggressor→victim coupling fault's hooks.

    ``apply_aggressor`` replays the aggressor's visit of one element —
    whose fault-free value trajectory is a scalar event list shared by
    every lane — onto the masked victim lanes; ``on_victim_access`` is
    the per-access state hook (CFst) given each lane's current aggressor
    value.  Defaults are no-ops, mirroring the scalar base class.
    """

    def apply_aggressor(self, val: "np.ndarray", events, mask: "np.ndarray"
                        ) -> "np.ndarray":
        """Replay one aggressor visit (``events``) onto the lanes in ``mask``."""
        return val

    def on_victim_access(self, val: "np.ndarray", aggressor: "np.ndarray"
                         ) -> "np.ndarray":
        """State hook applied before every victim access (CFst only)."""
        return val


class _StateCouplingKernel(_CouplingKernel):
    """CFst: while the aggressor holds a state the victim is forced."""

    def __init__(self, aggressor_state: int, victim_value: int) -> None:
        self.aggressor_state = aggressor_state
        self.victim_value = victim_value

    def apply_aggressor(self, val, events, mask):
        for kind, _old, new in events:
            if kind == "w" and new == self.aggressor_state:
                val = np.where(mask, np.int8(self.victim_value), val)
        return val

    def on_victim_access(self, val, aggressor):
        forced = aggressor == self.aggressor_state
        return np.where(forced, np.int8(self.victim_value), val)


class _IdempotentCouplingKernel(_CouplingKernel):
    """CFid: a given aggressor write transition forces the victim."""

    def __init__(self, rising: bool, victim_value: int) -> None:
        self.rising = rising
        self.victim_value = victim_value

    def apply_aggressor(self, val, events, mask):
        for kind, old, new in events:
            if kind != "w" or old == _NONE:
                continue
            if (self.rising and old == 0 and new == 1) or \
                    (not self.rising and old == 1 and new == 0):
                val = np.where(mask, np.int8(self.victim_value), val)
        return val


class _InversionCouplingKernel(_CouplingKernel):
    """CFin: a given aggressor write transition inverts the victim."""

    def __init__(self, rising: bool) -> None:
        self.rising = rising

    def apply_aggressor(self, val, events, mask):
        for kind, old, new in events:
            if kind != "w" or old == _NONE:
                continue
            if (self.rising and old == 0 and new == 1) or \
                    (not self.rising and old == 1 and new == 0):
                val = np.where(mask & (val != _NONE), 1 - val, val).astype(np.int8)
        return val


class _DisturbCouplingKernel(_CouplingKernel):
    """CFdst: any read of the aggressor disturbs the victim to a fixed value."""

    def __init__(self, victim_value: int) -> None:
        self.victim_value = victim_value

    def apply_aggressor(self, val, events, mask):
        for kind, _old, _new in events:
            if kind == "r":
                val = np.where(mask, np.int8(self.victim_value), val)
        return val


# ----------------------------------------------------------------------
# Neighbourhood (NPSF) fault kernels
# ----------------------------------------------------------------------
class _NeighbourhoodKernel:
    """Vector form of a neighbourhood pattern sensitive fault's hooks.

    Neighbourhood cells are fault-free, so within one element each of
    them jumps from the element's background value to its after-visit
    value exactly at its own position — the value neighbour ``j`` holds
    while neighbour ``m`` is being visited is a closed-form two-way
    select on their positions.  ``apply_visits`` replays the forcing
    caused by the neighbour visits in ``phase`` (before or after the
    victim's own visit; forcing writes a constant, so ordering within a
    phase is immaterial); ``on_victim_access`` is the per-access state
    hook (SNPSF only) given each neighbour's current value.
    """

    def __init__(self, pattern, victim_value: int) -> None:
        self.pattern = tuple(pattern)
        self.victim_value = victim_value

    def apply_visits(self, val: "np.ndarray", events, bg: int, after: int,
                     pos_n: "np.ndarray", phase: "np.ndarray") -> "np.ndarray":
        """Replay the neighbour visits selected by ``phase`` (k x lanes)."""
        return val

    def on_victim_access(self, val: "np.ndarray", neighbour_now: "np.ndarray"
                         ) -> "np.ndarray":
        """State hook applied before every victim access (SNPSF only)."""
        return val

    def _others_match(self, m: int, bg: int, after: int,
                      pos_n: "np.ndarray") -> "np.ndarray":
        """Lanes where every neighbour j != m matches pattern[j] at the
        moment neighbour m is visited."""
        ok = np.ones(pos_n.shape[1], dtype=bool)
        for j, bit in enumerate(self.pattern):
            if j == m:
                continue
            value_j = np.where(pos_n[j] < pos_n[m], np.int8(after), np.int8(bg))
            ok &= value_j == bit
        return ok


class _StaticNeighbourhoodKernel(_NeighbourhoodKernel):
    """SNPSF: while all neighbours hold the pattern the victim is forced."""

    def apply_visits(self, val, events, bg, after, pos_n, phase):
        for m, bit in enumerate(self.pattern):
            # A write during m's visit leaves m at the written value; the
            # full-pattern check then only involves the other neighbours.
            if not any(kind == "w" and new == bit for kind, _old, new in events):
                continue
            forced = phase[m] & self._others_match(m, bg, after, pos_n)
            val = np.where(forced, np.int8(self.victim_value), val)
        return val

    def on_victim_access(self, val, neighbour_now):
        match = np.ones(val.shape, dtype=bool)
        for j, bit in enumerate(self.pattern):
            match &= neighbour_now[j] == bit
        return np.where(match, np.int8(self.victim_value), val)


class _ActiveNeighbourhoodKernel(_NeighbourhoodKernel):
    """ANPSF: a neighbour's write transition with the rest in pattern forces."""

    def __init__(self, rising: bool, pattern, victim_value: int) -> None:
        super().__init__(pattern, victim_value)
        self.rising = rising

    def _transitions(self, events) -> bool:
        for kind, old, new in events:
            if kind != "w" or old == _NONE:
                continue
            if (self.rising and old == 0 and new == 1) or \
                    (not self.rising and old == 1 and new == 0):
                return True
        return False

    def apply_visits(self, val, events, bg, after, pos_n, phase):
        if not self._transitions(events):
            return val
        for m in range(len(self.pattern)):
            forced = phase[m] & self._others_match(m, bg, after, pos_n)
            val = np.where(forced, np.int8(self.victim_value), val)
        return val


# ----------------------------------------------------------------------
# The campaign engine
# ----------------------------------------------------------------------
class VectorizedFaultCampaign:
    """Batch fault-simulation backend: one trace replay per fault *class*.

    Construction mirrors :class:`repro.faults.FaultSimulator`: a
    bit-oriented geometry plus the concrete direction ``⇕`` elements
    resolve to.  :meth:`simulate_many` groups the injections by fault
    class, turns each group's victims (and aggressors) into parallel
    position arrays, and replays the compiled trace once per group with
    every March operation evaluated as vector expressions over all lanes
    simultaneously — emitting per-fault
    :class:`~repro.faults.simulator.DetectionResult` verdicts
    bit-identical to the reference simulator.
    """

    name = "vectorized"

    def __init__(self, geometry: ArrayGeometry,
                 any_direction: AddressingDirection = AddressingDirection.UP
                 ) -> None:
        _require_numpy()
        if geometry.bits_per_word != 1:
            raise UnsupportedFaultCampaign(
                "the fault-campaign engine models bit-oriented arrays "
                "(bits_per_word == 1), matching the logical fault simulator")
        self.geometry = geometry
        self.any_direction = any_direction

    # ------------------------------------------------------------------
    @staticmethod
    def _rank_for(order: AddressOrder) -> "np.ndarray":
        """``rank[linear_address] = position`` in the ascending sequence.

        Memoised on the order instance itself
        (:meth:`~repro.march.ordering.AddressOrder.rank_array`), so every
        campaign — and every tool sharing that order object, e.g. through
        the sweep orchestrator's per-worker order memo — pays the
        inversion once instead of once per engine instance.
        """
        return order.rank_array()

    def _linear(self, coordinate: Tuple[int, int]) -> int:
        row, word = coordinate
        self.geometry.validate_coordinates(row, word)
        return row * self.geometry.words_per_row + word

    # ------------------------------------------------------------------
    def simulate_many(self, algorithm: MarchAlgorithm, order: AddressOrder,
                      injections: Sequence["FaultInjection"],
                      trace: Optional[OperationTrace] = None,
                      ) -> List["DetectionResult"]:
        """Simulate a whole fault list under one run; results in input order.

        Raises :class:`UnsupportedFaultCampaign` when the batch contains a
        fault model without a vector kernel, the algorithm does not
        validate (closed-form fault-free values then do not hold), or the
        order's geometry differs from the simulator's.
        """
        from ..faults.simulator import DetectionResult

        _require_numpy()
        if order.geometry != self.geometry:
            raise UnsupportedFaultCampaign(
                "address order geometry differs from the campaign geometry; "
                "use the reference backend")
        try:
            algorithm.validate()
        except MarchValidationError as exc:
            raise UnsupportedFaultCampaign(
                f"{algorithm.name} does not validate ({exc}); the closed-form "
                "fault-free replay requires a consistent March test") from exc
        if trace is None:
            trace = compile_trace(algorithm, order, self.any_direction)

        injections = list(injections)
        groups: Dict[tuple, Tuple[object, List[int]]] = {}
        for index, injection in enumerate(injections):
            key, kernel = _kernel_for(injection.fault)
            if isinstance(kernel, _NeighbourhoodKernel):
                # Lanes of one group share the (k, lanes) position matrix,
                # so the neighbourhood size is part of the group identity.
                key = key + (len(injection.neighbourhood),)
            entry = groups.get(key)
            if entry is None:
                groups[key] = (kernel, [index])
            else:
                entry[1].append(index)

        rank = self._rank_for(order)
        contexts = _element_contexts(trace)
        word_count = self.geometry.word_count
        results: List[Optional[DetectionResult]] = [None] * len(injections)
        for kernel, indices in groups.values():
            victims = np.array([self._linear(injections[i].victim)
                                for i in indices], dtype=np.int64)
            if isinstance(kernel, _CouplingKernel):
                aggressors = np.array([self._linear(injections[i].aggressor)
                                       for i in indices], dtype=np.int64)
                mismatches, first = _run_coupling_group(
                    contexts, rank, word_count, kernel, victims, aggressors)
            elif isinstance(kernel, _NeighbourhoodKernel):
                neighbours = np.array(
                    [[self._linear(cell) for cell in injections[i].neighbourhood]
                     for i in indices], dtype=np.int64).T
                mismatches, first = _run_neighbourhood_group(
                    contexts, rank, word_count, kernel, victims, neighbours)
            else:
                mismatches, first = _run_single_group(
                    contexts, rank, word_count, kernel, victims)
            for lane, index in enumerate(indices):
                count = int(mismatches[lane])
                step = int(first[lane])
                results[index] = DetectionResult(
                    injection=injections[index],
                    algorithm=algorithm.name,
                    order=order.name,
                    detected=count > 0,
                    first_detection_step=step if step >= 0 else None,
                    mismatches=count,
                )
        return results  # type: ignore[return-value]


# ----------------------------------------------------------------------
# Group simulations (module-level: the hot loops, no self lookups)
# ----------------------------------------------------------------------
def _run_single_group(contexts: List[_ElementContext], rank: "np.ndarray",
                      word_count: int, kernel: _SingleKernel,
                      victims: "np.ndarray"):
    """Simulate all single-cell injections of one fault class in parallel.

    Per lane state mirrors the scalar simulator exactly: the victim's
    cell value (−1 = unwritten), the step/value of the victim's most
    recent access (for consecutive-access data-bus reuse), and the cycle
    of the last access (retention idle time).  Everything a victim read
    can observe besides its own cell — the data-bus value left by the
    preceding access — is a closed-form fact of the validated trace.
    """
    lanes = victims.size
    val = np.full(lanes, _NONE, dtype=np.int8)
    last_step = np.full(lanes, -2, dtype=np.int64)
    last_obs = np.zeros(lanes, dtype=np.int8)
    last_cycle = np.zeros(lanes, dtype=np.int64)
    mismatches = np.zeros(lanes, dtype=np.int64)
    first = np.full(lanes, -1, dtype=np.int64)
    victim_rank = rank[victims]
    # Kind of the victim's most recent access.  Every lane executes the
    # same operation sequence (only the global step differs), so this is
    # a plain scalar; adjacency (last_step == step - 1) stays per-lane.
    last_kind = "w"

    for ctx in contexts:
        position = victim_rank if ctx.up else (word_count - 1) - victim_rank
        base = ctx.base_step + position * ctx.k
        # Fault-free bus value preceding the visit's first access: the last
        # operation of the previous address (same element), or of the
        # previous element when the victim is visited first.
        ff_prev = np.where(position == 0, np.int8(ctx.prev_value),
                           np.int8(ctx.last_op_value))
        for op_index, operation in enumerate(ctx.operations):
            step = base + op_index
            if kernel.retention is not None:
                idle = (step + 1) - last_cycle
                val = np.where(idle >= kernel.retention,
                               np.int8(kernel.leak_to), val)
            last_cycle = step + 1
            if operation.is_write:
                val = kernel.write(val, operation.value)
                observed = np.full(lanes, operation.value, dtype=np.int8)
                last_kind = "w"
            else:
                if kernel.dynamic:
                    val, stored, bus_mask = kernel.read_dynamic(
                        val, last_step == step - 1, last_kind)
                else:
                    val, stored, bus_mask = kernel.read(val)
                bus = np.where(last_step == step - 1, last_obs, ff_prev)
                observed = np.where(bus_mask, bus, stored).astype(np.int8)
                bad = observed != operation.value
                mismatches += bad
                first = np.where(bad & (first < 0), step, first)
                last_kind = "r"
            last_obs = observed
            last_step = step
    return mismatches, first


def _run_coupling_group(contexts: List[_ElementContext], rank: "np.ndarray",
                        word_count: int, kernel: _CouplingKernel,
                        victims: "np.ndarray", aggressors: "np.ndarray"):
    """Simulate all coupling injections of one fault class in parallel.

    The aggressor is fault-free, so its value trajectory during its visit
    is one scalar event list per element, shared by every lane; only
    *when* that visit happens relative to the victim's differs per lane.
    Each element is therefore replayed in three phases: the aggressor
    visit for lanes where it precedes the victim, the victim's operations
    for all lanes (with each lane's current aggressor value selected by
    phase), and the aggressor visit for the remaining lanes.
    """
    lanes = victims.size
    val = np.full(lanes, _NONE, dtype=np.int8)
    last_step = np.full(lanes, -2, dtype=np.int64)
    last_obs = np.zeros(lanes, dtype=np.int8)
    mismatches = np.zeros(lanes, dtype=np.int64)
    first = np.full(lanes, -1, dtype=np.int64)
    victim_rank = rank[victims]
    aggressor_rank = rank[aggressors]

    for ctx in contexts:
        if ctx.up:
            pos_victim, pos_aggressor = victim_rank, aggressor_rank
        else:
            pos_victim = (word_count - 1) - victim_rank
            pos_aggressor = (word_count - 1) - aggressor_rank
        base = ctx.base_step + pos_victim * ctx.k
        aggressor_first = pos_aggressor < pos_victim

        # The aggressor's fault-free visit: one scalar event list.
        events = []
        current = ctx.bg_before
        for operation in ctx.operations:
            if operation.is_write:
                events.append(("w", current, operation.value))
                current = operation.value
            else:
                events.append(("r", current, None))
        aggressor_after = current

        val = kernel.apply_aggressor(val, events, aggressor_first)
        aggressor_now = np.where(aggressor_first, np.int8(aggressor_after),
                                 np.int8(ctx.bg_before))
        ff_prev = np.where(pos_victim == 0, np.int8(ctx.prev_value),
                           np.int8(ctx.last_op_value))
        for op_index, operation in enumerate(ctx.operations):
            step = base + op_index
            val = kernel.on_victim_access(val, aggressor_now)
            if operation.is_write:
                val = np.full(lanes, operation.value, dtype=np.int8)
                observed = val
            else:
                bus = np.where(last_step == step - 1, last_obs, ff_prev)
                observed = np.where(val == _NONE, bus, val).astype(np.int8)
                bad = observed != operation.value
                mismatches += bad
                first = np.where(bad & (first < 0), step, first)
            last_obs = observed
            last_step = step
        val = kernel.apply_aggressor(val, events, ~aggressor_first)
    return mismatches, first


def _run_neighbourhood_group(contexts: List[_ElementContext], rank: "np.ndarray",
                             word_count: int, kernel: _NeighbourhoodKernel,
                             victims: "np.ndarray", neighbours: "np.ndarray"):
    """Simulate all neighbourhood injections of one fault class in parallel.

    ``neighbours`` is a (k, lanes) matrix of linear cell addresses.  Like
    the coupling runner, every neighbourhood cell is fault-free, so its
    per-element value trajectory is the shared scalar event list; each
    element is replayed in three phases — neighbour visits preceding the
    victim's, the victim's own operations (with every neighbour's current
    value a closed-form position select), then the remaining neighbour
    visits.  NPSF forcing writes a constant, so the visit order *within*
    a phase never changes the outcome.
    """
    lanes = victims.size
    val = np.full(lanes, _NONE, dtype=np.int8)
    last_step = np.full(lanes, -2, dtype=np.int64)
    last_obs = np.zeros(lanes, dtype=np.int8)
    mismatches = np.zeros(lanes, dtype=np.int64)
    first = np.full(lanes, -1, dtype=np.int64)
    victim_rank = rank[victims]
    neigh_rank = rank[neighbours]  # (k, lanes)

    for ctx in contexts:
        if ctx.up:
            pos_victim, pos_neigh = victim_rank, neigh_rank
        else:
            pos_victim = (word_count - 1) - victim_rank
            pos_neigh = (word_count - 1) - neigh_rank
        base = ctx.base_step + pos_victim * ctx.k
        before_victim = pos_neigh < pos_victim[None, :]

        # The fault-free visit of any cell: one scalar event list.
        events = []
        current = ctx.bg_before
        for operation in ctx.operations:
            if operation.is_write:
                events.append(("w", current, operation.value))
                current = operation.value
            else:
                events.append(("r", current, None))
        after_value = current

        val = kernel.apply_visits(val, events, ctx.bg_before, after_value,
                                  pos_neigh, before_victim)
        neighbour_now = np.where(before_victim, np.int8(after_value),
                                 np.int8(ctx.bg_before))  # (k, lanes)
        ff_prev = np.where(pos_victim == 0, np.int8(ctx.prev_value),
                           np.int8(ctx.last_op_value))
        for op_index, operation in enumerate(ctx.operations):
            step = base + op_index
            val = kernel.on_victim_access(val, neighbour_now)
            if operation.is_write:
                val = np.full(lanes, operation.value, dtype=np.int8)
                observed = val
            else:
                bus = np.where(last_step == step - 1, last_obs, ff_prev)
                observed = np.where(val == _NONE, bus, val).astype(np.int8)
                bad = observed != operation.value
                mismatches += bad
                first = np.where(bad & (first < 0), step, first)
            last_obs = observed
            last_step = step
        val = kernel.apply_visits(val, events, ctx.bg_before, after_value,
                                  pos_neigh, ~before_victim)
    return mismatches, first


# ----------------------------------------------------------------------
# Kernel registry — exact-type matching against repro.faults.models
# ----------------------------------------------------------------------
def _kernel_for(model) -> Tuple[tuple, object]:
    """Return ``(group key, kernel)`` for a fault model instance.

    Matching is by *exact* type: a user subclass of a standard model may
    override any hook, so it gets no kernel and the campaign raises
    :class:`UnsupportedFaultCampaign` (``backend="auto"`` then falls back
    to the reference path, which honours the overridden hooks).
    """
    from ..faults import models

    kind = type(model)
    if kind is models.FaultFree:
        return ("fault-free",), _SingleKernel()
    if kind is models.StuckAtFault:
        return ("SAF", model.stuck_value), _StuckAtKernel(model.stuck_value)
    if kind is models.TransitionFault:
        return ("TF", model.rising), _TransitionKernel(model.rising)
    if kind is models.ReadDestructiveFault:
        return ("RDF",), _ReadDestructiveKernel()
    if kind is models.DeceptiveReadDestructiveFault:
        return ("DRDF",), _DeceptiveReadDestructiveKernel()
    if kind is models.IncorrectReadFault:
        return ("IRF",), _IncorrectReadKernel()
    if kind is models.WriteDestructiveFault:
        return ("WDF",), _WriteDestructiveKernel()
    if kind is models.StuckOpenFault:
        return ("SOF",), _StuckOpenKernel()
    if kind is models.DataRetentionFault:
        return (("DRF", model.leak_to, model.retention_cycles),
                _RetentionKernel(model.leak_to, model.retention_cycles))
    if kind is models.DynamicReadDestructiveFault:
        return ("dRDF", model.after), _DynamicReadDestructiveKernel(model.after)
    if kind is models.DynamicDeceptiveReadDestructiveFault:
        return (("dDRDF", model.after),
                _DynamicDeceptiveReadDestructiveKernel(model.after))
    if kind is models.DynamicIncorrectReadFault:
        return ("dIRF", model.after), _DynamicIncorrectReadKernel(model.after)
    if kind is models.StaticNeighbourhoodPatternFault:
        return (("SNPSF", model.pattern, model.victim_value),
                _StaticNeighbourhoodKernel(model.pattern, model.victim_value))
    if kind is models.ActiveNeighbourhoodPatternFault:
        return (("ANPSF", model.rising, model.pattern, model.victim_value),
                _ActiveNeighbourhoodKernel(model.rising, model.pattern,
                                           model.victim_value))
    if kind is models.StateCouplingFault:
        return (("CFst", model.aggressor_state, model.victim_value),
                _StateCouplingKernel(model.aggressor_state, model.victim_value))
    if kind is models.IdempotentCouplingFault:
        return (("CFid", model.rising, model.victim_value),
                _IdempotentCouplingKernel(model.rising, model.victim_value))
    if kind is models.InversionCouplingFault:
        return ("CFin", model.rising), _InversionCouplingKernel(model.rising)
    if kind is models.DisturbCouplingFault:
        return (("CFdst", model.victim_value),
                _DisturbCouplingKernel(model.victim_value))
    raise UnsupportedFaultCampaign(
        f"no vectorized kernel for fault model {model.describe()!r} "
        f"({kind.__name__}); use backend='reference' (or 'auto')")
