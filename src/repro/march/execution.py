"""Execution walker: expand a March algorithm over an address order.

Both the fault simulator and the power/test session need the same thing: a
stream of primitive accesses (element by element, address by address,
operation by operation), each tagged with enough context for the low-power
pre-charge controller to do its job — in particular which access is the last
one on its row before the traversal moves to a different row (that is where
the paper's one-cycle full restoration goes) and what the next address will
be (that is the column whose pre-charge must be kept on).

Fault campaigns replay the *same* access stream against thousands of
injected faults, so this module also provides :class:`OperationTrace`: the
algorithm/order pair compiled once into per-element coordinate lists, base
step offsets and background values, shared by every replay (and by both
fault-simulation backends, so they cannot drift apart on what a run *is*).
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .algorithm import MarchAlgorithm
from .element import AddressingDirection, MarchElement
from .operations import MarchOperation
from .ordering import AddressOrder


class LazyCoordinates(SequenceABC):
    """A traversal's coordinate list, materialised on first element access.

    Compiling a trace used to walk the address order position by position
    to build the Python ``(row, word)`` list — the single most expensive
    step of a paper-scale vectorized campaign, even though that backend
    only ever consumes the *numpy* coordinate arrays.  This sequence keeps
    the list's interface (length, iteration, indexing, equality against
    plain lists) but defers building the tuples until a scalar consumer —
    the reference backend's replay — actually touches them.  ``len`` never
    materialises.  The descending instance reuses the ascending list
    reversed, preserving the one-expansion-per-direction sharing.
    """

    def __init__(self, order: AddressOrder, ascending: bool = True,
                 source: Optional["LazyCoordinates"] = None) -> None:
        self._order = order
        self._ascending = ascending
        self._source = source
        self._items: Optional[List[Tuple[int, int]]] = None

    def _materialised(self) -> List[Tuple[int, int]]:
        if self._items is None:
            if self._source is not None:
                self._items = self._source._materialised()[::-1]
            else:
                self._items = self._order.sequence(ascending=self._ascending)
        return self._items

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, index):
        return self._materialised()[index]

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return iter(self._materialised())

    def __eq__(self, other) -> bool:
        if isinstance(other, LazyCoordinates):
            return self._materialised() == other._materialised()
        if isinstance(other, list):
            return self._materialised() == other
        return NotImplemented

    def __repr__(self) -> str:
        state = "materialised" if self._items is not None else "lazy"
        direction = "ascending" if self._ascending else "descending"
        return (f"LazyCoordinates({self._order.name!r}, {direction}, "
                f"{len(self)} coordinates, {state})")


@dataclass(frozen=True)
class AccessStep:
    """One primitive access of a March test run."""

    #: global clock-cycle index of this access within the test.
    index: int
    element_index: int
    operation_index: int
    row: int
    word: int
    operation: MarchOperation
    #: concrete traversal direction of the element this access belongs to
    #: (``⇕`` elements are resolved to the walker's ``any_direction``).
    direction: AddressingDirection
    #: coordinates of the next access of the whole test (None for the last).
    next_row: Optional[int]
    next_word: Optional[int]
    #: True when this is the last access performed on this row before the
    #: traversal moves to a different row (or the test ends): the low-power
    #: test mode restores all bit lines during this cycle.
    last_access_on_row: bool
    #: True for the very first access of an element (useful for logging).
    first_of_element: bool
    #: True for the very last access of the whole test.
    last_of_test: bool

    @property
    def is_read(self) -> bool:
        return self.operation.is_read

    @property
    def is_write(self) -> bool:
        return self.operation.is_write


def resolve_direction(element: MarchElement,
                      any_direction: AddressingDirection = AddressingDirection.UP
                      ) -> AddressingDirection:
    """Resolve a ``⇕`` element to a concrete traversal direction (DOF 2)."""
    if element.direction is AddressingDirection.ANY:
        if any_direction is AddressingDirection.ANY:
            raise ValueError("any_direction must be a concrete direction")
        return any_direction
    return element.direction


def element_coordinates(element: MarchElement, order: AddressOrder,
                        any_direction: AddressingDirection = AddressingDirection.UP
                        ) -> Iterator[Tuple[int, int]]:
    """The (row, word) sequence an element visits under ``order``."""
    direction = resolve_direction(element, any_direction)
    if direction is AddressingDirection.UP:
        return order.ascending()
    return order.descending()


def walk(algorithm: MarchAlgorithm, order: AddressOrder,
         any_direction: AddressingDirection = AddressingDirection.UP
         ) -> Iterator[AccessStep]:
    """Yield every primitive access of ``algorithm`` under ``order``.

    The walker materialises one element's coordinate list at a time (the
    full address space), which keeps memory bounded to one list of
    ``word_count`` tuples while still allowing one-step lookahead across
    element boundaries.
    """
    index = 0
    elements = list(algorithm.elements)
    # Pre-compute, for lookahead across element boundaries, the first
    # coordinate of each element.
    first_coordinates: List[Optional[Tuple[int, int]]] = []
    for element in elements:
        coords = element_coordinates(element, order, any_direction)
        first_coordinates.append(next(iter(coords), None))

    for element_index, element in enumerate(elements):
        coordinates = list(element_coordinates(element, order, any_direction))
        operations = element.operations
        direction = resolve_direction(element, any_direction)
        for coord_index, (row, word) in enumerate(coordinates):
            is_last_coord = coord_index == len(coordinates) - 1
            if not is_last_coord:
                following_coord: Optional[Tuple[int, int]] = coordinates[coord_index + 1]
            elif element_index + 1 < len(elements):
                following_coord = first_coordinates[element_index + 1]
            else:
                following_coord = None
            for op_index, operation in enumerate(operations):
                is_last_op_here = op_index == len(operations) - 1
                if not is_last_op_here:
                    next_row, next_word = row, word
                elif following_coord is not None:
                    next_row, next_word = following_coord
                else:
                    next_row, next_word = None, None
                last_of_test = next_row is None
                last_on_row = is_last_op_here and (next_row != row or last_of_test)
                yield AccessStep(
                    index=index,
                    element_index=element_index,
                    operation_index=op_index,
                    row=row,
                    word=word,
                    operation=operation,
                    direction=direction,
                    next_row=next_row,
                    next_word=next_word,
                    last_access_on_row=last_on_row,
                    first_of_element=(coord_index == 0 and op_index == 0),
                    last_of_test=last_of_test,
                )
                index += 1


def count_steps(algorithm: MarchAlgorithm, order: AddressOrder) -> int:
    """Total number of primitive accesses of a run (no walking required)."""
    return algorithm.operation_count * len(order)


# ----------------------------------------------------------------------
# Compiled traces — the reusable form of (algorithm, order, direction)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TraceElement:
    """One March element of a compiled trace.

    ``coordinates`` is the fully resolved traversal of this element — a
    list shared between elements of the same concrete direction, so a
    six-element algorithm materialises the address space twice (ascending
    and descending), not six times.  ``base_step`` is the global index of
    the element's first primitive access.
    """

    index: int
    direction: AddressingDirection
    operations: Tuple[MarchOperation, ...]
    coordinates: Sequence  # List[Tuple[int, int]] or LazyCoordinates
    base_step: int

    @property
    def operation_count(self) -> int:
        """Operations applied to each address of this element."""
        return len(self.operations)

    @property
    def step_count(self) -> int:
        """Total primitive accesses of this element."""
        return len(self.coordinates) * len(self.operations)


class OperationTrace:
    """A March run compiled once, replayed many times.

    Fault simulation executes the *same* (algorithm, order, direction)
    run for every injected fault; re-deriving the address traversal per
    fault — what :func:`walk` does — dominates campaign runtime.  The
    trace resolves each element's direction, materialises the ascending
    and descending coordinate sequences exactly once, and precomputes the
    per-element base step offsets and background values.  Both the
    reference fault backend (:meth:`iter_accesses`) and the vectorized
    campaign engine (:attr:`elements` plus :meth:`element_backgrounds`)
    consume this single shared description.
    """

    def __init__(self, algorithm: MarchAlgorithm, order: AddressOrder,
                 any_direction: AddressingDirection = AddressingDirection.UP
                 ) -> None:
        self.algorithm = algorithm
        self.order = order
        self.any_direction = any_direction
        ascending: Sequence = LazyCoordinates(order, ascending=True)
        descending: Optional[Sequence] = None
        elements: List[TraceElement] = []
        base = 0
        for index, element in enumerate(algorithm.elements):
            direction = resolve_direction(element, any_direction)
            if direction is AddressingDirection.UP:
                coordinates = ascending
            else:
                if descending is None:
                    descending = LazyCoordinates(order, ascending=False,
                                                 source=ascending)
                coordinates = descending
            compiled = TraceElement(index=index, direction=direction,
                                    operations=element.operations,
                                    coordinates=coordinates, base_step=base)
            elements.append(compiled)
            base += compiled.step_count
        #: compiled elements, in execution order.
        self.elements: Tuple[TraceElement, ...] = tuple(elements)
        #: total primitive accesses of one run.
        self.step_count: int = base
        self._walks: Optional[List[Tuple[AddressingDirection, object, object]]] = None
        self._segment_walk: Optional["SegmentWalk"] = None

    # ------------------------------------------------------------------
    def element_walks(self):
        """Per-element ``(direction, rows, words)`` NumPy coordinate arrays.

        The per-address form of :attr:`elements`, read by the segmented
        kernel, per-cell stress tracking and the comparator's per-address
        cases (:mod:`repro.engine.power_campaign`); the flat kernel reads
        :meth:`segment_walk` instead.  The ascending arrays
        come from :meth:`repro.march.ordering.AddressOrder.coordinate_arrays`
        (cached on the order, shared with the vectorized test engine) and the
        descending arrays are reversed views of the same buffers, so a
        six-element algorithm holds one coordinate expansion, not six.
        Materialised lazily and cached on the trace; requires ``numpy``.
        """
        if self._walks is None:
            ascending = self.order.coordinate_arrays()
            descending: Optional[Tuple[object, object]] = None
            walks = []
            for element in self.elements:
                if element.direction is AddressingDirection.DOWN:
                    if descending is None:
                        descending = (ascending[0][::-1], ascending[1][::-1])
                    rows, words = descending
                else:
                    rows, words = ascending
                walks.append((element.direction, rows, words))
            self._walks = walks
        return self._walks

    # ------------------------------------------------------------------
    def segment_walk(self) -> "SegmentWalk":
        """The run's compiled row-segment structure (cached, numpy).

        The flat execution kernel (:mod:`repro.engine.vectorized`) works
        over *segments* — maximal runs of consecutive accesses on one word
        line within one element — instead of individual accesses.  This
        compiles the whole run's segment description once per trace, from
        the order's cached row runs rather than its coordinates:
        per-segment coordinate/length/base-cycle arrays, the paper's
        end-of-row restoration flags, the carry-over chains that span
        element boundaries staying on one row, and the per-element
        traversal-neighbour certification.  Cached on the trace, so a
        :class:`TraceCache` amortises the compilation exactly once per
        (algorithm, order, direction) — every campaign run and both
        operating modes replay the same structure.  Requires ``numpy``.
        """
        if self._segment_walk is None:
            self._segment_walk = SegmentWalk.compile(self)
        return self._segment_walk

    # ------------------------------------------------------------------
    def iter_accesses(self) -> Iterator[Tuple[int, int, int, MarchOperation]]:
        """Yield ``(step_index, row, word, operation)`` for every access.

        The cheap replay form: plain tuples over the precomputed
        coordinate lists, no per-step object construction, no coordinate
        re-derivation.  One full March C- pass over a 64 x 64 array is
        ~41 k tuples; a campaign replays this generator once per fault.
        """
        index = 0
        for element in self.elements:
            operations = element.operations
            for row, word in element.coordinates:
                for operation in operations:
                    yield index, row, word, operation
                    index += 1

    def element_backgrounds(self) -> List[Optional[int]]:
        """Value every cell holds when each element starts (``None`` = unwritten).

        March elements apply their operations to every address, so between
        elements the whole array is homogeneous: entry ``e`` is the value
        each cell carries when element ``e`` begins — the last written
        value of the most recent writing element, or ``None`` before the
        first write.  The vectorized campaign engine uses this to know an
        aggressor's fault-free value without simulating the aggressor.
        """
        backgrounds: List[Optional[int]] = []
        background: Optional[int] = None
        for element in self.algorithm.elements:
            backgrounds.append(background)
            final = element.final_written_value()
            if final is not None:
                background = final
        return backgrounds

    def describe(self) -> str:
        """One-line summary used in logs and error messages."""
        return (f"{self.algorithm.name} over {self.order.name} "
                f"({self.step_count} accesses)")


def compile_trace(algorithm: MarchAlgorithm, order: AddressOrder,
                  any_direction: AddressingDirection = AddressingDirection.UP
                  ) -> OperationTrace:
    """Compile ``algorithm`` over ``order`` into an :class:`OperationTrace`."""
    return OperationTrace(algorithm, order, any_direction)


class SegmentWalk:
    """Per-segment numpy description of one compiled March run.

    A *segment* is a maximal run of consecutive accesses on one word line
    within one element — the granularity at which the low-power test mode
    makes pre-charge decisions (the end-of-row restoration closes a
    segment whose successor sits on a different row).  All arrays are
    parallel over the ``segment_count`` segments of the whole run, in
    execution order, concatenated across elements:

    ``element``
        index of the owning element.
    ``row`` / ``first_word`` / ``last_word`` / ``length``
        word-line index, first/last visited word and visit count of each
        segment.
    ``start``
        offset of the segment's first visit inside its element's
        coordinate arrays (:meth:`OperationTrace.element_walks`).
    ``base_cycle``
        global clock cycle of the segment's first access.
    ``restore``
        True when the paper's one functional-mode restoration cycle fires
        at the end of this segment (the traversal leaves the row, or the
        test ends).
    ``carry_in``
        True when the segment begins on the row the previous segment
        ended on (only possible across an element boundary), i.e. the
        previous segment did *not* restore and its floating-column state
        carries over.

    ``chains`` lists the half-open segment-index ranges connected by
    carried-over state (each ends with its restoring segment); every
    segment outside a chain starts from the all-attached state and is
    closed-form for the flat kernel.  ``neighbour_ok[e]`` certifies that
    element ``e`` steps through each row strictly by the pre-charged
    traversal-neighbour offset (+1 ascending / -1 descending), the
    support condition of the exact bulk replay.
    """

    def __init__(self, element, row, first_word, last_word, length, start,
                 base_cycle, restore, carry_in, in_chain, chains,
                 element_slices, neighbour_ok, deltas) -> None:
        self.element = element
        self.row = row
        self.first_word = first_word
        self.last_word = last_word
        self.length = length
        self.start = start
        self.base_cycle = base_cycle
        self.restore = restore
        self.carry_in = carry_in
        self.in_chain = in_chain
        self.chains: List[Tuple[int, int]] = chains
        self.element_slices: List[Tuple[int, int]] = element_slices
        self.neighbour_ok: List[bool] = neighbour_ok
        self.deltas: List[int] = deltas

    @property
    def segment_count(self) -> int:
        return int(self.element.size)

    # ------------------------------------------------------------------
    @classmethod
    def compile(cls, trace: OperationTrace) -> "SegmentWalk":
        """Build the segment description of ``trace`` from its order's
        :meth:`~repro.march.ordering.AddressOrder.row_runs` (descending
        elements replay them reversed)."""
        import numpy as np

        # Deferred: core.lowpower imports this module (planner AccessStep).
        from ..core.lowpower import traversal_neighbour_delta

        ascending = trace.order.row_runs()
        descending = None
        per_element = []
        neighbour_ok: List[bool] = []
        deltas: List[int] = []
        for element in trace.elements:
            deltas.append(traversal_neighbour_delta(element.direction))
            runs = ascending
            if element.direction is AddressingDirection.DOWN:
                if descending is None:
                    descending = ascending.reversed()
                runs = descending
            neighbour_ok.append(runs.unit_step)
            per_element.append((
                np.full(runs.row.size, element.index, dtype=np.int64),
                runs.row,
                runs.first_word,
                runs.last_word,
                runs.length,
                runs.start,
                element.base_step + runs.start * element.operation_count,
            ))

        element_ids = np.concatenate([fields[0] for fields in per_element])
        row = np.concatenate([fields[1] for fields in per_element])
        first_word = np.concatenate([fields[2] for fields in per_element])
        last_word = np.concatenate([fields[3] for fields in per_element])
        length = np.concatenate([fields[4] for fields in per_element])
        start = np.concatenate([fields[5] for fields in per_element])
        base_cycle = np.concatenate([fields[6] for fields in per_element])

        total = int(row.size)
        carry_in = np.zeros(total, dtype=bool)
        restore = np.ones(total, dtype=bool)
        if total > 1:
            carry_in[1:] = row[1:] == row[:-1]
            restore[:-1] = ~carry_in[1:]
        in_chain = carry_in | ~restore
        # A chain starts at a non-restoring segment with no carried state
        # and runs to (including) the first restoring segment after it.
        chains: List[Tuple[int, int]] = []
        restoring = np.flatnonzero(restore)
        for chain_start in np.flatnonzero(~restore & ~carry_in).tolist():
            position = int(np.searchsorted(restoring, chain_start))
            chain_end = int(restoring[position]) if position < restoring.size \
                else total - 1
            chains.append((chain_start, chain_end + 1))

        element_slices: List[Tuple[int, int]] = []
        cursor = 0
        for fields in per_element:
            element_slices.append((cursor, cursor + int(fields[0].size)))
            cursor += int(fields[0].size)

        return cls(element_ids, row, first_word, last_word, length, start,
                   base_cycle, restore, carry_in, in_chain, chains,
                   element_slices, neighbour_ok, deltas)


class TraceCache:
    """Memoises compiled traces per (algorithm, order, direction).

    Keyed by object identity — the cache holds strong references to the
    algorithm and order, so the ids stay valid for the cache's lifetime.
    One cache instance typically lives inside a fault simulator, where the
    same algorithm/order pair is replayed for every injection of a
    campaign and across campaign repetitions.
    """

    def __init__(self) -> None:
        self._traces: Dict[Tuple[int, int, AddressingDirection],
                           Tuple[MarchAlgorithm, AddressOrder, OperationTrace]] = {}

    def get(self, algorithm: MarchAlgorithm, order: AddressOrder,
            any_direction: AddressingDirection = AddressingDirection.UP
            ) -> OperationTrace:
        """Return the compiled trace, building it on first use."""
        key = (id(algorithm), id(order), any_direction)
        entry = self._traces.get(key)
        if entry is None:
            trace = compile_trace(algorithm, order, any_direction)
            self._traces[key] = (algorithm, order, trace)
            return trace
        return entry[2]

    def __len__(self) -> int:
        return len(self._traces)


def row_transition_count(algorithm: MarchAlgorithm, order: AddressOrder,
                         any_direction: AddressingDirection = AddressingDirection.UP
                         ) -> int:
    """How many accesses are flagged ``last_access_on_row`` over a full run.

    For a word-line-sequential order this equals ``#elements * #rows`` (plus
    nothing for the final access, which is also counted); it is the
    frequency driver of the paper's P_B term.

    Counted directly over the coordinate sequences — one flag per row
    change within an element, one per element boundary that lands on a
    different row, one for the final access of the test — without
    materialising :class:`AccessStep` objects, so it stays cheap on
    paper-scale geometries (the same segment arithmetic the vectorized
    backend uses).
    """
    elements = list(algorithm.elements)
    first_rows: List[Optional[int]] = []
    for element in elements:
        first = next(iter(element_coordinates(element, order, any_direction)), None)
        first_rows.append(first[0] if first is not None else None)

    total = 0
    for element_index, element in enumerate(elements):
        rows = [row for row, _ in
                element_coordinates(element, order, any_direction)]
        total += sum(1 for previous, current in zip(rows, rows[1:])
                     if previous != current)
        if element_index + 1 < len(elements):
            next_row = first_rows[element_index + 1]
            if next_row is not None and next_row != rows[-1]:
                total += 1
        else:
            total += 1  # the final access of the test is always flagged
    return total
