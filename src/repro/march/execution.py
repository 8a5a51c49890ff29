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
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .algorithm import MarchAlgorithm
from .element import AddressingDirection, MarchElement
from .operations import MarchOperation
from .ordering import AddressOrder, group_rows


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
        the order's cached row runs rather than its coordinates: each
        distinct segment shape with its multiplicity, the sequence counts
        record assembly reads (row changes, restorations, word changes),
        the carry-over chains that span element boundaries staying on one
        row, and the per-element traversal-neighbour certification.
        Cached on the trace, so a
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


class ChainSegment(NamedTuple):
    """One segment of a carried-over chain, kept explicitly for replay."""

    element: int
    row: int
    first_word: int
    length: int
    #: offset of the segment's first visit inside its element's walk.
    start: int
    #: global clock cycle of the segment's first access.
    base_cycle: int
    #: the end-of-row restoration fires at the end of this segment.
    restore: bool


class SegmentWalk:
    """Shape-compressed segment description of one compiled March run.

    A *segment* is a maximal run of consecutive accesses on one word line
    within one element — the granularity at which the low-power test mode
    makes pre-charge decisions (the end-of-row restoration closes a
    segment whose successor sits on a different row).  Few segment shapes
    occur, so the walk stores each distinct *shape* once with its
    multiplicity; the parallel arrays run over the ``shape_count`` shapes,
    grouped by element:

    ``element``
        index of the owning element.
    ``length`` / ``first_word`` / ``last_word``
        visit count and first/last visited word of the shape's segments.
    ``carry_in``
        True when the segment begins on the row the previous segment
        ended on (only possible across an element boundary), i.e. the
        previous segment did *not* restore and its floating-column state
        carries over.
    ``in_chain``
        True when the segment carries in or does not restore.
    ``multiplicity``
        how many segments of the run have this shape.

    The sequence facts shapes drop are kept as counts: ``segment_count``
    (the logical segment count), ``element_segments`` and
    ``element_rows`` (each element's segment count and first/last row),
    the consecutive-segment row changes ``pair_from``/``pair_to`` with
    ``pair_count`` (from which any bank map counts bank transitions),
    ``restores`` (segments closed by the paper's one functional-mode
    restoration cycle) and ``word_changes`` (segment boundaries that land
    on a different word).

    ``chains`` lists the segments connected by carried-over state, each
    chain ending with its restoring segment, as :class:`ChainSegment`
    tuples; every segment outside a chain starts from the all-attached
    state and is closed-form for the flat kernel.  ``neighbour_ok[e]``
    certifies that element ``e`` steps through each row strictly by the
    pre-charged traversal-neighbour offset (+1 ascending / -1
    descending), the support condition of the exact bulk replay.
    """

    def __init__(self, element, length, first_word, last_word, carry_in,
                 in_chain, multiplicity, element_segments, element_rows,
                 pair_from, pair_to, pair_count, restores, word_changes,
                 chains, neighbour_ok, deltas) -> None:
        self.element = element
        self.length = length
        self.first_word = first_word
        self.last_word = last_word
        self.carry_in = carry_in
        self.in_chain = in_chain
        self.multiplicity = multiplicity
        self.element_segments: List[int] = element_segments
        self.element_rows: List[Tuple[int, int]] = element_rows
        self.pair_from = pair_from
        self.pair_to = pair_to
        self.pair_count = pair_count
        self.restores: int = restores
        self.word_changes: int = word_changes
        self.chains: List[Tuple[ChainSegment, ...]] = chains
        self.neighbour_ok: List[bool] = neighbour_ok
        self.deltas: List[int] = deltas
        #: logical segments of the run (the shapes' summed multiplicity).
        self.segment_count: int = sum(element_segments)

    @property
    def shape_count(self) -> int:
        return int(self.element.size)

    # ------------------------------------------------------------------
    @classmethod
    def compile(cls, trace: OperationTrace) -> "SegmentWalk":
        """Build the shape-compressed walk of ``trace`` from its order's
        :meth:`~repro.march.ordering.AddressOrder.row_runs` (descending
        elements replay them reversed).  Costs O(shapes + rows): only the
        first and last segment of an element can carry state across an
        element boundary, so they are split off their shape when they do.
        """
        import numpy as np

        # Deferred: core.lowpower imports this module (planner AccessStep).
        from ..core.lowpower import traversal_neighbour_delta

        ascending = trace.order.row_runs()
        descending = None
        per_element = []
        for element in trace.elements:
            runs = ascending
            if element.direction is AddressingDirection.DOWN:
                if descending is None:
                    descending = ascending.reversed()
                runs = descending
            per_element.append(runs)

        count = len(per_element)
        # carry[e]: element e begins on the row element e-1 ended on.
        carry = [False] + [per_element[e].first.row
                           == per_element[e - 1].last.row
                           for e in range(1, count)]
        opened = carry[1:] + [False]     # element e's last segment stays open

        #: per element: (element, length, first_word, last_word,
        #: multiplicity, carry_in, in_chain) columns of its shapes.
        parts: List[tuple] = []
        chains: List[Tuple[ChainSegment, ...]] = []
        current: List[ChainSegment] = []
        for element, runs in zip(trace.elements, per_element):
            index = element.index
            if runs.run_count == 1:
                ends = [(runs.first, 0, carry[index], not opened[index])]
            else:
                ends = [(runs.first, 0, carry[index], True),
                        (runs.last,
                         len(element.coordinates) - runs.last.length,
                         False, not opened[index])]
            multiplicity = runs.count.copy()
            split: List[tuple] = []
            for run, start, carry_in, restore in ends:
                if restore and not carry_in:
                    continue
                matches = ((runs.length == run.length)
                           & (runs.first_word == run.first_word)
                           & (runs.last_word == run.last_word))
                multiplicity[np.flatnonzero(matches)[0]] -= 1
                split.append((index, run.length, run.first_word,
                              run.last_word, 1, carry_in, True))
                current.append(ChainSegment(
                    element=index, row=run.row, first_word=run.first_word,
                    length=run.length, start=start,
                    base_cycle=element.base_step
                    + start * element.operation_count,
                    restore=restore))
                if restore:
                    chains.append(tuple(current))
                    current = []
            kept = multiplicity > 0
            size = int(np.count_nonzero(kept))
            parts.append((np.full(size, index), runs.length[kept],
                          runs.first_word[kept], runs.last_word[kept],
                          multiplicity[kept], np.zeros(size, dtype=bool),
                          np.zeros(size, dtype=bool)))
            parts.extend(tuple([value] for value in shape) for shape in split)
        columns = [np.concatenate([part[position] for part in parts])
                   for position in range(7)]

        # Row changes: every element's own, weighted by how many elements
        # walk each direction, plus the element boundaries that move.
        up = sum(1 for element in trace.elements
                 if element.direction is not AddressingDirection.DOWN)
        pair_parts: List[tuple] = [(ascending.pair_from, ascending.pair_to,
                                    ascending.pair_count * up)]
        if descending is not None:
            pair_parts.append((descending.pair_from, descending.pair_to,
                               descending.pair_count * (count - up)))
        pair_parts.extend(
            ([per_element[e].last.row], [per_element[e + 1].first.row], [1])
            for e in range(count - 1) if not carry[e + 1])
        (pair_from, pair_to), pair_count = group_rows(
            [np.concatenate([part[position] for part in pair_parts])
             for position in range(2)],
            np.concatenate([part[2] for part in pair_parts]))
        moved = pair_count > 0
        word_changes = sum(runs.word_changes for runs in per_element) + sum(
            1 for e in range(count - 1)
            if per_element[e + 1].first.first_word
            != per_element[e].last.last_word)

        element_segments = [runs.run_count for runs in per_element]
        return cls(
            element=columns[0].astype(np.int64),
            length=columns[1].astype(np.int64),
            first_word=columns[2].astype(np.int64),
            last_word=columns[3].astype(np.int64),
            multiplicity=columns[4].astype(np.int64),
            carry_in=columns[5].astype(bool),
            in_chain=columns[6].astype(bool),
            element_segments=element_segments,
            element_rows=[(runs.first.row, runs.last.row)
                          for runs in per_element],
            pair_from=pair_from[moved], pair_to=pair_to[moved],
            pair_count=pair_count[moved],
            restores=sum(element_segments) - sum(carry),
            word_changes=word_changes, chains=chains,
            neighbour_ok=[runs.unit_step for runs in per_element],
            deltas=[traversal_neighbour_delta(element.direction)
                    for element in trace.elements])


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

    For a word-line-sequential order this equals ``#elements * #rows``,
    less one per element boundary that stays on its row; it is the
    frequency driver of the paper's P_B term.

    Each flag closes one segment that restores, so this is the compiled
    walk's :attr:`SegmentWalk.restores`: O(shapes + rows) for the orders
    with closed-form row runs, no per-access walk.  Requires ``numpy``.
    """
    return compile_trace(algorithm, order, any_direction) \
        .segment_walk().restores
