"""Address orders — the first degree of freedom of March tests.

March notation only requires that the ``⇓`` sequence be the exact reverse of
the ``⇑`` sequence; *which* permutation of the address space ``⇑`` denotes
is free (the paper's Degree Of Freedom #1), and fault coverage does not
depend on the choice for the classical fault models.  The paper exploits
this freedom by picking the "word line after word line" order, which makes
the next column to be accessed predictable and lets all other pre-charge
circuits be switched off.

An :class:`AddressOrder` maps a logical position ``0 .. N-1`` in the chosen
sequence to an ``(row, word)`` coordinate of the array.  All orders are
permutations of the full address space; descending traversal is always the
exact reverse of ascending traversal, as DOF 1 requires.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Sequence, Tuple

from ..sram.geometry import ArrayGeometry

if TYPE_CHECKING:  # pragma: no cover - typing only; numpy loads on demand
    import numpy as np


def _numpy():
    """Import numpy on demand; ``None`` when unavailable (scalar fallback)."""
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - the container ships numpy
        return None
    return np


class OrderingError(Exception):
    """Raised for malformed address orders."""


Coordinate = Tuple[int, int]


@dataclass(frozen=True, eq=False)
class RowRuns:
    """A traversal as maximal same-row runs (parallel ``numpy`` arrays).

    Run ``i`` visits ``length[i]`` consecutive positions on word line
    ``row[i]``, from word ``first_word[i]`` to ``last_word[i]``, starting
    at position ``start[i]`` of the traversal.  ``unit_step`` is True when
    every step inside every run moves to the adjacent word in the
    traversal direction (``+1`` ascending, ``-1`` descending) — the
    pre-charged traversal neighbour of the low-power test mode.
    """

    row: "np.ndarray"
    first_word: "np.ndarray"
    last_word: "np.ndarray"
    length: "np.ndarray"
    start: "np.ndarray"
    unit_step: bool

    def reversed(self) -> "RowRuns":
        """The runs of the exact reverse traversal (DOF 1's ``⇓``)."""
        count = self.start[-1] + self.length[-1]
        return RowRuns(row=self.row[::-1], first_word=self.last_word[::-1],
                       last_word=self.first_word[::-1],
                       length=self.length[::-1],
                       start=count - (self.start + self.length)[::-1],
                       unit_step=self.unit_step)


class AddressOrder:
    """Base class: a named permutation of the array's word addresses."""

    name = "abstract"

    def __init__(self, geometry: ArrayGeometry) -> None:
        self.geometry = geometry

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.geometry.word_count

    def coordinate_at(self, position: int) -> Coordinate:
        """(row, word) visited at ``position`` of the ascending sequence."""
        raise NotImplementedError

    def ascending(self) -> Iterator[Coordinate]:
        for position in range(len(self)):
            yield self.coordinate_at(position)

    def descending(self) -> Iterator[Coordinate]:
        """Exact reverse of :meth:`ascending` (the DOF-1 requirement)."""
        for position in reversed(range(len(self))):
            yield self.coordinate_at(position)

    def sequence(self, ascending: bool = True) -> List[Coordinate]:
        """The full coordinate list of the chosen traversal direction.

        Orders with a closed-form :meth:`_build_coordinate_arrays` (every
        registry order) materialise the list from the cached numpy arrays
        in bulk — two orders of magnitude faster than walking
        :meth:`coordinate_at` position by position on paper-scale
        geometries; other subclasses (and numpy-free installs) keep the
        scalar walk.
        """
        bulk = self._bulk_expansion_available()
        if bulk:
            rows, words = self.coordinate_arrays()
            coordinates = list(zip(rows.tolist(), words.tolist()))
            if not ascending:
                coordinates.reverse()
            return coordinates
        return list(self.ascending() if ascending else self.descending())

    def _bulk_expansion_available(self) -> bool:
        """True when :meth:`coordinate_arrays` does not itself need
        :meth:`sequence` (a closed-form override exists) and numpy loads."""
        closed_form = (type(self)._build_coordinate_arrays
                       is not AddressOrder._build_coordinate_arrays)
        return closed_form and _numpy() is not None

    def coordinate_arrays(self):
        """The ascending sequence as two parallel ``numpy`` integer arrays.

        Returns ``(rows, words)`` where ``rows[i], words[i]`` is the
        coordinate visited at position ``i``.  This is the bulk form the
        vectorized execution backend (:mod:`repro.engine`) consumes; the
        result is materialised lazily and cached on the order instance, so
        repeated runs over the same order pay the expansion only once.
        Subclasses whose sequence has an arithmetic structure override
        :meth:`_build_coordinate_arrays` with a closed-form construction.
        Requires ``numpy``.
        """
        cached = getattr(self, "_coordinate_arrays_cache", None)
        if cached is None:
            cached = self._build_coordinate_arrays()
            self._coordinate_arrays_cache = cached
        return cached

    def _build_coordinate_arrays(self):
        """Uncached expansion: one :meth:`coordinate_at` call per position."""
        import numpy as np

        coords = np.asarray(self.sequence(), dtype=np.int64)
        coords = coords.reshape(len(self), 2)
        return (np.ascontiguousarray(coords[:, 0]),
                np.ascontiguousarray(coords[:, 1]))

    # ------------------------------------------------------------------
    def rank_array(self):
        """``rank[linear_address] = position`` in the ascending sequence.

        The inverse permutation of :meth:`coordinate_arrays`, used by the
        vectorized fault-campaign engine to locate every victim/aggressor
        in one gather.  Materialised lazily and cached on the order
        instance (like the coordinate arrays), so campaigns sharing one
        order object — e.g. through the sweep orchestrator's per-worker
        order memo — pay the inversion exactly once.  Requires ``numpy``.
        """
        cached = getattr(self, "_rank_array_cache", None)
        if cached is None:
            import numpy as np

            rows, words = self.coordinate_arrays()
            linear = rows * self.geometry.words_per_row + words
            cached = np.empty(self.geometry.word_count, dtype=np.int64)
            cached[linear] = np.arange(linear.size, dtype=np.int64)
            self._rank_array_cache = cached
        return cached

    def row_runs(self) -> RowRuns:
        """The ascending sequence as maximal same-row :class:`RowRuns`.

        The segment structure of every compiled run
        (:class:`repro.march.execution.SegmentWalk`) and the
        word-line-sequential verdict are read from these runs instead of
        from :meth:`coordinate_arrays`.  Cached on the order instance like
        the coordinate arrays; subclasses whose runs have a closed form
        override :meth:`_build_row_runs`.  Requires ``numpy``.
        """
        cached = getattr(self, "_row_runs_cache", None)
        if cached is None:
            cached = self._build_row_runs()
            self._row_runs_cache = cached
        return cached

    def _build_row_runs(self) -> RowRuns:
        """Runs detected on the coordinate arrays (one pass, any order)."""
        import numpy as np

        rows, words = self.coordinate_arrays()
        same_row = rows[1:] == rows[:-1]
        starts = np.concatenate((np.zeros(1, dtype=np.int64),
                                 np.flatnonzero(~same_row) + 1))
        ends = np.append(starts[1:], rows.size)
        return RowRuns(row=rows[starts], first_word=words[starts],
                       last_word=words[ends - 1], length=ends - starts,
                       start=starts,
                       unit_step=bool(np.all(
                           words[1:][same_row] == words[:-1][same_row] + 1)))

    # ------------------------------------------------------------------
    def is_wordline_sequential(self) -> bool:
        """True when consecutive positions stay on a row until it is exhausted.

        This is the property the low-power test mode needs: the next access
        is either the next word of the same row or the first word of an
        adjacent traversal step, so only the selected column and its
        successor require pre-charge.  The verdict is cached on the order
        instance (orders are immutable permutations) and, with numpy
        available, read from :meth:`row_runs` — sequential means no row
        starts two runs — instead of a per-position Python walk.
        """
        cached = getattr(self, "_wordline_sequential_cache", None)
        if cached is None:
            cached = self._compute_wordline_sequential()
            self._wordline_sequential_cache = cached
        return cached

    def _compute_wordline_sequential(self) -> bool:
        np = _numpy()
        if np is not None:
            rows = np.sort(self.row_runs().row)
            return not bool(np.any(rows[1:] == rows[:-1]))
        previous_row: int | None = None
        seen_rows: set[int] = set()
        for row, _ in self.ascending():
            if row != previous_row:
                if row in seen_rows:
                    return False
                seen_rows.add(row)
                previous_row = row
        return True

    def describe(self) -> str:
        return f"{self.name} order on {self.geometry.describe()}"


class RowMajorOrder(AddressOrder):
    """'Word line after word line' — the order the paper's test mode requires.

    Words are visited column by column within a row, rows in ascending
    index order.
    """

    name = "row-major (word line after word line)"

    def coordinate_at(self, position: int) -> Coordinate:
        if not 0 <= position < len(self):
            raise OrderingError(f"position {position} out of range [0, {len(self)})")
        return self.geometry.coordinates_of(position)

    def _build_coordinate_arrays(self):
        """Closed-form bulk expansion (no per-position Python loop)."""
        import numpy as np

        positions = np.arange(len(self), dtype=np.int64)
        return np.divmod(positions, self.geometry.words_per_row)

    def _build_row_runs(self) -> RowRuns:
        """Closed form: one ``+1`` run per row (O(rows), no coordinates)."""
        import numpy as np

        rows, width = self.geometry.rows, self.geometry.words_per_row
        row = np.arange(rows, dtype=np.int64)
        return RowRuns(row=row, first_word=np.zeros(rows, dtype=np.int64),
                       last_word=np.full(rows, width - 1, dtype=np.int64),
                       length=np.full(rows, width, dtype=np.int64),
                       start=row * width, unit_step=True)


class ColumnMajorOrder(AddressOrder):
    """Fast-row order: all rows of a column before moving to the next column.

    This is the typical functional-BIST "fast row" order; it maximises
    pre-charge activity and serves as the contrast case in the DOF-1
    coverage experiments.
    """

    name = "column-major (fast row)"

    def coordinate_at(self, position: int) -> Coordinate:
        if not 0 <= position < len(self):
            raise OrderingError(f"position {position} out of range [0, {len(self)})")
        word, row = divmod(position, self.geometry.rows)
        return (row, word)

    def _build_coordinate_arrays(self):
        """Closed-form bulk expansion (no per-position Python loop)."""
        import numpy as np

        positions = np.arange(len(self), dtype=np.int64)
        words, rows = np.divmod(positions, self.geometry.rows)
        return rows, words


class PseudoRandomOrder(AddressOrder):
    """A fixed pseudo-random permutation of the address space.

    Used to demonstrate that fault coverage is independent of the address
    sequence (DOF 1) even for an arbitrary permutation; it is of course the
    worst case for pre-charge predictability.
    """

    name = "pseudo-random permutation"

    def __init__(self, geometry: ArrayGeometry, seed: int = 2006) -> None:
        super().__init__(geometry)
        self.seed = seed
        rng = random.Random(seed)
        self._permutation = list(range(geometry.word_count))
        rng.shuffle(self._permutation)

    def coordinate_at(self, position: int) -> Coordinate:
        if not 0 <= position < len(self):
            raise OrderingError(f"position {position} out of range [0, {len(self)})")
        return self.geometry.coordinates_of(self._permutation[position])

    def _build_coordinate_arrays(self):
        """Bulk expansion of the stored permutation (one divmod pass)."""
        import numpy as np

        addresses = np.asarray(self._permutation, dtype=np.int64)
        return np.divmod(addresses, self.geometry.words_per_row)


class AddressComplementOrder(AddressOrder):
    """Address-complement order (2^i jumps), common in decoder-delay testing.

    Each pair of consecutive accesses toggles all address bits, producing
    maximal address-bus activity; useful as a high-stress contrast case in
    the power ablations.
    """

    name = "address complement"

    def coordinate_at(self, position: int) -> Coordinate:
        if not 0 <= position < len(self):
            raise OrderingError(f"position {position} out of range [0, {len(self)})")
        base = position // 2
        count = len(self)
        if position % 2 == 0:
            address = base
        else:
            address = (count - 1) - base
        return self.geometry.coordinates_of(address)

    def _build_coordinate_arrays(self):
        """Closed-form bulk expansion (no per-position Python loop)."""
        import numpy as np

        positions = np.arange(len(self), dtype=np.int64)
        base = positions // 2
        addresses = np.where(positions % 2 == 0, base, len(self) - 1 - base)
        return np.divmod(addresses, self.geometry.words_per_row)


class RowMajorSnakeOrder(AddressOrder):
    """Row-major order with alternating column direction on each row.

    Still word-line sequential (so still compatible with the low-power test
    mode's 'only the neighbouring column needs pre-charge' argument, with
    the neighbour alternating side), included as an extension/ablation.
    """

    name = "row-major snake"

    def coordinate_at(self, position: int) -> Coordinate:
        if not 0 <= position < len(self):
            raise OrderingError(f"position {position} out of range [0, {len(self)})")
        words_per_row = self.geometry.words_per_row
        row, offset = divmod(position, words_per_row)
        if row % 2 == 1:
            offset = words_per_row - 1 - offset
        return (row, offset)

    def _build_coordinate_arrays(self):
        """Closed-form bulk expansion (no per-position Python loop)."""
        import numpy as np

        positions = np.arange(len(self), dtype=np.int64)
        words_per_row = self.geometry.words_per_row
        rows, offsets = np.divmod(positions, words_per_row)
        words = np.where(rows % 2 == 1, words_per_row - 1 - offsets, offsets)
        return rows, words


#: Registry of the named orders, for CLI-style lookups in benches/examples.
ORDER_REGISTRY = {
    "row-major": RowMajorOrder,
    "wordline": RowMajorOrder,
    "column-major": ColumnMajorOrder,
    "fast-row": ColumnMajorOrder,
    "pseudo-random": PseudoRandomOrder,
    "address-complement": AddressComplementOrder,
    "snake": RowMajorSnakeOrder,
}


def make_order(name: str, geometry: ArrayGeometry, **kwargs) -> AddressOrder:
    """Instantiate a registered order by name."""
    key = name.strip().lower()
    if key not in ORDER_REGISTRY:
        raise OrderingError(
            f"unknown address order {name!r}; available: {sorted(ORDER_REGISTRY)}")
    return ORDER_REGISTRY[key](geometry, **kwargs)


def verify_is_permutation(order: AddressOrder) -> bool:
    """Check that the order visits every (row, word) exactly once."""
    seen = set()
    for coordinate in order.ascending():
        if coordinate in seen:
            return False
        seen.add(coordinate)
    return len(seen) == order.geometry.word_count
