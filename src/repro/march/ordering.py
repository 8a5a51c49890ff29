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
from typing import TYPE_CHECKING, Iterator, List, NamedTuple, Sequence, Tuple

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


class Run(NamedTuple):
    """One same-row run: word line, first/last visited word, visit count."""

    row: int
    first_word: int
    last_word: int
    length: int

    def reversed(self) -> "Run":
        """The same run walked backwards."""
        return Run(self.row, self.last_word, self.first_word, self.length)


def group_rows(columns, weights=None):
    """Distinct rows of parallel non-negative integer ``columns``.

    Returns ``(columns, counts)``: the distinct rows in lexicographic
    order, as parallel ``int64`` arrays, and each row's summed ``weights``
    (one per occurrence when ``weights`` is None).  Rows are keyed by a
    mixed-radix integer, so this is one ``np.unique`` over a flat array.
    """
    import numpy as np

    columns = [np.asarray(column, dtype=np.int64) for column in columns]
    if columns[0].size == 0:
        return columns, np.zeros(0, dtype=np.int64)
    key = np.zeros(columns[0].size, dtype=np.int64)
    for column in columns:
        key = key * (int(column.max()) + 1) + column
    _, index, inverse = np.unique(key, return_index=True,
                                  return_inverse=True)
    counts = np.bincount(inverse, weights=weights, minlength=index.size)
    return [column[index] for column in columns], counts.astype(np.int64)


@dataclass(frozen=True, eq=False)
class RowRuns:
    """A traversal as its maximal same-row runs, compressed by shape.

    A *run* visits consecutive positions on one word line.  Runs of one
    shape — length, first word, last word — are stored once:
    ``length``/``first_word``/``last_word``/``count`` are parallel
    ``numpy`` arrays over the distinct shapes (lexicographic order), and
    ``count`` is each shape's multiplicity.  The sequence facts that
    shapes drop are kept as counts:

    ``run_count``
        total runs (``count.sum()``); equals the row count exactly when
        the order is word-line sequential, since every row starts a run.
    ``first`` / ``last``
        the first and last :class:`Run` of the traversal.
    ``pair_from`` / ``pair_to`` / ``pair_count``
        the row pairs of consecutive runs, distinct (lexicographic) with
        multiplicity — every row change of the traversal.
    ``word_changes``
        consecutive-run boundaries whose first word differs from the
        previous run's last word.
    ``unit_step``
        every step inside every run moves to the adjacent word in the
        traversal direction (``+1`` ascending, ``-1`` descending) — the
        pre-charged traversal neighbour of the low-power test mode.
    """

    length: "np.ndarray"
    first_word: "np.ndarray"
    last_word: "np.ndarray"
    count: "np.ndarray"
    run_count: int
    first: Run
    last: Run
    pair_from: "np.ndarray"
    pair_to: "np.ndarray"
    pair_count: "np.ndarray"
    word_changes: int
    unit_step: bool

    @classmethod
    def detect(cls, rows: "np.ndarray", words: "np.ndarray") -> "RowRuns":
        """Runs detected on a traversal's coordinate arrays (any order)."""
        import numpy as np

        same_row = rows[1:] == rows[:-1]
        starts = np.concatenate((np.zeros(1, dtype=np.int64),
                                 np.flatnonzero(~same_row) + 1))
        ends = np.append(starts[1:], rows.size)
        run_rows, length = rows[starts], ends - starts
        first_word, last_word = words[starts], words[ends - 1]
        (length_s, first_s, last_s), count = group_rows(
            (length, first_word, last_word))
        (pair_from, pair_to), pair_count = group_rows(
            (run_rows[:-1], run_rows[1:]))
        return cls(length=length_s, first_word=first_s, last_word=last_s,
                   count=count, run_count=int(starts.size),
                   first=Run(int(run_rows[0]), int(first_word[0]),
                             int(last_word[0]), int(length[0])),
                   last=Run(int(run_rows[-1]), int(first_word[-1]),
                            int(last_word[-1]), int(length[-1])),
                   pair_from=pair_from, pair_to=pair_to,
                   pair_count=pair_count,
                   word_changes=int(np.count_nonzero(
                       first_word[1:] != last_word[:-1])),
                   unit_step=bool(np.all(
                       words[1:][same_row] == words[:-1][same_row] + 1)))

    def reversed(self) -> "RowRuns":
        """The runs of the exact reverse traversal (DOF 1's ``⇓``)."""
        (length, first_word, last_word), count = group_rows(
            (self.length, self.last_word, self.first_word), self.count)
        (pair_from, pair_to), pair_count = group_rows(
            (self.pair_to, self.pair_from), self.pair_count)
        return RowRuns(length=length, first_word=first_word,
                       last_word=last_word, count=count,
                       run_count=self.run_count,
                       first=self.last.reversed(), last=self.first.reversed(),
                       pair_from=pair_from, pair_to=pair_to,
                       pair_count=pair_count,
                       word_changes=self.word_changes,
                       unit_step=self.unit_step)


def _row_major_runs(rows: int, width: int) -> RowRuns:
    """Closed form of the row-major runs: one ``+1`` run per row."""
    import numpy as np

    row = np.arange(rows - 1, dtype=np.int64)
    one = np.ones(1, dtype=np.int64)
    return RowRuns(length=one * width, first_word=one * 0,
                   last_word=one * (width - 1), count=one * rows,
                   run_count=rows, first=Run(0, 0, width - 1, width),
                   last=Run(rows - 1, 0, width - 1, width),
                   pair_from=row, pair_to=row + 1,
                   pair_count=np.ones(rows - 1, dtype=np.int64),
                   word_changes=rows - 1 if width > 1 else 0,
                   unit_step=True)


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
        """The ascending sequence as shape-compressed :class:`RowRuns`.

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
        return RowRuns.detect(*self.coordinate_arrays())

    # ------------------------------------------------------------------
    def is_wordline_sequential(self) -> bool:
        """True when consecutive positions stay on a row until it is exhausted.

        This is the property the low-power test mode needs: the next access
        is either the next word of the same row or the first word of an
        adjacent traversal step, so only the selected column and its
        successor require pre-charge.  The verdict is cached on the order
        instance (orders are immutable permutations) and, with numpy
        available, read from :meth:`row_runs`: every row starts at least
        one run of a permutation, so sequential means exactly one run per
        row.
        """
        cached = getattr(self, "_wordline_sequential_cache", None)
        if cached is None:
            cached = self._compute_wordline_sequential()
            self._wordline_sequential_cache = cached
        return cached

    def _compute_wordline_sequential(self) -> bool:
        if _numpy() is not None:
            return self.row_runs().run_count == self.geometry.rows
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
        """Closed form: one shape, no coordinates."""
        return _row_major_runs(self.geometry.rows, self.geometry.words_per_row)


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

    def _build_row_runs(self) -> RowRuns:
        """Closed form: one single-visit run per address, so one shape per
        word, each ``rows`` times; no coordinates."""
        import numpy as np

        rows, width = self.geometry.rows, self.geometry.words_per_row
        if rows == 1:  # one word line: the order is row-major
            return _row_major_runs(rows, width)
        word = np.arange(width, dtype=np.int64)
        row = np.arange(rows, dtype=np.int64)
        # Down each column (r, r+1), then (rows-1, 0) between columns.
        pair_count = np.full(rows, width, dtype=np.int64)
        pair_count[-1] = width - 1
        keep = pair_count > 0
        return RowRuns(length=np.ones(width, dtype=np.int64),
                       first_word=word, last_word=word,
                       count=np.full(width, rows, dtype=np.int64),
                       run_count=rows * width, first=Run(0, 0, 0, 1),
                       last=Run(rows - 1, width - 1, width - 1, 1),
                       pair_from=row[keep], pair_to=((row + 1) % rows)[keep],
                       pair_count=pair_count[keep],
                       word_changes=width - 1, unit_step=True)


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
