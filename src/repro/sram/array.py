"""Cell array: the grid of 6T cells plus data-background helpers.

The array is purely logical (which cell stores what); all electrical
behaviour lives in the column/bit-line/pre-charge models and in the memory
model that orchestrates them.  Keeping the array separate lets the fault
simulator run March algorithms directly against the logical state when it
does not need power numbers, and lets the fault-injection machinery replace
individual cells with faulty variants through the :class:`CellFactory`.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..circuit.technology import TechnologyParameters, default_technology
from .cell import CellFactory, SixTransistorCell
from .geometry import ArrayGeometry


class ArrayError(Exception):
    """Raised on out-of-range coordinates or malformed backgrounds."""


#: A data background assigns an initial value to every cell, as a function
#: of its (row, column) position.
BackgroundFunction = Callable[[int, int], int]


def solid_background(value: int) -> BackgroundFunction:
    """All cells hold ``value`` (the classical solid background)."""
    if value not in (0, 1):
        raise ArrayError(f"background value must be 0 or 1, got {value!r}")
    return lambda row, col: value


def checkerboard_background(invert: bool = False) -> BackgroundFunction:
    """Classical checkerboard background (cell value = parity of row+col)."""
    def background(row: int, col: int) -> int:
        bit = (row + col) & 1
        return 1 - bit if invert else bit
    return background


def row_stripe_background(invert: bool = False) -> BackgroundFunction:
    """Alternating rows of 0s and 1s."""
    def background(row: int, col: int) -> int:
        bit = row & 1
        return 1 - bit if invert else bit
    return background


def column_stripe_background(invert: bool = False) -> BackgroundFunction:
    """Alternating columns of 0s and 1s."""
    def background(row: int, col: int) -> int:
        bit = col & 1
        return 1 - bit if invert else bit
    return background


class CellArray:
    """The rows x columns grid of behavioural cells."""

    def __init__(self, geometry: ArrayGeometry,
                 tech: TechnologyParameters | None = None,
                 cell_factory: CellFactory | None = None) -> None:
        self.geometry = geometry
        self.tech = tech or default_technology()
        self.factory = cell_factory or CellFactory(tech=self.tech)
        self._cells: List[List[SixTransistorCell]] = [
            [self.factory.create(row, col) for col in range(geometry.columns)]
            for row in range(geometry.rows)
        ]

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def cell(self, row: int, column: int) -> SixTransistorCell:
        self._check(row, column)
        return self._cells[row][column]

    def replace_cell(self, row: int, column: int, cell: SixTransistorCell) -> SixTransistorCell:
        """Swap in a different cell object (fault injection); returns the old one."""
        self._check(row, column)
        old = self._cells[row][column]
        self._cells[row][column] = cell
        return old

    def _check(self, row: int, column: int) -> None:
        if not 0 <= row < self.geometry.rows:
            raise ArrayError(f"row {row} out of range [0, {self.geometry.rows})")
        if not 0 <= column < self.geometry.columns:
            raise ArrayError(f"column {column} out of range [0, {self.geometry.columns})")

    def iter_cells(self) -> Iterator[Tuple[int, int, SixTransistorCell]]:
        for row_index, row in enumerate(self._cells):
            for col_index, cell in enumerate(row):
                yield row_index, col_index, cell

    # ------------------------------------------------------------------
    # Bulk state manipulation
    # ------------------------------------------------------------------
    def apply_background(self, background: BackgroundFunction) -> None:
        """Force every cell to the background value (no write energy counted)."""
        for row, col, cell in self.iter_cells():
            cell.force(background(row, col))

    def clear(self) -> None:
        """Return every cell to the uninitialised state."""
        for _, _, cell in self.iter_cells():
            cell.force(None)

    def snapshot(self) -> List[List[Optional[int]]]:
        """Copy of the logical contents (None for uninitialised cells)."""
        return [[cell.value for cell in row] for row in self._cells]

    def load_snapshot(self, snapshot: List[List[Optional[int]]]) -> None:
        if len(snapshot) != self.geometry.rows:
            raise ArrayError("snapshot row count does not match the geometry")
        for row_index, row in enumerate(snapshot):
            if len(row) != self.geometry.columns:
                raise ArrayError("snapshot column count does not match the geometry")
            for col_index, value in enumerate(row):
                self._cells[row_index][col_index].force(value)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def count_value(self, value: int) -> int:
        """Number of cells currently storing ``value``."""
        if value not in (0, 1):
            raise ArrayError(f"value must be 0 or 1, got {value!r}")
        return sum(1 for _, _, cell in self.iter_cells() if cell.value == value)

    def total_full_res(self) -> int:
        return sum(cell.stats.full_res_count for _, _, cell in self.iter_cells())

    def total_partial_res(self) -> int:
        return sum(cell.stats.partial_res_count for _, _, cell in self.iter_cells())

    def reset_statistics(self) -> None:
        for _, _, cell in self.iter_cells():
            cell.stats.reset()

    def differences(self, other_snapshot: List[List[Optional[int]]]) -> List[Tuple[int, int]]:
        """Coordinates whose current value differs from ``other_snapshot``."""
        diffs: List[Tuple[int, int]] = []
        for row, col, cell in self.iter_cells():
            if cell.value != other_snapshot[row][col]:
                diffs.append((row, col))
        return diffs
