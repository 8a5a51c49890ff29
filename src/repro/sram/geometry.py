"""Array organisation of the simulated SRAM.

The paper's evaluation uses an 8k x 32 SRAM organised as a 512-row by
512-column cell array and treats it as bit-oriented (one cell accessed per
operation).  The geometry abstraction also supports word-oriented
organisations (several bits accessed per operation through a column mux),
which the paper lists as future work and which this repository implements as
an extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple


#: Row-to-bank interleave modes supported by banked organisations.
BANK_INTERLEAVE_MODES = ("blocked", "interleaved")

#: Seed of the deterministic victim-location sampler of fault-coverage
#: campaigns (:func:`repro.faults.coverage.default_fault_locations`),
#: exposed by the sweep CLI as ``--seed`` and recorded in campaign
#: exports.  Defined with the array geometry, not in :mod:`repro.faults`,
#: so the sweep layer can default it without loading the fault models.
DEFAULT_LOCATION_SEED = 2006


@dataclass(frozen=True)
class ArrayGeometry:
    """Physical organisation of the cell array.

    ``rows``
        number of word lines.
    ``columns``
        number of physical bit-line pairs.
    ``bits_per_word``
        how many columns are accessed simultaneously by one operation.  A
        bit-oriented memory (the paper's case) uses 1; a word-oriented
        memory uses the word width (the columns of one word are interleaved
        across the array and selected together).
    ``banks``
        number of row-partitioned sub-arrays (beyond-paper extension; the
        paper evaluates a single monolithic array, ``banks=1``).  Each bank
        owns ``rows / banks`` word lines and its own bit-line segment, so
        bit-line capacitance and floating decay scale with the *bank*
        height, not the array height.
    ``bank_interleave``
        how word-line addresses map to banks: ``"blocked"`` assigns
        contiguous row ranges to each bank (``bank = row // rows_per_bank``);
        ``"interleaved"`` stripes consecutive rows across banks
        (``bank = row % banks``).  The logical address map is unchanged in
        both modes — only the physical bank a row lives in differs.
    """

    rows: int
    columns: int
    bits_per_word: int = 1
    banks: int = 1
    bank_interleave: str = "blocked"

    def __post_init__(self) -> None:
        if self.rows <= 0:
            raise ValueError(f"rows must be positive, got {self.rows}")
        if self.columns <= 0:
            raise ValueError(f"columns must be positive, got {self.columns}")
        if self.bits_per_word <= 0:
            raise ValueError(f"bits_per_word must be positive, got {self.bits_per_word}")
        if self.bits_per_word > self.columns:
            raise ValueError(
                f"bits_per_word ({self.bits_per_word}) cannot exceed the number "
                f"of columns ({self.columns}): one operation cannot select more "
                "bit-line pairs than the array has"
            )
        if self.columns % self.bits_per_word != 0:
            raise ValueError(
                f"columns ({self.columns}) must be a multiple of bits_per_word "
                f"({self.bits_per_word})"
            )
        if self.banks <= 0:
            raise ValueError(f"banks must be positive, got {self.banks}")
        if self.rows % self.banks != 0:
            raise ValueError(
                f"rows ({self.rows}) must be a multiple of banks ({self.banks}) "
                "so every bank holds the same number of word lines"
            )
        if self.bank_interleave not in BANK_INTERLEAVE_MODES:
            raise ValueError(
                f"bank_interleave must be one of {BANK_INTERLEAVE_MODES}, "
                f"got {self.bank_interleave!r}"
            )

    # ------------------------------------------------------------------
    @property
    def words_per_row(self) -> int:
        """Number of addressable words on one word line."""
        return self.columns // self.bits_per_word

    @property
    def word_count(self) -> int:
        """Total number of addressable words in the array."""
        return self.rows * self.words_per_row

    @property
    def cell_count(self) -> int:
        """Total number of cells in the array."""
        return self.rows * self.columns

    @property
    def is_bit_oriented(self) -> bool:
        return self.bits_per_word == 1

    @property
    def is_banked(self) -> bool:
        return self.banks > 1

    @property
    def rows_per_bank(self) -> int:
        """Number of word lines (hence bit-line height) of one bank."""
        return self.rows // self.banks

    # ------------------------------------------------------------------
    # Bank address map.  Rows are partitioned over banks; decode/encode is
    # a bijection between global rows and (bank, local row) pairs in both
    # interleave modes.
    # ------------------------------------------------------------------
    def bank_of_row(self, row: int) -> int:
        """Physical bank that owns global row ``row``."""
        if not 0 <= row < self.rows:
            raise ValueError(f"row {row} out of range [0, {self.rows})")
        if self.bank_interleave == "blocked":
            return row // self.rows_per_bank
        return row % self.banks

    def bank_decode(self, row: int) -> Tuple[int, int]:
        """(bank, local row within the bank) of global row ``row``."""
        if not 0 <= row < self.rows:
            raise ValueError(f"row {row} out of range [0, {self.rows})")
        if self.bank_interleave == "blocked":
            return divmod(row, self.rows_per_bank)
        local, bank = divmod(row, self.banks)
        return bank, local

    def bank_encode(self, bank: int, local_row: int) -> int:
        """Global row of local row ``local_row`` in bank ``bank`` (inverse
        of :meth:`bank_decode`)."""
        if not 0 <= bank < self.banks:
            raise ValueError(f"bank {bank} out of range [0, {self.banks})")
        if not 0 <= local_row < self.rows_per_bank:
            raise ValueError(
                f"local row {local_row} out of range [0, {self.rows_per_bank})")
        if self.bank_interleave == "blocked":
            return bank * self.rows_per_bank + local_row
        return local_row * self.banks + bank

    # ------------------------------------------------------------------
    # Address <-> coordinate conversions.  The *logical address* numbers
    # words row-major ("word line after word line"), which is exactly the
    # access order the low-power test mode requires; other access orders are
    # produced by the address-order generators in ``repro.march.ordering``.
    # ------------------------------------------------------------------
    def address_of(self, row: int, word: int) -> int:
        """Logical address of word ``word`` on row ``row``."""
        self.validate_coordinates(row, word)
        return row * self.words_per_row + word

    def coordinates_of(self, address: int) -> Tuple[int, int]:
        """(row, word) coordinates of a logical address."""
        if not 0 <= address < self.word_count:
            raise ValueError(
                f"address {address} out of range [0, {self.word_count})"
            )
        return divmod(address, self.words_per_row)

    def columns_of_word(self, word: int) -> Tuple[int, ...]:
        """Physical columns accessed when word ``word`` of a row is selected.

        For a bit-oriented array this is a single column.  For a
        word-oriented array the bits of one word are interleaved: bit ``b``
        of word ``w`` sits in column ``b * words_per_row + w`` (standard
        column-mux interleaving), so neighbouring words occupy neighbouring
        columns within each bit group.
        """
        if not 0 <= word < self.words_per_row:
            raise ValueError(f"word {word} out of range [0, {self.words_per_row})")
        if self.is_bit_oriented:
            return (word,)
        return tuple(b * self.words_per_row + word for b in range(self.bits_per_word))

    def word_of_column(self, column: int) -> int:
        """Which word index a physical column belongs to."""
        if not 0 <= column < self.columns:
            raise ValueError(f"column {column} out of range [0, {self.columns})")
        if self.is_bit_oriented:
            return column
        return column % self.words_per_row

    def validate_coordinates(self, row: int, word: int) -> None:
        if not 0 <= row < self.rows:
            raise ValueError(f"row {row} out of range [0, {self.rows})")
        if not 0 <= word < self.words_per_row:
            raise ValueError(f"word {word} out of range [0, {self.words_per_row})")

    def iter_addresses_row_major(self) -> Iterator[int]:
        """Addresses in 'word line after word line' order (ascending)."""
        return iter(range(self.word_count))

    def describe(self) -> str:
        """Human-readable one-line description used in reports."""
        if self.is_bit_oriented:
            base = f"{self.rows}x{self.columns} bit-oriented SRAM array"
        else:
            base = (
                f"{self.rows}x{self.columns} array, word-oriented "
                f"({self.bits_per_word}-bit words, {self.words_per_row} words/row)"
            )
        if self.is_banked:
            base += (f", {self.banks} banks of {self.rows_per_bank} rows "
                     f"({self.bank_interleave})")
        return base


#: The array organisation used for every experiment in the paper.
PAPER_GEOMETRY = ArrayGeometry(rows=512, columns=512, bits_per_word=1)

#: A small geometry used by unit tests and quick examples; same aspect
#: ratio semantics, laptop-friendly runtimes.
SMALL_GEOMETRY = ArrayGeometry(rows=16, columns=16, bits_per_word=1)
