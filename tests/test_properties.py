"""Property-based tests (hypothesis) on the core data structures and invariants."""

from hypothesis import given, settings, strategies as st

import pytest

from repro.march import parse_march, walk
from repro.march.ordering import (
    AddressComplementOrder,
    ColumnMajorOrder,
    PseudoRandomOrder,
    RowMajorOrder,
    RowMajorSnakeOrder,
    verify_is_permutation,
)
from repro.march.parser import parse_march_detailed
from repro.power.accounting import EnergyLedger
from repro.power.sources import PowerSource
from repro.sram.bitline import BitLinePair
from repro.sram.geometry import ArrayGeometry

from strategies import algorithms


# ----------------------------------------------------------------------
# Strategies (the March ones are shared through ``strategies``)
# ----------------------------------------------------------------------
geometries = st.builds(
    ArrayGeometry,
    rows=st.integers(min_value=1, max_value=8),
    columns=st.integers(min_value=1, max_value=8),
)


# ----------------------------------------------------------------------
# March notation properties
# ----------------------------------------------------------------------
class TestNotationProperties:
    @given(algorithms)
    def test_notation_round_trips(self, algorithm):
        reparsed = parse_march(algorithm.to_notation(), name=algorithm.name)
        assert reparsed.to_notation() == algorithm.to_notation()
        assert reparsed.operation_count == algorithm.operation_count
        assert reparsed.read_count == algorithm.read_count
        assert reparsed.write_count == algorithm.write_count

    @given(algorithms)
    def test_ascii_notation_equivalent(self, algorithm):
        reparsed = parse_march(algorithm.to_notation(ascii_only=True))
        assert reparsed.to_notation() == algorithm.to_notation()

    @given(algorithms)
    def test_counts_are_consistent(self, algorithm):
        assert algorithm.read_count + algorithm.write_count == algorithm.operation_count
        assert algorithm.element_count == len(algorithm.elements)

    @given(algorithms)
    def test_data_inversion_is_involution(self, algorithm):
        twice = algorithm.with_inverted_data().with_inverted_data()
        assert twice.to_notation() == algorithm.to_notation()

    @given(algorithms, st.data())
    def test_round_trip_survives_notation_noise(self, algorithm, data):
        """parse ∘ format is identity even under whitespace/brace noise.

        The parser accepts braceless notation, arbitrary spacing around
        separators and mixed comma/space operation lists; none of it may
        change what the algorithm *is*.
        """
        notation = algorithm.to_notation()
        if data.draw(st.booleans(), label="strip braces"):
            notation = notation.strip().removeprefix("{").removesuffix("}")
        pad = data.draw(st.sampled_from(["", " ", "  ", "\t"]), label="padding")
        notation = notation.replace(";", f"{pad};{pad}").replace(",", f",{pad}")
        reparsed = parse_march(notation, name=algorithm.name)
        assert reparsed.to_notation() == algorithm.to_notation()

    @given(algorithms, st.integers(min_value=1, max_value=3))
    def test_delay_markers_are_counted_and_dropped(self, algorithm, delays):
        chunks = algorithm.to_notation().strip("{}").split(";")
        for _ in range(delays):
            chunks.insert(len(chunks) // 2, " Del ")
        result = parse_march_detailed(";".join(chunks), name=algorithm.name)
        assert result.ignored_delays == delays
        assert result.algorithm.to_notation() == algorithm.to_notation()


# ----------------------------------------------------------------------
# Address order properties (DOF 1)
# ----------------------------------------------------------------------
#: Every deterministic order class the registry ships (the pseudo-random
#: order needs a seed and is exercised separately).
DETERMINISTIC_ORDERS = [RowMajorOrder, ColumnMajorOrder, RowMajorSnakeOrder,
                        AddressComplementOrder]


class TestOrderingProperties:
    @given(geometries, st.sampled_from(DETERMINISTIC_ORDERS))
    def test_orders_are_permutations(self, geometry, order_cls):
        assert verify_is_permutation(order_cls(geometry))

    @given(geometries, st.integers(min_value=0, max_value=10_000))
    def test_pseudo_random_orders_are_permutations(self, geometry, seed):
        assert verify_is_permutation(PseudoRandomOrder(geometry, seed=seed))

    @given(geometries, st.integers(min_value=0, max_value=10_000))
    def test_descending_is_reverse_of_ascending(self, geometry, seed):
        order = PseudoRandomOrder(geometry, seed=seed)
        assert list(order.descending()) == list(reversed(list(order.ascending())))

    @given(geometries, st.sampled_from(DETERMINISTIC_ORDERS + [PseudoRandomOrder]))
    def test_inverse_composes_to_identity(self, geometry, order_cls):
        """The DOF-1 precondition: every order is a *bijection* of the
        address space, so position -> coordinate -> position is the
        identity in both composition orders — which is exactly what lets
        fault-coverage arguments permute freely over address sequences.
        """
        order = order_cls(geometry)
        inverse = {order.coordinate_at(position): position
                   for position in range(len(order))}
        assert len(inverse) == geometry.word_count  # injective, hence bijective
        for position in range(len(order)):
            assert inverse[order.coordinate_at(position)] == position
        for address in range(geometry.word_count):
            coordinate = geometry.coordinates_of(address)
            assert order.coordinate_at(inverse[coordinate]) == coordinate

    @given(geometries, st.sampled_from(DETERMINISTIC_ORDERS + [PseudoRandomOrder]))
    @settings(max_examples=30, deadline=None)
    def test_descending_inverse_is_reversed_ascending_inverse(self, geometry,
                                                              order_cls):
        """Descending traversal is the reverse permutation, never a new one."""
        order = order_cls(geometry)
        ascending = list(order.ascending())
        descending = list(order.descending())
        assert descending == ascending[::-1]
        assert sorted(ascending) == sorted(descending)

    @given(geometries, algorithms)
    @settings(max_examples=30, deadline=None)
    def test_walk_visits_every_address_once_per_element(self, geometry, algorithm):
        order = RowMajorOrder(geometry)
        steps = list(walk(algorithm, order))
        assert len(steps) == algorithm.operation_count * geometry.word_count
        # every element visits every address exactly once
        for element_index, element in enumerate(algorithm.elements):
            visited = [(s.row, s.word) for s in steps
                       if s.element_index == element_index and s.operation_index == 0]
            assert sorted(set(visited)) == sorted(visited)
            assert len(visited) == geometry.word_count
        # row-transition flags: at most #elements * #rows for a word-line
        # order (element boundaries that stay on the same row need none),
        # and every actual row change must be flagged.
        flagged = sum(1 for s in steps if s.last_access_on_row)
        upper = algorithm.element_count * geometry.rows
        assert upper - (algorithm.element_count - 1) <= flagged <= upper
        for current, following in zip(steps, steps[1:]):
            if following.row != current.row:
                assert current.last_access_on_row


# ----------------------------------------------------------------------
# Energy / electrical invariants
# ----------------------------------------------------------------------
class TestEnergyProperties:
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=500),
                              st.sampled_from(list(PowerSource)),
                              st.floats(min_value=0.0, max_value=1e-9,
                                        allow_nan=False)),
                    max_size=60))
    def test_ledger_totals_are_additive_and_non_negative(self, bookings):
        ledger = EnergyLedger(clock_period=3e-9)
        expected_total = 0.0
        for cycle, source, energy in bookings:
            ledger.record_energy(cycle, source, energy)
            expected_total += energy
        assert ledger.total_energy() == pytest.approx(expected_total)
        assert ledger.total_energy() >= 0.0
        assert sum(ledger.energy_by_source().values()) == pytest.approx(expected_total)
        if ledger.cycle_count:
            assert sum(ledger.per_cycle_energy()) == pytest.approx(expected_total)

    @given(st.integers(min_value=1, max_value=1024),
           st.floats(min_value=0.0, max_value=100e-9, allow_nan=False),
           st.booleans())
    def test_bitline_voltage_stays_in_rails(self, rows, duration, pulls_bl):
        pair = BitLinePair(rows=rows)
        pair.float_with_cell(pulls_bl, duration)
        assert 0.0 <= pair.v_bl <= pair.vdd + 1e-12
        assert 0.0 <= pair.v_blb <= pair.vdd + 1e-12
        result = pair.restore()
        assert result.energy >= 0.0
        assert pair.is_fully_precharged()

    @given(st.integers(min_value=1, max_value=1024),
           st.integers(min_value=0, max_value=1))
    def test_write_then_restore_energy_positive(self, rows, value):
        pair = BitLinePair(rows=rows)
        pair.force_write_levels(value)
        assert pair.restore().energy > 0.0


# ----------------------------------------------------------------------
# Geometry properties
# ----------------------------------------------------------------------
class TestGeometryProperties:
    @given(st.integers(min_value=1, max_value=64), st.integers(min_value=1, max_value=64))
    def test_address_roundtrip(self, rows, columns):
        geometry = ArrayGeometry(rows=rows, columns=columns)
        for address in range(0, geometry.word_count, max(1, geometry.word_count // 17)):
            row, word = geometry.coordinates_of(address)
            assert geometry.address_of(row, word) == address

    @given(st.integers(min_value=1, max_value=16),
           st.integers(min_value=1, max_value=8),
           st.integers(min_value=1, max_value=8))
    def test_word_columns_partition_the_array(self, rows, words_per_row, bits_per_word):
        columns = words_per_row * bits_per_word
        geometry = ArrayGeometry(rows=rows, columns=columns, bits_per_word=bits_per_word)
        seen = set()
        for word in range(geometry.words_per_row):
            word_columns = geometry.columns_of_word(word)
            assert len(word_columns) == bits_per_word
            assert not (seen & set(word_columns))
            seen.update(word_columns)
        assert seen == set(range(columns))


# ----------------------------------------------------------------------
# Banked address-map properties
# ----------------------------------------------------------------------
from repro.sram.geometry import BANK_INTERLEAVE_MODES  # noqa: E402

banked_geometries = st.builds(
    lambda banks, rows_per_bank, columns, interleave: ArrayGeometry(
        rows=banks * rows_per_bank, columns=columns, banks=banks,
        bank_interleave=interleave),
    banks=st.sampled_from([1, 2, 4, 8]),
    rows_per_bank=st.integers(min_value=1, max_value=8),
    columns=st.integers(min_value=1, max_value=16),
    interleave=st.sampled_from(sorted(BANK_INTERLEAVE_MODES)),
)


class TestBankedAddressMapProperties:
    @given(banked_geometries)
    def test_bank_decode_encode_round_trip(self, geometry):
        """decode ∘ encode is the identity on every physical row."""
        for row in range(geometry.rows):
            bank, local = geometry.bank_decode(row)
            assert 0 <= bank < geometry.banks
            assert 0 <= local < geometry.rows_per_bank
            assert geometry.bank_encode(bank, local) == row
            assert geometry.bank_of_row(row) == bank

    @given(banked_geometries)
    def test_bank_map_is_inverse_permutation(self, geometry):
        """encode ∘ decode is the identity in the other composition order:
        the bank map is a bijection rows -> banks x rows_per_bank, so the
        banked array is an exact re-labelling of the monolithic one."""
        decoded = {geometry.bank_decode(row) for row in range(geometry.rows)}
        assert len(decoded) == geometry.rows  # injective, hence bijective
        for bank in range(geometry.banks):
            for local in range(geometry.rows_per_bank):
                row = geometry.bank_encode(bank, local)
                assert geometry.bank_decode(row) == (bank, local)

    @given(banked_geometries)
    def test_banks_partition_the_rows(self, geometry):
        """Every bank owns exactly rows_per_bank rows; no row is shared."""
        by_bank = {}
        for row in range(geometry.rows):
            by_bank.setdefault(geometry.bank_of_row(row), set()).add(row)
        assert set(by_bank) == set(range(geometry.banks))
        for rows in by_bank.values():
            assert len(rows) == geometry.rows_per_bank

    @given(st.integers(min_value=1, max_value=32),
           st.sampled_from(sorted(BANK_INTERLEAVE_MODES)))
    def test_single_bank_is_the_identity_map(self, rows, interleave):
        """banks=1 must degenerate to the monolithic array exactly."""
        geometry = ArrayGeometry(rows=rows, columns=4, banks=1,
                                 bank_interleave=interleave)
        for row in range(rows):
            assert geometry.bank_decode(row) == (0, row)
            assert geometry.bank_encode(0, row) == row
