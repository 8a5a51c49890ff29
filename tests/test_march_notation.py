"""Unit tests for March operations, elements, algorithms, parser and library."""

import pytest

from repro.march import (
    ALGORITHM_LIBRARY,
    AddressingDirection,
    MARCH_CM,
    MARCH_G,
    MARCH_SR,
    MARCH_SS,
    MATS_PLUS,
    MarchAlgorithm,
    MarchElement,
    MarchOperation,
    MarchSyntaxError,
    MarchValidationError,
    OperationKind,
    PAPER_TABLE1_ALGORITHMS,
    R0, R1, W0, W1,
    all_algorithms,
    get_algorithm,
    parse_march,
    parse_march_detailed,
    round_trip,
)


class TestOperations:
    def test_notation_roundtrip(self):
        for token in ("r0", "r1", "w0", "w1"):
            assert MarchOperation.from_notation(token).to_notation() == token

    def test_case_insensitive(self):
        assert MarchOperation.from_notation("R1") == R1

    def test_invalid_tokens(self):
        for bad in ("x0", "r2", "read", "", "r"):
            with pytest.raises(MarchSyntaxError):
                MarchOperation.from_notation(bad)

    def test_inverted(self):
        assert W0.inverted() == W1
        assert R1.inverted() == R0

    def test_kind_flags(self):
        assert R0.is_read and not R0.is_write
        assert W1.is_write and not W1.is_read


class TestElements:
    def test_direction_symbols(self):
        assert AddressingDirection.from_symbol("⇑") is AddressingDirection.UP
        assert AddressingDirection.from_symbol("d") is AddressingDirection.DOWN
        assert AddressingDirection.from_symbol("⇕") is AddressingDirection.ANY
        with pytest.raises(MarchSyntaxError):
            AddressingDirection.from_symbol("x")

    def test_counts_and_flags(self):
        element = MarchElement(AddressingDirection.UP, (R0, W1, R1))
        assert element.operation_count == 3
        assert element.read_count == 2
        assert element.write_count == 1
        assert not element.is_initialising
        assert element.final_written_value() == 1

    def test_initialising_element(self):
        element = MarchElement(AddressingDirection.ANY, (W0,))
        assert element.is_initialising
        assert element.final_written_value() == 0

    def test_empty_element_rejected(self):
        with pytest.raises(MarchSyntaxError):
            MarchElement(AddressingDirection.UP, ())

    def test_inverted_data_and_direction_change(self):
        element = MarchElement(AddressingDirection.UP, (R0, W1))
        inverted = element.inverted_data()
        assert inverted.operations == (R1, W0)
        down = element.with_direction(AddressingDirection.DOWN)
        assert down.direction is AddressingDirection.DOWN


class TestTable1Statistics:
    """The #elm / #oper / #read / #write columns of the paper's Table 1."""

    @pytest.mark.parametrize("algorithm,elements,operations,reads,writes", [
        (MARCH_CM, 6, 10, 5, 5),
        (MARCH_SS, 6, 22, 13, 9),
        (MATS_PLUS, 3, 5, 2, 3),
        (MARCH_SR, 6, 14, 8, 6),
        (MARCH_G, 7, 23, 10, 13),
    ])
    def test_counts_match_paper(self, algorithm, elements, operations, reads, writes):
        assert algorithm.element_count == elements
        assert algorithm.operation_count == operations
        assert algorithm.read_count == reads
        assert algorithm.write_count == writes
        assert algorithm.read_count + algorithm.write_count == algorithm.operation_count

    def test_paper_list_order(self):
        assert [a.name for a in PAPER_TABLE1_ALGORITHMS] == [
            "March C-", "March SS", "MATS+", "March SR", "March G"]


class TestAlgorithmValidation:
    def test_library_algorithms_are_consistent(self):
        for algorithm in all_algorithms():
            algorithm.validate()
            assert algorithm.is_valid()

    def test_inconsistent_expectation_rejected(self):
        bad = parse_march("{⇕(w0); ⇑(r1,w1)}", name="bad")
        with pytest.raises(MarchValidationError):
            bad.validate()
        assert not bad.is_valid()

    def test_read_before_write_rejected(self):
        bad = parse_march("{⇑(r0,w0)}", name="bad")
        with pytest.raises(MarchValidationError):
            bad.validate()

    def test_cycles_for(self):
        assert MARCH_CM.cycles_for(1024) == 10 * 1024
        with pytest.raises(MarchValidationError):
            MARCH_CM.cycles_for(0)

    def test_complexity_string(self):
        assert MARCH_CM.complexity_string() == "10N"

    def test_inverted_data_still_valid(self):
        MARCH_CM.with_inverted_data().validate()

    def test_empty_algorithm_rejected(self):
        with pytest.raises(MarchValidationError):
            MarchAlgorithm(name="empty", elements=())


class TestParser:
    def test_ascii_and_unicode_equivalent(self):
        unicode_version = parse_march("{⇕(w0); ⇑(r0,w1); ⇓(r1,w0)}")
        ascii_version = parse_march("{b(w0); u(r0,w1); d(r1,w0)}")
        assert unicode_version.to_notation() == ascii_version.to_notation()

    def test_braces_optional(self):
        assert parse_march("⇕(w0); ⇑(r0)").element_count == 2

    def test_delay_markers_ignored_but_counted(self):
        result = parse_march_detailed("{⇕(w0); Del; ⇕(r0)}")
        assert result.algorithm.element_count == 2
        assert result.ignored_delays == 1

    def test_round_trip_of_library(self):
        for algorithm in all_algorithms():
            reparsed = round_trip(algorithm)
            assert reparsed.to_notation() == algorithm.to_notation()
            assert reparsed.operation_count == algorithm.operation_count

    @pytest.mark.parametrize("bad", [
        "", "{}", "{⇑()}", "{⇑(r0,w1)", "{x(r0)}", "{⇑(r0, q1)}",
    ])
    def test_malformed_notation_rejected(self, bad):
        with pytest.raises(MarchSyntaxError):
            parse_march(bad)

    def test_summary_row(self):
        row = MARCH_CM.summary_row()
        assert row["algorithm"] == "March C-"
        assert row["operations"] == 10


class TestLibraryLookup:
    def test_get_algorithm_by_loose_name(self):
        assert get_algorithm("march c-") is MARCH_CM
        assert get_algorithm("MATS+") is MATS_PLUS
        assert get_algorithm("marchss") is MARCH_SS
        for name, algorithm in ALGORITHM_LIBRARY.items():
            assert get_algorithm(name) is algorithm
            assert get_algorithm(name.lower()) is algorithm
            assert get_algorithm(name.replace(" ", "")) is algorithm
        assert get_algorithm("March C") is not get_algorithm("March C-")
        assert get_algorithm("MATS") is not get_algorithm("MATS+")

    def test_c_and_c_minus_are_distinct(self):
        assert get_algorithm("March C").operation_count == 11
        assert get_algorithm("March C-").operation_count == 10

    def test_unknown_algorithm(self):
        with pytest.raises(KeyError, match=r"unknown March algorithm "
                           r"'March ZZZ'; available: \['MATS', "):
            get_algorithm("March ZZZ")

    def test_library_has_reasonable_breadth(self):
        assert len(ALGORITHM_LIBRARY) >= 15
