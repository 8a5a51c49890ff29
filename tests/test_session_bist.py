"""Integration tests: test sessions, mode comparisons (Table 1 path) and BIST."""

import pytest

from repro.bist import BistController, BistError, BistOrder, Comparator
from repro.core import LowPowerTestPlanner, SessionError, TestSession, compare_modes
from repro.faults import FaultInjection, StuckAtFault, TransitionFault
from repro.march import MARCH_CM, MATS_PLUS, MATS
from repro.power import PowerSource
from repro.sram import (
    ArrayGeometry,
    CellFactory,
    OperatingMode,
    SRAM,
    checkerboard_background,
    solid_background,
)


class FaultyCellFactory(CellFactory):
    """Cell factory that plants a stuck-at-0 cell at a fixed coordinate."""

    def __init__(self, location, tech=None):
        super().__init__(tech=tech)
        self.location = location

    def create(self, row, column):
        cell = super().create(row, column)
        if (row, column) == self.location:
            original_write = cell.write

            def stuck_write(value):
                original_write(0)
            cell.write = stuck_write  # type: ignore[assignment]
        return cell


class TestTestSession:
    def test_both_modes_pass_on_fault_free_memory(self, wide_geometry):
        session = TestSession(wide_geometry)
        comparison = session.compare_modes(MATS_PLUS)
        assert comparison.functional.passed
        assert comparison.low_power.passed
        assert comparison.low_power.read_hazards == 0
        assert comparison.low_power.faulty_swaps == []

    def test_low_power_mode_reduces_average_power(self, wide_geometry):
        comparison = compare_modes(wide_geometry, MATS_PLUS)
        assert comparison.prr > 0.15
        assert comparison.low_power.average_power < comparison.functional.average_power

    def test_prr_larger_on_wider_arrays(self):
        narrow = compare_modes(ArrayGeometry(rows=8, columns=16), MATS_PLUS)
        wide = compare_modes(ArrayGeometry(rows=8, columns=128), MATS_PLUS)
        assert wide.prr > narrow.prr

    def test_cycle_counts_match_algorithm_length(self, wide_geometry):
        session = TestSession(wide_geometry)
        result = session.run(MATS_PLUS, OperatingMode.FUNCTIONAL)
        assert result.cycles == MATS_PLUS.operation_count * wide_geometry.word_count
        assert result.energy_per_cycle > 0

    def test_low_power_run_books_all_overhead_sources(self, wide_geometry):
        session = TestSession(wide_geometry)
        result = session.run(MATS_PLUS, OperatingMode.LOW_POWER_TEST)
        for source in (PowerSource.ROW_TRANSITION_RESTORE, PowerSource.LPTEST_DRIVER,
                       PowerSource.CONTROL_LOGIC):
            assert result.energy_by_source.get(source, 0.0) > 0.0, source
        upper = MATS_PLUS.element_count * wide_geometry.rows
        assert upper - (MATS_PLUS.element_count - 1) <= result.full_restores <= upper

    def test_functional_mode_dominated_by_unselected_precharge(self, wide_geometry):
        session = TestSession(wide_geometry)
        result = session.run(MATS_PLUS, OperatingMode.FUNCTIONAL)
        assert result.source_fraction(PowerSource.PRECHARGE_UNSELECTED) > 0.3

    def test_data_background_independence(self, wide_geometry):
        # Section 3: the restoration rule preserves data-background freedom.
        session = TestSession(wide_geometry, background=checkerboard_background())
        result = session.run(MARCH_CM, OperatingMode.LOW_POWER_TEST)
        assert result.passed
        assert result.faulty_swaps == []

    def test_low_power_planner_requires_low_power_mode(self, wide_geometry):
        session = TestSession(wide_geometry)
        with pytest.raises(SessionError):
            session.run(MATS_PLUS, OperatingMode.FUNCTIONAL,
                        planner=LowPowerTestPlanner(wide_geometry))

    def test_table1_rows_structure(self, wide_geometry):
        session = TestSession(ArrayGeometry(rows=4, columns=16))
        rows = session.table1([MATS_PLUS])
        assert rows[0]["Algorithm"] == "MATS+"
        assert rows[0]["# oper"] == 5
        assert rows[0]["PRR"].endswith("%")

    def test_faulty_memory_detected_in_both_modes(self):
        geometry = ArrayGeometry(rows=8, columns=16)
        session = TestSession(geometry)
        for mode in (OperatingMode.FUNCTIONAL, OperatingMode.LOW_POWER_TEST):
            memory = SRAM(geometry, mode=mode,
                          cell_factory=FaultyCellFactory((3, 5)))
            memory.apply_background(solid_background(0))
            result = session.run(MARCH_CM, mode, memory=memory)
            assert not result.passed
            assert any(m.row == 3 and m.word == 5 for m in result.mismatches)


class TestBist:
    def test_bist_pass_on_fault_free_memory(self, wide_geometry):
        controller = BistController(wide_geometry)
        result = controller.run(MATS_PLUS, low_power=True)
        assert result.passed
        assert result.cycles == MATS_PLUS.operation_count * wide_geometry.word_count
        assert "PASS" in result.describe()

    def test_bist_low_power_saves_energy(self, wide_geometry):
        controller = BistController(wide_geometry)
        functional = controller.run(MATS_PLUS, low_power=False)
        low_power = controller.run(MATS_PLUS, low_power=True)
        assert low_power.total_energy < functional.total_energy

    def test_bist_refuses_low_power_with_fast_row_order(self, wide_geometry):
        controller = BistController(wide_geometry, order=BistOrder.FAST_ROW)
        with pytest.raises(BistError):
            controller.run(MATS_PLUS, low_power=True)
        # functional mode is still fine
        assert controller.run(MATS_PLUS, low_power=False).passed

    def test_bist_detects_injected_fault_in_low_power_mode(self):
        geometry = ArrayGeometry(rows=8, columns=16)
        controller = BistController(geometry)
        memory = SRAM(geometry, mode=OperatingMode.LOW_POWER_TEST,
                      cell_factory=FaultyCellFactory((2, 7)))
        memory.apply_background(solid_background(0))
        result = controller.run(MARCH_CM, low_power=True, memory=memory)
        assert not result.passed
        assert result.failures > 0
        first = result.failure_log[0]
        assert (first.row, first.word) == (2, 7)

    def test_bist_suite_runs_multiple_algorithms(self, small_geometry):
        controller = BistController(small_geometry)
        results = controller.run_suite([MATS, MATS_PLUS], low_power=True)
        assert [r.algorithm for r in results] == ["MATS", "MATS+"]
        assert all(r.passed for r in results)

    def test_bist_result_reports_the_planner(self, wide_geometry):
        controller = BistController(wide_geometry)
        low_power = controller.run(MATS_PLUS, low_power=True)
        functional = controller.run(MATS_PLUS, low_power=False)
        assert low_power.planner == "LowPowerTestPlanner"
        assert functional.planner == "FunctionalModePlanner"
        assert low_power.backend == functional.backend == "reference"
        assert "LowPowerTestPlanner" in low_power.describe()
        # The attribution survives the vectorized engine unchanged.
        vectorized = BistController(wide_geometry, backend="vectorized").run(
            MATS_PLUS, low_power=True)
        assert vectorized.planner == "LowPowerTestPlanner"
        assert vectorized.backend == "vectorized"

    def test_bist_suite_runs_on_the_controller_backend(self, small_geometry):
        controller = BistController(small_geometry, backend="vectorized")
        results = controller.run_suite([MATS, MATS_PLUS], low_power=True)
        assert all(r.backend == "vectorized" for r in results)
        assert controller.last_backend_used == "vectorized"

    def test_address_generator_counter_stepping(self, small_geometry):
        from repro.bist import AddressGenerator
        generator = AddressGenerator(small_geometry)
        assert generator.first() == 0
        assert generator.next(0) == 1
        assert generator.next(small_geometry.word_count - 1) is None
        assert generator.first(ascending=False) == small_geometry.word_count - 1
        assert generator.next(0, ascending=False) is None
        assert generator.coordinate(1) == (0, 1)
        assert generator.supports_low_power_mode()

    def test_comparator_log_is_bounded(self):
        comparator = Comparator(log_limit=2)
        for i in range(5):
            comparator.check(cycle=i, row=0, word=i, expected=0, observed=1)
        assert comparator.failures == 5
        assert len(comparator.log) == 2
        assert comparator.first_failure().word == 0
        comparator.reset()
        assert comparator.passed
