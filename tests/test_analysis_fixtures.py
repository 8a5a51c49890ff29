"""Tests for the analysis helpers: Spice-substitute fixtures, tables."""

import pytest

from repro.analysis import (
    bitline_discharge_fixture,
    faulty_swap_fixture,
    format_energy,
    format_percent,
    format_power,
    render_table,
    res_fight_fixture,
    selected_column_cycle_fixture,
)


class TestTransientFixtures:
    def test_figure6_bitline_discharge_shape(self, tech):
        """Figure 6a: BL discharges to logic '0' in a handful of cycles, BLB holds VDD."""
        fixture = bitline_discharge_fixture(tech=tech, rows=512)
        result = fixture.simulate(t_stop=12 * tech.clock_period, dt=50e-12, record_every=10)
        bl = result.waveform("BL")
        blb = result.waveform("BLB")
        crossing = bl.first_crossing(0.3 * tech.vdd, "falling")
        assert crossing is not None
        cycles_to_low = crossing / tech.clock_period
        assert 2.0 < cycles_to_low < 12.0
        assert bl.final_value() < 0.1 * tech.vdd
        assert blb.final_value() == pytest.approx(tech.vdd)

    def test_figure2c_res_fight_holds_line_and_draws_power(self, tech):
        fixture = res_fight_fixture(tech=tech, rows=512)
        result = fixture.simulate(t_stop=tech.clock_period, dt=20e-12)
        assert result.final_voltage("BL") > 0.95 * tech.vdd
        energy = result.source_energy_for("vdd_precharge")
        expected = tech.vdd * tech.res_equilibrium_current * tech.clock_period
        assert energy == pytest.approx(expected, rel=0.25)

    def test_figure2ab_selected_column_cycle(self, tech):
        fixture = selected_column_cycle_fixture(tech=tech, rows=512)
        result = fixture.simulate(t_stop=tech.clock_period, dt=10e-12)
        bl = result.waveform("BL")
        mid = bl.value_at(tech.clock_period / 2)
        assert mid < 0.9 * tech.vdd          # operation phase pulled BL down
        assert bl.final_value() > 0.95 * tech.vdd  # restoration phase recovered it

    def test_figure7_faulty_swap_and_fix(self, tech):
        """Figure 6c/7: the cell flips without restoration and survives with it."""
        no_restore = faulty_swap_fixture(restore_before_transition=False, tech=tech)
        swapped = no_restore.simulate(t_stop=5 * tech.clock_period, dt=0.5e-12,
                                      record_every=200)
        assert swapped.final_voltage("victim_S") > 0.7 * tech.vdd
        assert swapped.final_voltage("victim_SB") < 0.3 * tech.vdd

        with_restore = faulty_swap_fixture(restore_before_transition=True, tech=tech)
        kept = with_restore.simulate(t_stop=5 * tech.clock_period, dt=0.5e-12,
                                     record_every=200)
        assert kept.final_voltage("victim_S") < 0.3 * tech.vdd
        assert kept.final_voltage("victim_SB") > 0.7 * tech.vdd


class TestTableRendering:
    def test_render_table_alignment_and_title(self):
        rows = [{"Algorithm": "March C-", "PRR": "47.3 %"},
                {"Algorithm": "MATS+", "PRR": "48.1 %"}]
        text = render_table(rows, title="Table 1")
        assert "Table 1" in text
        assert "March C-" in text and "MATS+" in text
        assert text.count("\n") >= 4

    def test_render_empty_table(self):
        assert "empty" in render_table([])

    def test_formatters(self):
        assert format_energy(1.5e-12) == "1.50 pJ"
        assert format_energy(2e-9) == "2.00 nJ"
        assert format_power(0.0035) == "3.500 mW"
        assert format_percent(0.473) == "47.3 %"
