"""Experiment ``sources_breakdown`` — Section 5's power-source analysis.

Runs March C- in functional mode and in the low-power test mode and reports
the per-source energy breakdown (the five sources the paper enumerates plus
the bookkeeping ones), checking the claims the analysis rests on:

* the pre-charge activity of the unselected columns is the dominant
  functional-mode term (pre-charge activity is 70-80 % of SRAM power per
  the paper's reference [8]);
* cell-side RES energy is three orders of magnitude below the pre-charge
  RES energy;
* the LPtest driver and the added control logic are negligible.
"""

from __future__ import annotations

import pytest

from repro.analysis import format_percent, render_table
from repro.core import TestSession
from repro.march import MARCH_CM
from repro.power import PowerSource
from repro.sram import OperatingMode
from repro.sram.geometry import PAPER_GEOMETRY


def run_breakdown():
    session = TestSession(PAPER_GEOMETRY, backend="vectorized", detailed=False)
    functional = session.run(MARCH_CM, OperatingMode.FUNCTIONAL)
    low_power = session.run(MARCH_CM, OperatingMode.LOW_POWER_TEST)
    return functional, low_power


@pytest.mark.benchmark(group="sources")
def test_section5_power_source_breakdown(benchmark, once):
    functional, low_power = once(benchmark, run_breakdown)
    rows = []
    for source in PowerSource:
        rows.append({
            "Power source": source.value,
            "paper §5 index": source.paper_source_index if source.paper_source_index else "-",
            "functional": format_percent(functional.source_fraction(source)),
            "low-power test": format_percent(low_power.source_fraction(source)),
        })
    print()
    print(render_table(rows, title="March C- energy breakdown by source "
                                   "(share of each mode's total energy)"))
    print(f"functional average power: {functional.average_power * 1e3:.3f} mW; "
          f"low-power test mode: {low_power.average_power * 1e3:.3f} mW")

    # Claim checks.
    unselected = functional.source_fraction(PowerSource.PRECHARGE_UNSELECTED)
    assert unselected > 0.35, "unselected-column pre-charge must dominate functional test power"
    cell = functional.energy_by_source[PowerSource.CELL_RES]
    precharge = functional.energy_by_source[PowerSource.PRECHARGE_UNSELECTED]
    assert precharge / cell == pytest.approx(1000.0, rel=0.05)
    assert low_power.source_fraction(PowerSource.LPTEST_DRIVER) < 0.01
    assert low_power.source_fraction(PowerSource.CONTROL_LOGIC) < 0.01
    assert low_power.average_power < functional.average_power
