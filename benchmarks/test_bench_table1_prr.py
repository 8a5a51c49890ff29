"""Experiment ``table1_prr`` — the paper's Table 1.

Reproduces the Power Reduction Ratio of the five March algorithms
(March C-, March SS, MATS+, March SR, March G) on the paper's 512 x 512,
0.13 µm, 1.6 V, 3 ns SRAM:

* *measured*: both modes on the full 512 x 512 array through the
  vectorized engine (equivalent to the cycle-accurate behavioural
  simulation up to summation order; ``tests/test_table1_golden.py`` pins
  the figures);
* *analytical*: the paper's Section 5 equations on the full 512 x 512 array.

Paper values for reference: March C- 47.3 %, March SS 50.0 %, MATS+ 48.1 %,
March SR 49.5 %, March G 50.5 %.
"""

from __future__ import annotations

import pytest

from repro.analysis import render_table
from repro.core import AnalyticalPowerModel, TestSession
from repro.march import PAPER_TABLE1_ALGORITHMS
from repro.sram.geometry import PAPER_GEOMETRY

PAPER_PRR = {
    "March C-": 47.3,
    "March SS": 50.0,
    "MATS+": 48.1,
    "March SR": 49.5,
    "March G": 50.5,
}


def reproduce_table1():
    session = TestSession(PAPER_GEOMETRY, backend="vectorized", detailed=False)
    analytical = AnalyticalPowerModel(PAPER_GEOMETRY)
    rows = []
    for algorithm in PAPER_TABLE1_ALGORITHMS:
        comparison = session.compare_modes(algorithm)
        prediction = analytical.predict(algorithm)
        prediction_full = analytical.predict(algorithm, include_secondary=True,
                                              include_next_column_recharge=True)
        rows.append({
            "Algorithm": algorithm.name,
            "# elm": algorithm.element_count,
            "# oper": algorithm.operation_count,
            "# read": algorithm.read_count,
            "# write": algorithm.write_count,
            "PRR paper": f"{PAPER_PRR[algorithm.name]:.1f} %",
            "PRR analytical (paper eq.)": f"{100 * prediction.prr:.1f} %",
            "PRR analytical (+recharge)": f"{100 * prediction_full.prr:.1f} %",
            "PRR measured": f"{100 * comparison.prr:.1f} %",
            "P_F measured (mW)": f"{comparison.functional.average_power * 1e3:.3f}",
            "P_LPT measured (mW)": f"{comparison.low_power.average_power * 1e3:.3f}",
        })
    return rows


@pytest.mark.benchmark(group="table1")
def test_table1_power_reduction_ratio(benchmark, once):
    rows = once(benchmark, reproduce_table1)
    print()
    print(render_table(
        rows,
        title="Table 1 — PRR for different March algorithms "
              "(512x512 SRAM, 0.13um, 1.6V, 3ns; measured on the full "
              "array)"))
    # Shape checks: the low-power test mode always wins, by a large factor,
    # for every algorithm, and the analytical model sits in the paper's band.
    for row in rows:
        measured = float(row["PRR measured"].split()[0])
        analytical = float(row["PRR analytical (paper eq.)"].split()[0])
        assert measured > 15.0, row["Algorithm"]
        assert 40.0 < analytical < 70.0, row["Algorithm"]
