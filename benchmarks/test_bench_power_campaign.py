"""Experiment ``power_campaign`` — vectorized BIST power campaign wall clock.

Two claims are measured:

* the vectorized power-campaign engine beats the cycle-accurate
  behavioural walk by at least an order of magnitude on a BIST
  functional-vs-low-power comparison, with equivalent energy totals and
  identical verdicts — the speedup that turns the measured Table 1 from a
  batch job into an interactive query;
* the full measured 512 x 512 Table 1 (all five paper algorithms, both
  modes, through the BIST deployment path) completes in seconds, lands
  inside the analytical PRR bracket, and runs on the vectorized backend.

The speedup is timed on 8 x 512 (the full width the per-cycle physics
depends on); ``REPRO_BENCH_FULL=1`` runs the reference walk on the
literal 512 x 512 array instead (minutes of wall clock; the assertion is
unchanged).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.analysis import prr_table, render_table
from repro.bist import BistController
from repro.march import MARCH_CM
from repro.sram import ArrayGeometry
from repro.sram.geometry import PAPER_GEOMETRY
from repro.sweep import paper_prr_cases, run_prr_case

MINIMUM_SPEEDUP = 10.0
PAPER_TABLE1_BUDGET_S = 10.0


def _benchmark_geometry() -> ArrayGeometry:
    if os.environ.get("REPRO_BENCH_FULL"):
        return PAPER_GEOMETRY
    return ArrayGeometry(rows=8, columns=PAPER_GEOMETRY.columns)


def measure_campaign_speedup():
    geometry = _benchmark_geometry()
    timings = {}
    results = {}
    for backend in ("vectorized", "reference"):
        controller = BistController(geometry, backend=backend)
        started = time.perf_counter()
        functional = controller.run(MARCH_CM, low_power=False)
        low_power = controller.run(MARCH_CM, low_power=True)
        timings[backend] = time.perf_counter() - started
        results[backend] = (functional, low_power)
    return geometry, timings, results


@pytest.mark.benchmark(group="power-campaign")
def test_vectorized_power_campaign_speedup(benchmark, once):
    geometry, timings, results = once(benchmark, measure_campaign_speedup)
    speedup = timings["reference"] / timings["vectorized"]
    rows = [{
        "Backend": backend,
        "Wall clock (s)": f"{timings[backend]:.3f}",
        "Cycles simulated": sum(r.cycles for r in results[backend]),
        "PRR measured": f"{100 * (1 - results[backend][1].average_power / results[backend][0].average_power):.2f} %",
    } for backend in ("reference", "vectorized")]
    print()
    print(render_table(
        rows,
        title=f"BIST compare_modes(March C-) on {geometry.describe()} — "
              f"vectorized speedup {speedup:.0f}x"))
    # Both backends measure the same physics and reach the same verdicts...
    for reference, vectorized in zip(*(results[b] for b in
                                       ("reference", "vectorized"))):
        assert vectorized.passed == reference.passed
        assert vectorized.cycles == reference.cycles
        assert vectorized.total_energy == pytest.approx(
            reference.total_energy, rel=1e-9)
    # ...but the campaign engine must be at least an order of magnitude
    # faster (in practice it is two to three).
    assert speedup >= MINIMUM_SPEEDUP, (
        f"vectorized power campaign only {speedup:.1f}x faster than reference")


@pytest.mark.benchmark(group="power-campaign")
def test_paper_table1_through_bist_in_seconds(benchmark, once):
    """The acceptance workload: the full measured Table 1 as a BIST campaign."""
    started = time.perf_counter()
    records = once(benchmark, lambda: [run_prr_case(case)
                                       for case in paper_prr_cases()])
    elapsed = time.perf_counter() - started
    print()
    print(prr_table(
        records,
        title=f"Measured Table 1 through the BIST path on the full "
              f"512x512 array ({elapsed:.2f} s)"))
    assert len(records) == 5
    for record in records:
        assert record.passed, record.algorithm
        assert record.within_bracket, record.algorithm
        assert record.backend_used == "vectorized", record.algorithm
    assert elapsed < PAPER_TABLE1_BUDGET_S, (
        f"paper-scale Table 1 took {elapsed:.1f} s (budget "
        f"{PAPER_TABLE1_BUDGET_S:.0f} s)")
