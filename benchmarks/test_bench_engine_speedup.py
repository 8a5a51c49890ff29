"""Experiment ``engine_speedup`` — vectorized vs. reference wall clock.

Times ``compare_modes(March C-)`` on the same full-width geometry with both
execution backends and asserts the vectorized engine wins by at least an
order of magnitude — the speedup that makes the paper-scale 512 x 512
measured experiments (see ``test_bench_table1_paper_scale.py``) tractable.

The reference measurement uses the full 512-column width (the quantity the
per-cycle physics depends on) and 8 rows, so the default tier stays a few
seconds; the per-access cost of the reference engine does not depend on
the row count, so the measured speedup is a *lower bound* for the full
array.  ``REPRO_BENCH_FULL=1`` runs the reference engine on the literal
512 x 512 array instead (minutes of wall clock; the assertion is
unchanged).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.analysis import render_table
from repro.core import TestSession
from repro.march import MARCH_CM
from repro.sram import ArrayGeometry
from repro.sram.geometry import PAPER_GEOMETRY

MINIMUM_SPEEDUP = 10.0


def _benchmark_geometry() -> ArrayGeometry:
    if os.environ.get("REPRO_BENCH_FULL"):
        return PAPER_GEOMETRY
    return ArrayGeometry(rows=8, columns=PAPER_GEOMETRY.columns)


def measure_speedup():
    geometry = _benchmark_geometry()
    timings = {}
    results = {}
    for backend in ("vectorized", "reference"):
        session = TestSession(geometry, detailed=False, backend=backend)
        started = time.perf_counter()
        results[backend] = session.compare_modes(MARCH_CM)
        timings[backend] = time.perf_counter() - started
    return geometry, timings, results


@pytest.mark.benchmark(group="engine")
def test_vectorized_backend_speedup(benchmark, once):
    geometry, timings, results = once(benchmark, measure_speedup)
    speedup = timings["reference"] / timings["vectorized"]
    rows = [{
        "Backend": backend,
        "Wall clock (s)": f"{timings[backend]:.3f}",
        "Cycles simulated": 2 * results[backend].functional.cycles,
        "PRR measured": f"{100 * results[backend].prr:.2f} %",
    } for backend in ("reference", "vectorized")]
    print()
    print(render_table(
        rows,
        title=f"compare_modes(March C-) on {geometry.describe()} — "
              f"vectorized speedup {speedup:.0f}x"))
    # Both backends measure the same physics...
    assert results["vectorized"].prr == pytest.approx(
        results["reference"].prr, rel=1e-9)
    # ...but the vectorized engine must be at least an order of magnitude
    # faster (in practice it is two to three).
    assert speedup >= MINIMUM_SPEEDUP, (
        f"vectorized backend only {speedup:.1f}x faster than reference")
