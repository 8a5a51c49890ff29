"""Experiment ``kernel_tiers`` — cold and warm PRR latency of the flat kernel.

Two acceptance bars on a full 4096 x 4096 PRR measurement (both
operating modes through the BIST path):

* **warm under 100 ms**.  "Warm" means the controller's caches are
  populated — the compiled operation trace, the segment walk and the
  BIST order memo — exactly the steady state of a sweep evaluating many
  algorithms on one geometry;
* **cold under 250 ms**: the first measurement on a fresh controller,
  which compiles the trace and its segment walk from the row-major
  order's closed-form row runs.

They land two entries in ``BENCH_<id>.json``:
``paper-prr-<size>-cold[flat]`` (the first measurement) and
``paper-prr-<size>-warm[flat]`` (the median of :data:`WARM_ROUNDS` warm
measurements), and ``check_regression.py`` gates each against its own
committed entry.  The ``[flat]`` suffix names the engine's one kernel;
it dates from when other tiers existed and stays so the committed
baselines keep matching.

A third bar covers the fast-row (column-major) order, which makes every
visit its own segment: a **cold 2048 x 2048 column-major power case**
(both modes through a fresh session) **under 100 ms**, recorded as
``paper-power-column-major-<size>-cold[flat]``.  The shape-compressed
segment walk makes its cost independent of the segment count.

Environment knobs:

* ``REPRO_BENCH_QUICK=1`` — 1024 x 1024 arrays for smoke jobs; the
  bars are asserted on the full tier only (the claims are about the
  paper-extrapolated geometries).
"""

from __future__ import annotations

import os
import statistics
import time

import pytest

from repro import TestSession
from repro.analysis import render_table
from repro.bist import BistController
from repro.march.library import get_algorithm
from repro.march.ordering import ColumnMajorOrder
from repro.sram import ArrayGeometry

#: Warm 4096 x 4096 PRR under 100 ms.
WARM_BUDGET_S = 0.1
#: Cold 4096 x 4096 PRR (first measurement) under 250 ms.
COLD_BUDGET_S = 0.25
#: Warm measurements; the entry records their median.
WARM_ROUNDS = 5
#: Cold 2048 x 2048 column-major power case under 100 ms.
COLD_POWER_BUDGET_S = 0.1

ALGORITHM = "March C-"


def _workload_geometry():
    if os.environ.get("REPRO_BENCH_QUICK"):
        return ArrayGeometry(rows=1024, columns=1024), "1024x1024", False
    return ArrayGeometry(rows=4096, columns=4096), "4096x4096", True


@pytest.mark.benchmark(group="kernel-tiers")
def test_prr_cold_and_warm_latency(benchmark, bench_record):
    geometry, label, enforce_budget = _workload_geometry()
    algorithm = get_algorithm(ALGORITHM)
    controller = BistController(geometry, backend="vectorized")

    # Cold: trace compilation + the first kernel pass and measurement.
    started = time.perf_counter()
    cold_functional = controller.run(algorithm, low_power=False)
    cold_low_power = controller.run(algorithm, low_power=True)
    cold_s = time.perf_counter() - started
    assert cold_functional.passed and cold_low_power.passed

    # Warm: the same full PRR measurement on populated caches.
    warm_times = []

    def run_warm():
        started = time.perf_counter()
        functional = controller.run(algorithm, low_power=False)
        low_power = controller.run(algorithm, low_power=True)
        warm_times.append(time.perf_counter() - started)
        return functional, low_power

    functional, low_power = benchmark.pedantic(
        run_warm, rounds=WARM_ROUNDS, iterations=1, warmup_rounds=0)
    warm_s = statistics.median(warm_times)
    assert functional.passed and low_power.passed
    assert functional.kernel == low_power.kernel == "flat"

    measured_prr = 1.0 - low_power.average_power / functional.average_power
    print()
    print(render_table(
        [{"Cold (s)": f"{cold_s:.3f}", "Warm (s)": f"{warm_s:.4f}",
          "PRR": f"{100.0 * measured_prr:.1f} %"}],
        title=f"{ALGORITHM} PRR @ {label} — flat kernel"))

    if enforce_budget:
        assert warm_s < WARM_BUDGET_S, (
            f"warm {label} PRR took {warm_s:.3f}s "
            f"(budget {WARM_BUDGET_S}s)")
        assert cold_s < COLD_BUDGET_S, (
            f"cold {label} PRR took {cold_s:.3f}s "
            f"(budget {COLD_BUDGET_S}s)")

    for phase, seconds in (("cold", cold_s), ("warm", warm_s)):
        bench_record(
            f"paper-prr-{label}-{phase}[flat]",
            wall_clock_s=seconds,
            cases=1,
            geometry=label,
            algorithm=ALGORITHM,
        )


def _power_geometry():
    if os.environ.get("REPRO_BENCH_QUICK"):
        return ArrayGeometry(rows=1024, columns=1024), "1024x1024", False
    return ArrayGeometry(rows=2048, columns=2048), "2048x2048", True


@pytest.mark.benchmark(group="kernel-tiers")
def test_column_major_power_cold_latency(bench_record):
    geometry, label, enforce_budget = _power_geometry()
    algorithm = get_algorithm(ALGORITHM)
    session = TestSession(geometry, order=ColumnMajorOrder(geometry),
                          backend="vectorized")

    # Cold: the order's row runs, the trace and its segment walk are all
    # built by this first comparison.
    started = time.perf_counter()
    comparison = session.compare_modes(algorithm)
    cold_s = time.perf_counter() - started
    low_power = comparison.low_power
    assert comparison.functional.passed and low_power.passed
    assert low_power.kernel == "flat"

    print()
    print(render_table(
        [{"Cold (s)": f"{cold_s:.4f}",
          "PRR": f"{100.0 * comparison.prr:.1f} %"}],
        title=f"{ALGORITHM} column-major power @ {label} — cold"))

    if enforce_budget:
        assert cold_s < COLD_POWER_BUDGET_S, (
            f"cold {label} column-major power took {cold_s:.3f}s "
            f"(budget {COLD_POWER_BUDGET_S}s)")
    bench_record(
        f"paper-power-column-major-{label}-cold[flat]",
        wall_clock_s=cold_s,
        cases=1,
        geometry=label,
        algorithm=ALGORITHM,
        order="column-major",
    )
