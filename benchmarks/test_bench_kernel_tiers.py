"""Experiment ``kernel_tiers`` — cold and warm PRR latency per kernel tier.

Two acceptance bars on a full 4096 x 4096 PRR measurement (both
operating modes through the BIST path):

* **warm under 100 ms** on every tier that can run here.  "Warm" means
  the controller's caches are populated — the compiled operation trace,
  the segment walk, the BIST order memo and (for ``kernel="jit"``)
  numba's on-disk function cache — exactly the steady state of a sweep
  evaluating many algorithms on one geometry;
* **cold under 250 ms** on the ``flat`` tier: the first measurement on a
  fresh controller, which compiles the trace and its segment walk from
  the row-major order's closed-form row runs.  The ``jit`` tier's cold
  time includes numba compilation, so the bar does not apply to it.

Each tier lands two entries in ``BENCH_<id>.json``:
``paper-prr-<size>-cold[<tier>]`` (the first measurement) and
``paper-prr-<size>-warm[<tier>]`` (the median of :data:`WARM_ROUNDS`
warm measurements), and ``check_regression.py`` gates each against its
own committed entry (like-for-like via the ``kernel`` field).

Environment knobs:

* ``REPRO_BENCH_QUICK=1`` — a 1024 x 1024 array for smoke jobs; both
  bars are asserted on the full tier only (the claims are about the
  paper-extrapolated 4096-row geometry).
"""

from __future__ import annotations

import os
import statistics
import time

import pytest

from repro.analysis import render_table
from repro.bist import BistController
from repro.march.library import get_algorithm
from repro.sram import ArrayGeometry

#: Warm 4096 x 4096 PRR under 100 ms, on every tier.
WARM_BUDGET_S = 0.1
#: Cold 4096 x 4096 PRR (first measurement) under 250 ms, flat tier only.
COLD_BUDGET_S = 0.25
#: Warm measurements per tier; the entry records their median.
WARM_ROUNDS = 5

ALGORITHM = "March C-"


def _tiers():
    """Every tier that can execute a PRR campaign here, fastest-first.

    The segmented kernel is excluded: it is the differential oracle (a
    chunked Python loop), not a performance tier, and the <100 ms bar is
    not a claim about it.
    """
    from repro.engine import available_kernels

    return tuple(tier for tier in available_kernels()
                 if tier != "segmented")


def _workload_geometry():
    if os.environ.get("REPRO_BENCH_QUICK"):
        return ArrayGeometry(rows=1024, columns=1024), "1024x1024", False
    return ArrayGeometry(rows=4096, columns=4096), "4096x4096", True


@pytest.mark.benchmark(group="kernel-tiers")
@pytest.mark.parametrize("tier", _tiers())
def test_prr_warm_latency_per_tier(benchmark, bench_record, tier):
    geometry, label, enforce_budget = _workload_geometry()
    algorithm = get_algorithm(ALGORITHM)
    controller = BistController(geometry, backend="vectorized", kernel=tier)

    # Cold: trace compilation + first kernel pass (for jit, loading or
    # building numba's cached machine code) + the first measurement.
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
    # Truthful tier provenance on the results themselves.
    assert functional.kernel in {tier, "flat"}

    measured_prr = 1.0 - low_power.average_power / functional.average_power
    print()
    print(render_table(
        [{"Tier": tier, "Cold (s)": f"{cold_s:.3f}",
          "Warm (s)": f"{warm_s:.4f}",
          "PRR": f"{100.0 * measured_prr:.1f} %",
          "Ran on": functional.kernel}],
        title=f"{ALGORITHM} PRR @ {label} — kernel tier {tier!r}"))

    if enforce_budget:
        assert warm_s < WARM_BUDGET_S, (
            f"warm {label} PRR on tier {tier!r} took {warm_s:.3f}s "
            f"(budget {WARM_BUDGET_S}s)")
        if tier == "flat":
            assert cold_s < COLD_BUDGET_S, (
                f"cold {label} PRR on tier {tier!r} took {cold_s:.3f}s "
                f"(budget {COLD_BUDGET_S}s)")

    for phase, seconds in (("cold", cold_s), ("warm", warm_s)):
        bench_record(
            f"paper-prr-{label}-{phase}[{tier}]",
            wall_clock_s=seconds,
            cases=1,
            geometry=label,
            kernel=functional.kernel,   # the tier that actually executed
            requested_kernel=tier,
            algorithm=ALGORITHM,
        )
