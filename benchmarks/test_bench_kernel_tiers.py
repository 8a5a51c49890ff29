"""Experiment ``kernel_tiers`` — warm PRR latency per kernel tier at scale.

The compiled-tier series' acceptance bar: a full 4096 x 4096 PRR
measurement (both operating modes through the BIST path — the workload
that took ~2 s per case before this series) completes in **under 100 ms
warm** on every tier that can run here.  "Warm" means the controller's
caches are populated — the compiled operation trace, the segment walk,
the BIST order memo and (for ``kernel="jit"``) numba's on-disk function
cache — exactly the steady state of a sweep evaluating many algorithms on
one geometry.

One entry per available tier lands in ``BENCH_<id>.json`` (workload
``paper-prr-4096x4096-warm[<tier>]``) with the cold first measurement as
its ``baseline_s``, so the committed trajectory records the per-tier
cold/warm trajectory and ``check_regression.py`` gates each tier against
its own committed baseline (like-for-like via the ``kernel`` field).

Environment knobs:

* ``REPRO_BENCH_QUICK=1`` — a 1024 x 1024 array for smoke jobs; the
  <100 ms bar is asserted on the full tier only (the claim is about the
  paper-extrapolated 4096-row geometry).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.analysis import render_table
from repro.bist import BistController
from repro.march.library import get_algorithm
from repro.sram import ArrayGeometry

#: The tentpole acceptance bar: warm 4096 x 4096 PRR under 100 ms.
WARM_BUDGET_S = 0.1

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
def test_prr_warm_latency_per_tier(benchmark, once, bench_record, tier):
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
    timing = {}

    def run_warm():
        started = time.perf_counter()
        functional = controller.run(algorithm, low_power=False)
        low_power = controller.run(algorithm, low_power=True)
        timing["warm"] = time.perf_counter() - started
        return functional, low_power

    functional, low_power = once(benchmark, run_warm)
    warm_s = timing["warm"]
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

    bench_record(
        f"paper-prr-{label}-warm[{tier}]",
        wall_clock_s=warm_s,
        baseline_s=cold_s,
        speedup=cold_s / warm_s if warm_s > 0 else None,
        cases=1,
        geometry=label,
        kernel=functional.kernel,   # the tier that actually executed
        requested_kernel=tier,
        algorithm=ALGORITHM,
    )
