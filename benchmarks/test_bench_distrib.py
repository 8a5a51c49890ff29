"""Experiment ``distributed-paper-grid[workers=N]`` — scale-out with a
mid-campaign worker kill.

Runs the same campaign grid twice through :mod:`repro.distrib`:

* ``workers=1`` — one worker subprocess drains every lease (the scale-out
  baseline; this is the ordinary journaled sweep plus ledger overhead);
* ``workers=4`` — four worker subprocesses work-steal from the shared
  ledger, and the benchmark SIGKILLs the first worker mid-lease to price
  in fault recovery, not just the happy path.

Always asserted, both tiers: the killed worker's chunk is re-leased
(generation bump recorded in the lease's steal audit), the merged
artifact is complete and grid-verified, and **no case executed twice**
(counted from journal digests across every shard — journal entries are
appends per execution, so the count is the audit).

The ``>= 3x`` speedup claim is asserted only on hardware that can
deliver it (``os.cpu_count() >= 4``) and only at the full tier, where
the grid is >= 10^4 cases and worker start-up is amortised; the measured
ratio is recorded unconditionally so the committed trajectory documents
what this machine achieved (``cpus`` rides along for interpretation).

Both entries land in ``BENCH_<id>.json`` and are gated by
``benchmarks/check_regression.py --workload distributed-paper-grid``.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.distrib import Coordinator, spawn_worker
from repro.sweep import fingerprint_digest, load_journal, sweep_grid

#: Table 1's five algorithms — the paper's workload mix.
ALGORITHMS = ("MATS+", "March C-", "March SS", "March SR", "March G")
#: Quick tier: small grid, worker start-up dominates (correctness smoke).
QUICK_GEOMETRIES = tuple(f"{rows}x{cols}"
                         for rows in (8, 16, 24, 32)
                         for cols in (8, 16, 24, 32))
#: Full tier: >= 10^4 cases (19 x 19 geometries x 5 algorithms x
#: 2 orders x 3 bank counts = 10830), the acceptance campaign scale.  Only
#: the two orders the vectorized low-power kernel replays exactly —
#: pseudo-random orders would surface ``UnsupportedConfiguration`` under
#: ``backend="vectorized"``.
FULL_GEOMETRIES = tuple(f"{rows}x{cols}"
                        for rows in range(4, 80, 4)
                        for cols in range(4, 80, 4))
#: Scale-out bar asserted when the hardware can express it at all.
SPEEDUP_BAR = 3.0


def _campaign_cases(full_tier):
    if full_tier:
        return sweep_grid(FULL_GEOMETRIES, ALGORITHMS,
                          orders=("row-major", "column-major"),
                          backends=("vectorized",), banks=(1, 2, 4))
    return sweep_grid(QUICK_GEOMETRIES, ALGORITHMS[:3],
                      orders=("row-major", "column-major"),
                      backends=("vectorized",))


def _execution_counts(ledger):
    """Executions per distinct case, across every shard journal."""
    counts = {}
    for journal in sorted(ledger.journal_dir.glob("*.jsonl")):
        for entry in load_journal(journal):
            digest = fingerprint_digest(entry.case)
            counts[digest] = counts.get(digest, 0) + 1
    return counts


def _wait_all(processes, timeout):
    deadline = time.time() + timeout
    for process in processes:
        remaining = max(1.0, deadline - time.time())
        assert process.wait(timeout=remaining) == 0, \
            f"worker exited {process.returncode}"


def _run_single(root, cases, lease_timeout):
    coordinator = Coordinator.create(root, cases, workers=1)
    worker = spawn_worker(root, worker_id="solo",
                          lease_timeout=lease_timeout)
    _wait_all([worker], timeout=3600)
    return coordinator


def _run_four_with_kill(root, cases, lease_timeout):
    """Victim first (killed mid-lease), then three stealing survivors."""
    coordinator = Coordinator.create(root, cases, workers=4)
    ledger = coordinator.ledger
    # The victim journals each case of a stack group as the group's pass
    # yields it, so durable entries appear while its lease is still
    # claimed — the window in which the SIGKILL must land for the steal
    # to have anything to recover.
    victim = spawn_worker(root, worker_id="victim",
                          lease_timeout=lease_timeout)
    try:
        deadline = time.time() + 600
        while time.time() < deadline:
            claimed = [lease for lease in ledger.leases()
                       if lease.state == "claimed"
                       and lease.worker == "victim"]
            if claimed and any(
                    ledger.journal_path(lease.lease_id).exists()
                    and load_journal(ledger.journal_path(lease.lease_id))
                    for lease in claimed):
                break
            time.sleep(0.01)
        else:
            pytest.fail("victim never journaled inside a claimed lease")
        os.kill(victim.pid, signal.SIGKILL)
    finally:
        victim.wait(timeout=60)
    survivors = [spawn_worker(root, worker_id=f"survivor{number}",
                              lease_timeout=lease_timeout)
                 for number in range(3)]
    _wait_all(survivors, timeout=3600)
    return coordinator


@pytest.mark.benchmark(group="distrib")
def test_distributed_paper_grid_scaleout(benchmark, once, bench_record,
                                         tmp_path):
    full_tier = bool(os.environ.get("REPRO_BENCH_FULL"))
    cases = _campaign_cases(full_tier)
    if full_tier:
        assert len(cases) >= 10_000  # the acceptance campaign scale
    lease_timeout = 5.0 if full_tier else 1.0
    tier = "full" if full_tier else "quick"

    # --- workers=1 baseline --------------------------------------------
    start = time.perf_counter()
    single = _run_single(tmp_path / "solo", cases, lease_timeout)
    single_s = time.perf_counter() - start
    assert single.status()["complete"] is True
    assert single.merge().complete is True

    # --- workers=4, one SIGKILLed mid-lease (the benchmark proper) -----
    coordinator = once(benchmark, lambda: _run_four_with_kill(
        tmp_path / "fleet", cases, lease_timeout))
    four_s = benchmark.stats.stats.mean

    status = coordinator.status()
    assert status["complete"] is True
    assert status["steals"] >= 1, "the SIGKILL never forced a steal"
    stolen = [lease for lease in coordinator.ledger.leases()
              if lease.steals]
    assert all(lease.state == "done" and lease.generation >= 2
               for lease in stolen)
    assert any(record["worker"] == "victim"
               for lease in stolen for record in lease.steals)

    report = coordinator.merge()
    assert report.complete is True
    assert report.cases == len(cases)
    counts = _execution_counts(coordinator.ledger)
    assert len(counts) == len(cases)
    assert set(counts.values()) == {1}, "a case executed twice"

    speedup = single_s / four_s
    cpus = os.cpu_count() or 1
    if full_tier and cpus >= 4:
        assert speedup >= SPEEDUP_BAR, \
            f"{speedup:.2f}x < {SPEEDUP_BAR}x on {cpus} CPUs"

    bench_record("distributed-paper-grid[workers=1]",
                 wall_clock_s=single_s, cases=len(cases),
                 workers=1, tier=tier, cpus=cpus)
    bench_record("distributed-paper-grid[workers=4]",
                 wall_clock_s=four_s, cases=len(cases),
                 workers=4, tier=tier, cpus=cpus,
                 baseline_s=single_s, speedup=speedup,
                 killed=1, steals=status["steals"],
                 leases=status["leases"])
    print(f"\n[distrib] {tier} tier: {len(cases)} cases — "
          f"workers=1 {single_s:.2f}s, workers=4 (one SIGKILLed) "
          f"{four_s:.2f}s, speedup {speedup:.2f}x on {cpus} CPU(s), "
          f"{status['steals']} steal(s), merged artifact verified")


@pytest.mark.benchmark(group="distrib")
def test_merge_throughput(benchmark, once, bench_record, tmp_path):
    """``journal merge`` itself must stay cheap next to the campaign."""
    cases = _campaign_cases(full_tier=False)
    coordinator = _run_single(tmp_path / "camp", cases, lease_timeout=1.0)
    report = once(benchmark, lambda: coordinator.merge())
    merge_s = benchmark.stats.stats.mean
    assert report.complete is True
    bench_record("distributed-merge", wall_clock_s=merge_s,
                 cases=len(cases),
                 shards=len(list(
                     coordinator.ledger.journal_dir.glob("*.jsonl"))))
    print(f"\n[distrib] merge: {len(cases)} cases from "
          f"{len(list(coordinator.ledger.journal_dir.glob('*.jsonl')))} "
          f"shards in {merge_s * 1000:.1f}ms")
