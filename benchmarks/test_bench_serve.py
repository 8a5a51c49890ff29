"""Experiment ``serve-trace-replay`` — the campaign service under load.

Replays the committed duplicate-heavy synthetic workload trace
(``benchmarks/data/serve_trace.jsonl``: 120 requests over 14 distinct
case fingerprints, Zipf-ish hot-case mix) against a live
:class:`repro.serve.CampaignService` and measures the two claims the
serving layer makes:

* **dedup + coalescing** — however the duplicate burst interleaves,
  each distinct case reaches the engine exactly once (asserted from the
  service's own recorded trace: one ``miss`` per digest, everything
  else served as ``hit``/``coalesced``);
* **cached-hit latency** — a second full pass over the trace is served
  entirely from the content-addressed cache with a mean per-request
  service latency under :data:`HIT_LATENCY_BUDGET_MS`.

Both passes land in ``BENCH_<id>.json``: ``serve-trace-replay`` (cold
pass wall clock) and ``serve-cache-hit`` (hot pass wall clock, with the
mean/max hit latency as extra fields) — the committed trajectory CI
gates with ``benchmarks/check_regression.py``.
"""

from __future__ import annotations

import statistics
from pathlib import Path

import pytest

from repro.serve import ServeClient, load_trace, replay, replay_cases, running_service

#: The committed synthetic workload this benchmark replays.
TRACE_PATH = Path(__file__).parent / "data" / "serve_trace.jsonl"
#: Acceptance bar on the mean service-side latency of a cached hit.
HIT_LATENCY_BUDGET_MS = 10.0
#: Client fan-out while replaying (duplicate-heavy: exercises coalescing).
REPLAY_CONCURRENCY = 8


@pytest.mark.benchmark(group="serve")
def test_trace_replay_executes_each_distinct_case_once(benchmark, once,
                                                       bench_record,
                                                       tmp_path):
    cases = list(replay_cases(TRACE_PATH))
    distinct = {line["digest"] for line in load_trace(TRACE_PATH)}
    assert len(cases) >= 100 and len(distinct) <= 20  # the committed shape

    with running_service(tmp_path / "cache",
                         trace_path=tmp_path / "trace.jsonl") \
            as (service, host, port):
        # --- cold pass: every request is a miss, hit or coalesced ------
        responses = once(benchmark, lambda: replay(
            host, port, cases, concurrency=REPLAY_CONCURRENCY))
        stats = service.stats_snapshot()

        # --- hot pass: the cache now holds every distinct case ---------
        with ServeClient(host, port) as client:
            hot = [client.submit(case) for case in cases]
        hot_stats = service.stats_snapshot()

    assert len(responses) == len(cases)
    assert stats["errors"] == 0
    assert stats["refused"] == 0  # a burst of 8 clients stays under the bound

    # Dedup claim, from the service's own trace: however the burst
    # interleaved, each distinct digest missed exactly once...
    served = load_trace(tmp_path / "trace.jsonl")[:len(cases)]
    misses = [line["digest"] for line in served if line["outcome"] == "miss"]
    assert sorted(misses) == sorted(distinct)
    # ...and the engine executed exactly that set, nothing twice.
    assert stats["executed_cases"] == len(distinct)
    assert stats["engine_passes"] <= len(distinct)

    # Hot-pass claim: pure cache hits, no engine, under the latency bar.
    assert [r["served"]["outcome"] for r in hot] == ["hit"] * len(cases)
    assert hot_stats["engine_passes"] == stats["engine_passes"]
    hit_ms = [r["served"]["latency_ms"] for r in hot]
    mean_ms = statistics.fmean(hit_ms)
    assert mean_ms < HIT_LATENCY_BUDGET_MS, \
        f"mean cached-hit latency {mean_ms:.3f}ms >= {HIT_LATENCY_BUDGET_MS}ms"

    cold_s = benchmark.stats.stats.mean
    bench_record("serve-trace-replay", wall_clock_s=cold_s,
                 cases=len(cases), distinct=len(distinct),
                 engine_passes=stats["engine_passes"],
                 coalesced=stats["coalesced"], hits=stats["hits"])
    bench_record("serve-cache-hit", wall_clock_s=mean_ms / 1000.0,
                 cases=len(cases), hit_mean_ms=round(mean_ms, 3),
                 hit_max_ms=round(max(hit_ms), 3),
                 budget_ms=HIT_LATENCY_BUDGET_MS)

    print(f"\n[serve] cold replay: {len(cases)} requests "
          f"({len(distinct)} distinct) in {cold_s:.3f}s — "
          f"{stats['engine_passes']} engine pass(es), "
          f"{stats['hits']} hits, {stats['coalesced']} coalesced")
    print(f"[serve] hot replay: mean hit {mean_ms:.3f}ms, "
          f"max {max(hit_ms):.3f}ms (budget {HIT_LATENCY_BUDGET_MS}ms)")
