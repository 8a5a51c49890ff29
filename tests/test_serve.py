"""The campaign serving layer (repro.serve).

Covers the content-addressed result cache (atomic stores, torn/foreign
entries read as misses), the replayable workload trace (torn-tail
tolerance mirroring the run journal), the fingerprint digest / case
round-trip seam the cache key is built on, and the live service: miss →
hit, duplicate concurrent requests coalescing into one engine pass,
cache survival across restarts, self-healing after a torn cache write,
natural batching (dispatch while a thread is idle, pool while all are
busy), the pending bound's 429, the hit path (a repeated body is neither
validated nor hashed again, and every reply is the bytes of its sorted
payload, encoded from the entry the cache holds now), and the JSON/HTTP
protocol's error mapping, the body bound included.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import logging
import os
import socket
import subprocess
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.serve import (
    CampaignService,
    ResultCache,
    ServeClient,
    ServeError,
    ServiceThread,
    TraceError,
    WorkloadTrace,
    load_trace,
    replay,
    replay_cases,
    running_service,
)
from repro.sweep import (
    CoverageCase,
    PrrCase,
    SweepCase,
    SweepError,
    case_fingerprint,
    case_from_dict,
    execute_case,
    fingerprint_digest,
)


def _power_case(**overrides):
    payload = {"kind": "power", "rows": 8, "columns": 8,
               "algorithm": "MATS+", "order": "row-major",
               "backend": "vectorized"}
    payload.update(overrides)
    return payload


def _prr_case(**overrides):
    payload = {"kind": "prr", "rows": 8, "columns": 64,
               "algorithm": "MATS+", "backend": "vectorized"}
    payload.update(overrides)
    return payload


def _drop_elapsed(record):
    return {key: value for key, value in record.items() if key != "elapsed_s"}


# ----------------------------------------------------------------------
# Fingerprints and the case round-trip
# ----------------------------------------------------------------------
def test_case_from_dict_inverts_case_fingerprint():
    cases = [
        SweepCase(rows=8, columns=8, algorithm="MATS+"),
        CoverageCase(rows=8, columns=8, algorithm="MATS+",
                     include_coupling=False, sample=2, seed=7),
        PrrCase(rows=8, columns=64, algorithm="MATS+", backend="vectorized"),
    ]
    for case in cases:
        rebuilt = case_from_dict(case_fingerprint(case))
        assert rebuilt == case
        assert case_fingerprint(rebuilt) == case_fingerprint(case)


def test_case_from_dict_defaults_to_power_kind():
    data = _power_case()
    del data["kind"]
    assert isinstance(case_from_dict(data), SweepCase)


def test_case_from_dict_rejects_bad_input():
    with pytest.raises(SweepError, match="unknown case kind"):
        case_from_dict({"kind": "nope"})
    with pytest.raises(SweepError, match="unknown field"):
        case_from_dict(_power_case(surprise=1))
    with pytest.raises(SweepError, match="invalid 'power' case"):
        case_from_dict({"kind": "power", "rows": 8})  # missing fields
    with pytest.raises(SweepError, match="must be a JSON object"):
        case_from_dict(["not", "a", "dict"])
    with pytest.raises(SweepError, match="unknown address order"):
        case_from_dict(_power_case(order="zigzag"))


def test_fingerprint_digest_is_canonical():
    fingerprint = case_fingerprint(case_from_dict(_prr_case()))
    shuffled = dict(reversed(list(fingerprint.items())))
    assert fingerprint_digest(fingerprint) == fingerprint_digest(shuffled)
    other = case_fingerprint(case_from_dict(_prr_case(rows=16)))
    assert fingerprint_digest(fingerprint) != fingerprint_digest(other)


def test_committed_trace_digests_are_pinned():
    # Every request of the committed workload trace keeps its recorded
    # digest: a field leaking into (or out of) a case's fingerprint would
    # silently re-address journals and the serve cache.
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "data" \
        / "serve_trace.jsonl"
    entries = load_trace(path)
    assert len(entries) == 120
    assert Counter(entry["kind"] for entry in entries) == \
        {"power": 90, "prr": 23, "coverage": 7}
    for entry in entries:
        case = case_from_dict(entry["case"])
        assert fingerprint_digest(case_fingerprint(case)) == entry["digest"]


# ----------------------------------------------------------------------
# Result cache: atomic stores, defensive reads
# ----------------------------------------------------------------------
def test_cache_store_and_get_round_trip(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    fingerprint = case_fingerprint(case_from_dict(_power_case()))
    digest = fingerprint_digest(fingerprint)
    assert cache.get(digest) is None
    cache.store(digest, fingerprint, "power", {"total_energy": 1.5})
    entry = cache.get(digest)
    assert entry["record"] == {"total_energy": 1.5}
    assert entry["fingerprint"] == fingerprint
    assert entry["kind"] == "power"
    assert len(cache) == 1
    # The fan-out layout: two-hex prefix directory, digest-named file.
    assert cache.path_for(digest).parent.name == digest[:2]


def test_cache_torn_or_foreign_entries_read_as_misses(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    digest = "ab" + "0" * 62
    path = cache.path_for(digest)
    path.parent.mkdir(parents=True)
    # Torn final write (kill mid-store on a non-atomic filesystem).
    path.write_text('{"format": "repro-serve-cache", "version": 1, "rec')
    assert cache.get(digest) is None
    # Foreign/meaningless content.
    path.write_text('{"format": "something-else", "version": 1}')
    assert cache.get(digest) is None
    path.write_text("[1, 2, 3]")
    assert cache.get(digest) is None
    # A later store heals the slot.
    cache.store(digest, {"kind": "power"}, "power", {"x": 1})
    assert cache.get(digest)["record"] == {"x": 1}


# ----------------------------------------------------------------------
# Result cache: size-capped LRU eviction
# ----------------------------------------------------------------------
def _digest(n):
    return f"{n:02x}" + "0" * 62


def _fill(cache, n, record=None):
    digest = _digest(n)
    cache.store(digest, {"kind": "power", "n": n}, "power",
                record or {"n": n})
    return digest


def test_cache_lru_eviction_by_entry_count(tmp_path):
    cache = ResultCache(tmp_path / "cache", max_entries=2)
    first, second, third = (_fill(cache, n) for n in range(3))
    # Oldest store is the victim; the two most recent survive.
    assert cache.get(first) is None
    assert cache.get(second) is not None
    assert cache.get(third) is not None
    assert len(cache) == 2
    assert cache.evictions == 1
    stats = cache.stats()
    assert stats["entries"] == 2
    assert stats["max_entries"] == 2
    assert stats["evictions"] == 1


def test_cache_lru_hit_refreshes_recency(tmp_path):
    cache = ResultCache(tmp_path / "cache", max_entries=2)
    first = _fill(cache, 1)
    second = _fill(cache, 2)
    assert cache.get(first) is not None  # refresh: first is now newest
    third = _fill(cache, 3)
    assert cache.get(second) is None     # second became the LRU victim
    assert cache.get(first) is not None
    assert cache.get(third) is not None


def test_cache_restore_same_digest_does_not_double_count(tmp_path):
    cache = ResultCache(tmp_path / "cache", max_entries=2)
    first = _fill(cache, 1)
    _fill(cache, 1, record={"n": 1, "rewritten": True})  # same digest
    second = _fill(cache, 2)
    assert cache.evictions == 0
    assert cache.get(first)["record"] == {"n": 1, "rewritten": True}
    assert cache.get(second) is not None


def test_cache_max_bytes_eviction(tmp_path):
    probe = ResultCache(tmp_path / "probe")
    entry_size = len(json.dumps(
        probe.store(_digest(0), {"kind": "power", "n": 0}, "power",
                    {"n": 0}), sort_keys=True))
    cache = ResultCache(tmp_path / "cache",
                        max_bytes=entry_size * 2 + entry_size // 2)
    first, second, third = (_fill(cache, n) for n in range(3))
    assert cache.get(first) is None
    assert cache.get(second) is not None and cache.get(third) is not None
    assert cache.stats()["bytes"] <= cache.max_bytes


def test_cache_lru_order_survives_a_restart(tmp_path):
    import os as _os

    root = tmp_path / "cache"
    writer = ResultCache(root)  # unbounded: no index, just files
    digests = [_fill(writer, n) for n in range(3)]
    # Pin distinct mtimes (filesystem timestamp granularity is coarser
    # than this test): oldest first, newest last.
    for age, digest in enumerate(digests):
        _os.utime(writer.path_for(digest), (1000 + age, 1000 + age))
    restarted = ResultCache(root, max_entries=3)
    _fill(restarted, 3)  # over capacity: evicts the mtime-oldest entry
    assert restarted.get(digests[0]) is None
    assert all(restarted.get(d) is not None for d in digests[1:])


def test_cache_unbounded_never_evicts(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    for n in range(5):
        _fill(cache, n)
    assert len(cache) == 5
    assert cache.evictions == 0
    stats = cache.stats()
    assert stats["max_entries"] is None and stats["max_bytes"] is None
    assert stats["entries"] == 5 and stats["bytes"] > 0


def test_cache_rejects_nonpositive_caps(tmp_path):
    with pytest.raises(ValueError, match="max_entries"):
        ResultCache(tmp_path / "cache", max_entries=0)
    with pytest.raises(ValueError, match="max_bytes"):
        ResultCache(tmp_path / "cache", max_bytes=0)


# ----------------------------------------------------------------------
# Result cache: the in-memory tier
# ----------------------------------------------------------------------
@pytest.mark.parametrize("max_entries", [None, 4])
def test_cache_memory_tier_outlives_its_file_but_not_a_restart(
        tmp_path, max_entries):
    root = tmp_path / "cache"
    digest = _fill(ResultCache(root), 1)
    cache = ResultCache(root, max_entries=max_entries)
    entry = cache.get(digest)  # read from disk, then kept in memory
    assert entry["record"] == {"n": 1} and cache.memory_hits == 0
    cache.path_for(digest).write_text('{"format": "repro-serve-cache", "ver')
    assert cache.get(digest) is entry
    assert ResultCache(root, max_entries=max_entries).get(digest) is None
    cache.path_for(digest).unlink()
    assert cache.get(digest) is entry
    assert ResultCache(root, max_entries=max_entries).get(digest) is None
    assert cache.memory_hits == 2


def test_cache_memory_tier_is_bounded(tmp_path, monkeypatch):
    monkeypatch.setattr("repro.serve.cache.MEMORY_ENTRIES", 2)
    cache = ResultCache(tmp_path / "cache")
    first, second, third = (_fill(cache, n) for n in range(3))
    assert cache.stats()["memory_entries"] == 2
    assert cache.get(first)["record"] == {"n": 0}  # out of memory: disk
    assert cache.memory_hits == 0
    assert cache.get(third)["record"] == {"n": 2}
    assert cache.memory_hits == 1
    assert cache.get(second)["record"] == {"n": 1}  # pushed out by first
    assert cache.memory_hits == 1
    stats = cache.stats()
    assert stats["memory_entries"] == 2 and stats["memory_hits"] == 1


def test_cache_entry_evicted_while_read_is_served_but_not_kept(
        tmp_path, monkeypatch):
    root = tmp_path / "cache"
    first = _fill(ResultCache(root), 0)  # on disk, not in this memory
    cache = ResultCache(root, max_entries=2)
    read = cache._read

    def read_then_evict(digest):
        entry = read(digest)
        _fill(cache, 1)
        _fill(cache, 2)  # over the cap: first, the oldest, is unlinked
        return entry

    monkeypatch.setattr(cache, "_read", read_then_evict)
    assert cache.get(first)["record"] == {"n": 0}
    monkeypatch.undo()
    assert not cache.path_for(first).exists()
    assert cache.get(first) is None


def test_cache_read_racing_a_store_keeps_the_stored_entry(tmp_path,
                                                          monkeypatch):
    root = tmp_path / "cache"
    digest = _fill(ResultCache(root), 0)
    cache = ResultCache(root)
    read = cache._read

    def read_then_store(wanted):
        entry = read(wanted)
        _fill(cache, 0, record={"n": 0, "rewritten": True})
        return entry

    monkeypatch.setattr(cache, "_read", read_then_store)
    assert cache.get(digest)["record"] == {"n": 0}  # what it read
    monkeypatch.undo()
    assert cache.get(digest)["record"] == {"n": 0, "rewritten": True}
    assert cache.memory_hits == 1


def test_cache_restore_evicted_while_written_is_not_kept(tmp_path,
                                                         monkeypatch):
    import repro.serve.cache as cache_module

    cache = ResultCache(tmp_path / "cache", max_entries=2)
    first = _fill(cache, 0)
    _fill(cache, 1)
    write = cache_module.atomic_write_text
    restoring = []

    def write_then_evict(path, text):
        write(path, text)
        if path == cache.path_for(first) and not restoring:
            restoring.append(path)
            _fill(cache, 2)  # first is the LRU entry: its new file goes

    monkeypatch.setattr(cache_module, "atomic_write_text", write_then_evict)
    _fill(cache, 0, record={"n": 0, "rewritten": True})
    assert restoring and not cache.path_for(first).exists()
    assert cache.get(first) is None
    assert cache.stats()["entries"] == 2


def test_cache_memory_tier_stays_in_step_with_disk_under_threads(
        tmp_path, monkeypatch):
    # Stores run on pool threads while the loop thread reads: memory must
    # never keep an entry that eviction took off disk, and no reader may
    # see another digest's record.
    import random

    monkeypatch.setattr("repro.serve.cache.MEMORY_ENTRIES", 5)
    root = tmp_path / "cache"
    cache = ResultCache(root, max_entries=8)
    digests = [_digest(n) for n in range(20)]
    wrong = []

    def work(seed):
        rng = random.Random(seed)
        try:
            for _ in range(80):
                n = rng.randrange(len(digests))
                if rng.random() < 0.3:
                    _fill(cache, n)
                else:
                    entry = cache.get(digests[n])
                    if entry is not None and entry["record"] != {"n": n}:
                        wrong.append((n, entry["record"]))
        except Exception as exc:  # noqa: BLE001 - surfaced by the assert
            wrong.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,))
                   for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    on_disk = {path.stem for path in root.glob("??/*.json")}
    stats = cache.stats()
    assert stats["entries"] == len(on_disk) <= 8
    assert stats["memory_entries"] <= 5
    for n, digest in enumerate(digests):
        entry = cache.get(digest)
        if digest in on_disk:
            assert entry["record"] == {"n": n}
        else:
            assert entry is None, n  # evicted from disk, so from memory


def test_service_surfaces_cache_stats_and_evicts(tmp_path):
    with running_service(tmp_path / "cache", cache_max_entries=2) \
            as (service, host, port):
        with ServeClient(host, port) as client:
            for rows in (8, 16, 32):
                client.submit(_power_case(rows=rows))
            stats = client.stats()
    cache_stats = stats["cache"]
    assert cache_stats["max_entries"] == 2
    assert cache_stats["entries"] == 2
    assert cache_stats["evictions"] == 1
    assert len(service.cache) == 2


def test_serve_cli_cache_flags(tmp_path):
    from repro.serve.__main__ import build_parser, main as serve_main

    args = build_parser().parse_args(
        ["--cache-max-entries", "100", "--cache-max-bytes", "1048576"])
    assert args.cache_max_entries == 100
    assert args.cache_max_bytes == 1048576
    assert build_parser().parse_args([]).cache_max_entries is None
    assert serve_main(["--cache-max-entries", "0"]) == 2
    assert serve_main(["--cache-max-bytes", "-5"]) == 2


def test_serve_cli_rejects_a_port_outside_the_tcp_range(capsys):
    from repro.serve.__main__ import main as serve_main

    for port in ("70000", "65536", "-1"):
        assert serve_main(["--port", port]) == 2
        assert "--port" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Workload trace: append, load, torn tail
# ----------------------------------------------------------------------
def test_trace_round_trip_and_replay(tmp_path):
    path = tmp_path / "trace.jsonl"
    case = case_fingerprint(case_from_dict(_power_case()))
    with WorkloadTrace(path) as trace:
        trace.record("d1", "power", case, "miss", 12.5)
        trace.record("d1", "power", case, "hit", 0.2)
    requests = load_trace(path)
    assert [r["outcome"] for r in requests] == ["miss", "hit"]
    assert [r["seq"] for r in requests] == [0, 1]
    assert requests[0]["case"] == case
    assert requests[0]["arrival_s"] <= requests[1]["arrival_s"]
    assert list(replay_cases(path)) == [case, case]


def test_trace_drops_a_torn_tail_but_rejects_foreign_content(tmp_path):
    path = tmp_path / "trace.jsonl"
    with WorkloadTrace(path) as trace:
        trace.record("d1", "power", {}, "miss", 1.0)
    with path.open("a") as handle:
        handle.write('{"arrival_s": 3.14, "case"')  # kill mid-append
    assert len(load_trace(path)) == 1
    path.write_text('{"arrival_s": 1.0, "bogus": true}\n{"not-a-trace')
    with pytest.raises(TraceError):
        load_trace(path)
    path.write_text("complete garbage\n")
    with pytest.raises(TraceError):
        load_trace(path)
    assert load_trace(tmp_path / "missing.jsonl") == []


def test_service_refuses_a_foreign_trace_before_it_serves(tmp_path):
    # The trace opens when the service starts, so a file that is not a
    # trace fails the start instead of every request, and stays whole.
    path = tmp_path / "notes.jsonl"
    path.write_text("first line\n{\"not\": \"a trace\"}")
    service = CampaignService(tmp_path / "cache", trace_path=path)
    thread = ServiceThread(service)
    with pytest.raises(TraceError, match="unrecognised content"):
        thread.start()
    thread.stop()
    assert path.read_text() == "first line\n{\"not\": \"a trace\"}"
    assert service.port is None


def test_trace_reopened_on_a_torn_tail_keeps_both_sessions(tmp_path):
    # A service killed mid-append leaves a torn fragment; the next
    # session's first line must not join it, or the trace never loads.
    path = tmp_path / "trace.jsonl"
    with WorkloadTrace(path) as trace:
        trace.record("d1", "power", {}, "miss", 1.0)
    with path.open("a") as handle:
        handle.write('{"arrival_s": 3.14, "case"')  # kill mid-append
    with WorkloadTrace(path) as trace:
        trace.record("d2", "prr", {}, "hit", 0.5)
    requests = load_trace(path)
    assert [(r["digest"], r["outcome"]) for r in requests] == \
        [("d1", "miss"), ("d2", "hit")]
    assert path.read_bytes().endswith(b"}\n")


# ----------------------------------------------------------------------
# The live service
# ----------------------------------------------------------------------
def test_serve_miss_then_hit_and_record_fidelity(tmp_path):
    case = _prr_case()
    with running_service(tmp_path / "cache",
                         trace_path=tmp_path / "trace.jsonl") \
            as (service, host, port):
        with ServeClient(host, port) as client:
            first = client.submit(case)
            second = client.submit(case)
    assert first["served"]["outcome"] == "miss"
    assert second["served"]["outcome"] == "hit"
    assert first["kind"] == second["kind"] == "prr"
    assert first["served"]["digest"] == second["served"]["digest"] == \
        fingerprint_digest(case_fingerprint(case_from_dict(case)))
    # The served record is exactly what a local execution measures
    # (elapsed_s is a wall-clock observation, everything else pinned).
    local = execute_case(case_from_dict(case))
    assert _drop_elapsed(second["record"]) == _drop_elapsed(local.as_dict())
    outcomes = [r["outcome"] for r in load_trace(tmp_path / "trace.jsonl")]
    assert outcomes == ["miss", "hit"]


def test_duplicate_concurrent_requests_share_one_engine_pass(tmp_path):
    case = _power_case()
    duplicates = 8
    with running_service(tmp_path / "cache") as (service, host, port):
        responses = replay(host, port, [case] * duplicates,
                           concurrency=duplicates)
        stats = service.stats_snapshot()
    assert len(responses) == duplicates
    # Identical responses for every duplicate (modulo how each was served).
    records = [json.dumps(r["record"], sort_keys=True) for r in responses]
    assert len(set(records)) == 1
    # The engine ran the scenario exactly once, in exactly one wave.
    assert stats["engine_passes"] == 1
    assert stats["executed_cases"] == 1
    assert stats["misses"] == 1
    assert stats["coalesced"] + stats["hits"] == duplicates - 1
    assert stats["requests"] == duplicates
    assert stats["errors"] == 0


def _wait_for(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


@contextmanager
def _held_wave(monkeypatch):
    """Hold the service's next engine wave on its pool thread.

    Yields ``(started, release)``: ``started`` is set once the held wave
    occupies its thread, and the wave runs once ``release`` is set, at
    the latest when the block exits."""
    started, release = threading.Event(), threading.Event()
    run_batch = CampaignService._run_batch

    def held(self, batch):
        if not started.is_set():
            started.set()
            release.wait(60)
        return run_batch(self, batch)

    monkeypatch.setattr(CampaignService, "_run_batch", held)
    try:
        yield started, release
    finally:
        release.set()


def _submit_one(host, port, case):
    with ServeClient(host, port) as client:
        return client.submit(case)


#: Distinct same-geometry power cases (one stacked wave holds them all).
_ALGORITHMS = ["MATS+", "March C-", "March SS", "March B"]


def test_wave_that_dies_is_rescued_case_by_case(tmp_path, monkeypatch):
    # A stacked pass that fails mid-wave must not starve its neighbours:
    # every unanswered case is rescued one at a time, with exactly the
    # record a local execution measures.  One worker holds a first wave
    # while the two cases pool behind it, so both share one dying wave.
    from repro.engine.grid import BatchedGridEngine

    def dying(self):
        raise RuntimeError("stacked pass died")
        yield  # pragma: no cover - makes this a generator

    monkeypatch.setattr(BatchedGridEngine, "completions", dying)
    cases = [_power_case(algorithm="MATS+"), _prr_case()]
    with running_service(tmp_path / "cache", workers=1) \
            as (service, host, port), ThreadPoolExecutor(3) as pool, \
            _held_wave(monkeypatch) as (started, release):
        first = pool.submit(_submit_one, host, port,
                            _power_case(algorithm="March C-"))
        assert started.wait(30)
        futures = [pool.submit(_submit_one, host, port, case)
                   for case in cases]
        _wait_for(lambda: service.stats_snapshot()["misses"] == 3)
        release.set()
        responses = [future.result(timeout=60) for future in futures]
        first.result(timeout=60)
        stats = service.stats_snapshot()
    assert stats["engine_passes"] == 2 and stats["executed_cases"] == 3
    assert stats["errors"] == 0
    for case, response in zip(cases, responses):
        local = execute_case(case_from_dict(case))
        assert _drop_elapsed(response["record"]) == \
            _drop_elapsed(local.as_dict())


def test_a_miss_on_an_idle_service_is_dispatched_without_a_timer(
        tmp_path, monkeypatch):
    # With the default window a miss goes to the idle executor as soon as
    # the dispatcher wakes: no timer runs between arrival and the wave.
    timers = []
    sleep = asyncio.sleep

    async def recording_sleep(delay, *args, **kwargs):
        if delay > 0:
            timers.append(delay)
        return await sleep(delay, *args, **kwargs)

    monkeypatch.setattr(asyncio, "sleep", recording_sleep)
    with running_service(tmp_path / "cache") as (service, host, port):
        response = _submit_one(host, port, _prr_case())
        stats = service.stats_snapshot()
    assert response["served"]["outcome"] == "miss"
    assert stats["engine_passes"] == stats["executed_cases"] == 1
    assert timers == []


def test_misses_pool_into_one_wave_while_every_thread_is_busy(
        tmp_path, monkeypatch):
    # One worker, its wave held: three distinct misses arriving 50 ms
    # apart wait for the thread and then run as one wave, with the
    # records a local execution measures.
    cases = [_power_case(algorithm=name) for name in _ALGORITHMS]
    with running_service(tmp_path / "cache", workers=1) \
            as (service, host, port), ThreadPoolExecutor(4) as pool, \
            _held_wave(monkeypatch) as (started, release):
        futures = [pool.submit(_submit_one, host, port, cases[0])]
        assert started.wait(30)
        for count, case in enumerate(cases[1:], start=2):
            futures.append(pool.submit(_submit_one, host, port, case))
            _wait_for(lambda: service.stats_snapshot()["misses"] == count)
            time.sleep(0.05)
        assert service.stats_snapshot()["engine_passes"] == 1
        release.set()
        responses = [future.result(timeout=60) for future in futures]
        stats = service.stats_snapshot()
    assert stats["engine_passes"] == 2
    assert stats["executed_cases"] == 4
    assert stats["misses"] == 4 and stats["errors"] == 0
    for case, response in zip(cases, responses):
        assert response["served"]["outcome"] == "miss"
        local = execute_case(case_from_dict(case))
        assert _drop_elapsed(response["record"]) == \
            _drop_elapsed(local.as_dict())


def test_stop_closes_an_idle_keep_alive_connection(tmp_path):
    # A client that keeps its connection open between requests must not
    # hold stop() up: the service closes the connection and returns.
    # (From Python 3.12 on, the server's wait_closed() waits for every
    # connection to close.)
    service = CampaignService(tmp_path / "cache", workers=1)
    thread = ServiceThread(service)
    host, port = thread.start()
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        connection.request("GET", "/healthz")
        assert json.loads(connection.getresponse().read()) == \
            {"status": "ok"}
        stopper = threading.Thread(target=thread.stop)
        stopper.start()
        stopper.join(timeout=30)
        assert not stopper.is_alive()
        assert connection.sock.recv(1) == b""  # closed by the service
    finally:
        connection.close()
        thread.stop()


def test_stop_answers_misses_pooled_behind_a_busy_thread(tmp_path,
                                                         monkeypatch):
    # stop() begins while the only thread is busy and two misses pool
    # behind it: it returns only after all three are answered, the pooled
    # pair as one wave.
    cases = [_power_case(algorithm=name) for name in _ALGORITHMS[:3]]
    service = CampaignService(tmp_path / "cache", workers=1)
    thread = ServiceThread(service)
    host, port = thread.start()
    try:
        with ThreadPoolExecutor(3) as pool, \
                _held_wave(monkeypatch) as (started, release):
            futures = [pool.submit(_submit_one, host, port, cases[0])]
            assert started.wait(30)
            futures += [pool.submit(_submit_one, host, port, case)
                        for case in cases[1:]]
            _wait_for(lambda: service.stats_snapshot()["pending"] == 3)
            time.sleep(0.05)
            assert service.stats_snapshot()["engine_passes"] == 1
            stopper = threading.Thread(target=thread.stop)
            stopper.start()

            def refuses_connections():
                # A probe still queued on the listener when it closes is
                # reset rather than refused: both mean stop() has begun.
                try:
                    socket.create_connection((host, port), timeout=5).close()
                except (ConnectionRefusedError, ConnectionResetError):
                    return True
                return False

            _wait_for(refuses_connections)
            release.set()
            responses = [future.result(timeout=60) for future in futures]
            stopper.join(timeout=60)
            assert not stopper.is_alive()
    finally:
        thread.stop()
    stats = service.stats_snapshot()
    assert [r["served"]["outcome"] for r in responses] == ["miss"] * 3
    assert stats["engine_passes"] == 2 and stats["executed_cases"] == 3
    assert stats["pending"] == 0
    for case, response in zip(cases, responses):
        local = execute_case(case_from_dict(case))
        assert _drop_elapsed(response["record"]) == \
            _drop_elapsed(local.as_dict())


def test_back_to_back_waves_share_one_worker_state(tmp_path):
    # One client's misses may land on either pool thread; each wave takes
    # the idle state the previous one returned, so one set of compiled
    # traces and facades serves them all.
    with running_service(tmp_path / "cache", workers=2) \
            as (service, host, port):
        with ServeClient(host, port) as client:
            for rows in (8, 16, 32, 64):
                client.submit(_prr_case(rows=rows))
        assert service.stats_snapshot()["engine_passes"] == 4
        assert len(service._idle_states) == 1


def test_a_distinct_miss_past_the_pending_bound_is_a_counted_429(
        tmp_path, monkeypatch):
    # Bound 2 on one worker: the held wave and one pooled miss fill it,
    # so the next distinct miss is refused, while a hit and a duplicate
    # of a pending miss are still answered.
    monkeypatch.setattr("repro.serve.service.MAX_PENDING_PER_WORKER", 2)
    hit, held, pooled, refused = (
        _power_case(algorithm=name) for name in _ALGORITHMS)
    trace_path = tmp_path / "trace.jsonl"
    with running_service(tmp_path / "cache", trace_path=trace_path,
                         workers=1) as (service, host, port), \
            ThreadPoolExecutor(3) as pool:
        _submit_one(host, port, hit)
        with _held_wave(monkeypatch) as (started, release):
            futures = [pool.submit(_submit_one, host, port, held)]
            assert started.wait(30)
            futures.append(pool.submit(_submit_one, host, port, pooled))
            _wait_for(lambda: service.stats_snapshot()["pending"] == 2)

            conn = http.client.HTTPConnection(host, port, timeout=30)
            conn.request("POST", "/v1/run",
                         body=json.dumps({"case": refused}))
            reply = conn.getresponse()
            payload = json.loads(reply.read())
            conn.close()
            assert reply.status == 429
            assert reply.getheader("Retry-After") == "1"
            assert payload["served"]["outcome"] == "refused"
            with pytest.raises(ServeError, match="returned 429"):
                _submit_one(host, port, refused)

            assert _submit_one(host, port, hit)["served"]["outcome"] == "hit"
            futures.append(pool.submit(_submit_one, host, port, pooled))
            _wait_for(lambda: service.stats_snapshot()["coalesced"] == 1)
            stats = service.stats_snapshot()
            assert stats["refused"] == 2 and stats["pending"] == 2
        responses = [future.result(timeout=60) for future in futures]
        again = _submit_one(host, port, refused)
        stats = service.stats_snapshot()
    assert [r["served"]["outcome"] for r in responses] == \
        ["miss", "miss", "coalesced"]
    assert again["served"]["outcome"] == "miss"
    local = execute_case(case_from_dict(refused))
    assert _drop_elapsed(again["record"]) == _drop_elapsed(local.as_dict())
    assert stats["refused"] == 2 and stats["errors"] == 0
    outcomes = Counter(line["outcome"] for line in load_trace(trace_path))
    assert outcomes == {"miss": 4, "hit": 1, "coalesced": 1, "refused": 2}


def test_cache_survives_a_service_restart(tmp_path):
    case = _prr_case()
    with running_service(tmp_path / "cache") as (service, host, port):
        with ServeClient(host, port) as client:
            first = client.submit(case)
    with running_service(tmp_path / "cache") as (service, host, port):
        with ServeClient(host, port) as client:
            again = client.submit(case)
        stats = service.stats_snapshot()
    assert first["served"]["outcome"] == "miss"
    assert again["served"]["outcome"] == "hit"
    assert stats["engine_passes"] == 0  # no engine was ever touched
    assert _drop_elapsed(again["record"]) == _drop_elapsed(first["record"])


def test_memory_hit_serves_what_a_restarted_service_reads_from_disk(
        tmp_path):
    case = _prr_case()
    with running_service(tmp_path / "cache") as (service, host, port):
        with ServeClient(host, port) as client:
            client.submit(case)  # miss: executes and stores
            from_memory = client.submit(case)
            running = client.stats()["cache"]
    with running_service(tmp_path / "cache") as (service, host, port):
        with ServeClient(host, port) as client:
            from_disk = client.submit(case)
            restarted = client.stats()["cache"]
    assert from_memory["served"]["outcome"] == "hit"
    assert from_disk["served"]["outcome"] == "hit"
    assert running["memory_hits"] == 1 and running["memory_entries"] == 1
    assert restarted["memory_hits"] == 0
    assert from_memory["kind"] == from_disk["kind"] == "prr"
    assert json.dumps(from_memory["record"], sort_keys=True) \
        == json.dumps(from_disk["record"], sort_keys=True)


def test_torn_cache_entry_is_reexecuted_and_healed(tmp_path):
    # Kill-during-store round trip: a torn cache entry must read as a
    # miss (re-execute) and the store must heal the slot for later hits.
    case = _prr_case()
    digest = fingerprint_digest(case_fingerprint(case_from_dict(case)))
    cache_dir = tmp_path / "cache"
    with running_service(cache_dir) as (service, host, port):
        with ServeClient(host, port) as client:
            first = client.submit(case)
    entry_path = ResultCache(cache_dir).path_for(digest)
    torn = entry_path.read_text()[:60]
    entry_path.write_text(torn)  # simulate the torn final write
    with running_service(cache_dir) as (service, host, port):
        with ServeClient(host, port) as client:
            healed = client.submit(case)
            again = client.submit(case)
        stats = service.stats_snapshot()
    assert healed["served"]["outcome"] == "miss"  # torn entry = miss
    assert again["served"]["outcome"] == "hit"    # ...and it healed
    assert stats["engine_passes"] == 1
    assert _drop_elapsed(healed["record"]) == _drop_elapsed(first["record"])
    # The hit carries the healed entry's record, elapsed time included.
    assert again["record"] == healed["record"] \
        == json.loads(entry_path.read_text())["record"]


# ----------------------------------------------------------------------
# The hit path: request memo and encoded replies
# ----------------------------------------------------------------------
def _post_raw(host, port, body):
    """POST ``body`` to /v1/run on a fresh socket; the reply's status line
    and its exact body bytes."""
    with socket.create_connection((host, port), timeout=60) as raw:
        raw.sendall(b"POST /v1/run HTTP/1.1\r\nConnection: close\r\n"
                    b"Content-Length: %d\r\n\r\n" % len(body) + body)
        reply = b""
        while chunk := raw.recv(65536):  # the service closes after it
            reply += chunk
    head, _, data = reply.partition(b"\r\n\r\n")
    return head.split(b"\r\n", 1)[0], data


def _counted_validation(monkeypatch):
    """Count the service's calls of the three functions that turn a body
    into a cache key."""
    import repro.serve.service as service_module

    calls = Counter()
    for name in ("case_from_dict", "case_fingerprint", "fingerprint_digest"):
        def counted(*args, _name=name,
                    _original=getattr(service_module, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(service_module, name, counted)
    return calls


def test_a_repeated_body_is_not_validated_or_hashed_again(tmp_path,
                                                          monkeypatch):
    calls = _counted_validation(monkeypatch)
    case = _prr_case()
    with running_service(tmp_path / "cache") as (service, host, port):
        with ServeClient(host, port) as client:
            first = client.submit(case)
            assert calls == {"case_from_dict": 1, "case_fingerprint": 1,
                             "fingerprint_digest": 1}
            calls.clear()
            again = [client.submit(case) for _ in range(3)]
            stats = client.stats()
    assert sum(calls.values()) == 0
    assert [r["served"]["outcome"] for r in again] == ["hit"] * 3
    assert all(r["record"] == first["record"] for r in again)
    assert all(r["served"]["digest"] == first["served"]["digest"]
               for r in again)
    assert stats["memo_hits"] == 3 and stats["memo_entries"] == 1
    assert stats["requests"] == stats["hits"] + stats["misses"] == 4


def test_replies_are_the_bytes_of_the_sorted_payload(tmp_path, monkeypatch):
    # A miss, a waiter coalesced onto it and a later hit: each reply's
    # body is exactly json.dumps(payload, sort_keys=True) of itself.
    body = json.dumps({"case": _prr_case()}).encode("utf-8")
    with running_service(tmp_path / "cache", workers=1) \
            as (service, host, port), ThreadPoolExecutor(2) as pool, \
            _held_wave(monkeypatch) as (started, release):
        missed = pool.submit(_post_raw, host, port, body)
        assert started.wait(30)
        coalesced = pool.submit(_post_raw, host, port, body)
        _wait_for(lambda: service.stats_snapshot()["coalesced"] == 1)
        release.set()
        replies = [missed.result(timeout=60), coalesced.result(timeout=60),
                   _post_raw(host, port, body)]
    outcomes = []
    for status, data in replies:
        assert status.startswith(b"HTTP/1.1 200 ")
        payload = json.loads(data)
        assert json.dumps(payload, sort_keys=True).encode("utf-8") == data
        outcomes.append(payload["served"]["outcome"])
    assert outcomes == ["miss", "coalesced", "hit"]


def _generation_tagged_stores(monkeypatch):
    """Tag every record the service stores with how many times its digest
    has been stored, so a reply names the entry it was encoded from."""
    store = ResultCache.store
    generations = Counter()

    def tagged(self, digest, fingerprint, kind, record):
        generations[digest] += 1
        return store(self, digest, fingerprint, kind,
                     {**record, "generation": generations[digest]})

    monkeypatch.setattr(ResultCache, "store", tagged)


def test_a_reexecuted_entry_is_served_not_the_evicted_one(tmp_path,
                                                          monkeypatch):
    _generation_tagged_stores(monkeypatch)
    case, other = _prr_case(), _prr_case(rows=16)
    with running_service(tmp_path / "cache", cache_max_entries=1) \
            as (service, host, port):
        with ServeClient(host, port) as client:
            replies = [client.submit(submitted)
                       for submitted in (case, case, other, case, case)]
            stats = client.stats()
    assert [r["served"]["outcome"] for r in replies] == \
        ["miss", "hit", "miss", "miss", "hit"]
    assert [r["record"]["generation"] for r in replies] == [1, 1, 1, 2, 2]
    assert replies[4]["record"] == replies[3]["record"]
    assert stats["cache"]["evictions"] == 2


def test_a_reread_entry_is_served_as_disk_holds_it(tmp_path, monkeypatch):
    # The cache's memory tier holds one entry, so the first case's entry
    # is read from disk again after another case is stored; the reply
    # must be encoded from what the file now holds.
    monkeypatch.setattr("repro.serve.cache.MEMORY_ENTRIES", 1)
    case, other = _prr_case(), _prr_case(rows=16)
    digest = fingerprint_digest(case_fingerprint(case_from_dict(case)))
    with running_service(tmp_path / "cache") as (service, host, port):
        with ServeClient(host, port) as client:
            first = client.submit(case)
            assert client.submit(case)["record"] == first["record"]
            client.submit(other)
            stored = json.loads(service.cache.path_for(digest).read_text())
            ResultCache(tmp_path / "cache").store(
                digest, stored["fingerprint"], stored["kind"],
                {**stored["record"], "rewritten": True})
            reread = client.submit(case)
    assert reread["served"]["outcome"] == "hit"
    assert reread["record"] == {**first["record"], "rewritten": True}


def test_the_request_memo_is_bounded(tmp_path, monkeypatch):
    monkeypatch.setattr("repro.serve.service.MEMORY_ENTRIES", 2)
    cases = [_prr_case(rows=rows) for rows in (8, 16, 32)]
    with running_service(tmp_path / "cache") as (service, host, port):
        with ServeClient(host, port) as client:
            first = [client.submit(case) for case in cases]
            again = [client.submit(case) for case in cases]
            stats = client.stats()
        assert len(service._replies) == 2
    assert stats["memo_entries"] == 2
    assert [r["served"]["outcome"] for r in again] == ["hit"] * 3
    for case, before, after in zip(cases, first, again):
        assert after["record"] == before["record"]
        assert after["served"]["digest"] == \
            fingerprint_digest(case_fingerprint(case_from_dict(case)))


def test_a_reordered_or_respaced_body_hits_through_the_slow_path(
        tmp_path, monkeypatch):
    case = _prr_case()
    bodies = [json.dumps({"case": case}),
              json.dumps({"case": dict(reversed(list(case.items())))}),
              json.dumps({"case": case}, indent=2),
              json.dumps({"case": case}, separators=(",", ":"))]
    with running_service(tmp_path / "cache") as (service, host, port):
        replies = [json.loads(_post_raw(host, port, body.encode())[1])
                   for body in bodies]
        assert service.stats_snapshot()["memo_hits"] == 0
        calls = _counted_validation(monkeypatch)
        repeated = json.loads(_post_raw(host, port, bodies[1].encode())[1])
        stats = service.stats_snapshot()
    assert len(set(bodies)) == len(bodies)
    assert [r["served"]["outcome"] for r in replies + [repeated]] == \
        ["miss", "hit", "hit", "hit", "hit"]
    assert all(r["record"] == replies[0]["record"]
               for r in replies + [repeated])
    assert stats["memo_entries"] == 4 and stats["memo_hits"] == 1
    assert sum(calls.values()) == 0


def test_protocol_error_mapping(tmp_path):
    with running_service(tmp_path / "cache") as (service, host, port):
        conn = http.client.HTTPConnection(host, port, timeout=30)

        def exchange(method, path, body=None):
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"}
                         if body else {})
            response = conn.getresponse()
            return response.status, json.loads(response.read())

        status, payload = exchange("POST", "/v1/run",
                                   json.dumps({"case": {"kind": "nope"}}))
        assert status == 400 and "unknown case kind" in payload["error"]
        status, _ = exchange("POST", "/v1/run", "not json")
        assert status == 400
        status, _ = exchange("POST", "/v1/run", json.dumps({"nope": 1}))
        assert status == 400
        status, _ = exchange("GET", "/nowhere")
        assert status == 404
        status, _ = exchange("PUT", "/v1/run", "{}")
        assert status == 405
        conn.close()
        # The client surfaces non-200 responses as ServeError.
        with ServeClient(host, port) as client:
            with pytest.raises(ServeError, match="unknown case kind"):
                client.submit({"kind": "nope"})
        # Malformed cases count as request errors; routing rejections
        # (bad path/method/body framing) never reach the campaign layer.
        assert service.stats_snapshot()["errors"] == 2


UNKNOWN_ALGORITHM = "unknown March algorithm 'March Z'"
KERNEL_CHOICE = "kernel 'jit' cannot be chosen"


def _coverage_case(**overrides):
    payload = {"kind": "coverage", "rows": 8, "columns": 8,
               "algorithm": "March C-", "backend": "vectorized"}
    payload.update(overrides)
    return payload


@pytest.mark.parametrize("case,error", [
    (_power_case(algorithm="March Z"), UNKNOWN_ALGORITHM),
    (_prr_case(algorithm="March Z"), UNKNOWN_ALGORITHM),
    (_coverage_case(algorithm="March Z"), UNKNOWN_ALGORITHM),
    (_prr_case(algorithm=["MATS+"]), "algorithm must be a name"),
    (_power_case(kernel="jit"), KERNEL_CHOICE),
    (_prr_case(kernel="jit"), KERNEL_CHOICE),
    (_coverage_case(sample="x"), "sample must be an integer"),
    (_coverage_case(sample=-1), "sample must be at least 0"),
    (_coverage_case(seed=1.5), "seed must be an integer"),
    (_coverage_case(include_single="no"), "include_single must be true"),
    (_coverage_case(include_coupling=1), "include_coupling must be true"),
    (_coverage_case(any_direction="sideways"), "any_direction must be one"),
    (_power_case(any_direction="sideways"), "any_direction must be one"),
    (_power_case(rows=True), "rows must be an integer"),
    (_prr_case(rows=True), "rows must be an integer"),
    (_coverage_case(rows=True), "rows must be an integer"),
    (_prr_case(banks=True), "banks must be an integer"),
    (_coverage_case(orders="row-major"), "orders must be a list of names"),
    (_power_case(rows=8.5), "rows must be an integer"),
    (_prr_case(bits_per_word=1.0), "bits_per_word must be an integer"),
    (_prr_case(seed="x"), "seed must be an integer"),
    (_coverage_case(rows=0), "rows must be positive, got 0"),
    (_power_case(columns=-8), "columns must be positive, got -8"),
    (_prr_case(bits_per_word=3), r"columns \(64\) must be a multiple"),
    (_power_case(banks=3), r"rows \(8\) must be a multiple of banks"),
    (_prr_case(columns=2), "a 'prr' case needs at least 3 columns"),
], ids=["power", "prr", "coverage", "prr-not-a-name", "power-kernel",
        "prr-kernel", "coverage-sample", "coverage-negative-sample",
        "coverage-seed", "coverage-include-single",
        "coverage-include-coupling", "coverage-direction",
        "power-direction", "power-bool-rows", "prr-bool-rows",
        "coverage-bool-rows", "prr-bool-banks", "coverage-string-orders",
        "power-float-rows", "prr-float-bits-per-word", "prr-string-seed",
        "coverage-zero-rows", "power-negative-columns",
        "prr-word-width-not-a-divisor", "power-banks-not-a-divisor",
        "prr-two-columns"])
def test_unbuildable_case_is_a_counted_400(tmp_path, caplog, case, error):
    # A case that cannot be built (an unknown or non-string algorithm,
    # any kernel choice, a mistyped field, a direction ⇕ cannot resolve
    # to, dimensions no array or no Section 5 prediction has) is the
    # client's error: a counted 400, no engine pass, and no handler dying
    # with a logged traceback and a closed connection.
    caplog.set_level(logging.ERROR, logger="asyncio")
    with running_service(tmp_path / "cache") as (service, host, port):
        with ServeClient(host, port) as client:
            with pytest.raises(ServeError, match=f"returned 400: {error}"):
                client.submit(case)
            stats = client.stats()
    assert stats["requests"] == stats["errors"] == 1
    assert stats["engine_passes"] == 0
    assert [record.getMessage() for record in caplog.records
            if record.name == "asyncio"
            and record.levelno >= logging.ERROR] == []


@pytest.mark.parametrize("length,error", [
    ("abc", "malformed Content-Length"),
    ("-5", "malformed Content-Length"),
    # Refused before the body is read; the body then arrives all the same
    # and must not reset the connection under the reply.
    ("65537", "request body of 65537 bytes is past the 65536-byte limit"),
], ids=["abc", "-5", "past-the-body-limit"])
def test_malformed_content_length_is_a_400(tmp_path, length, error):
    body = b"x" * int(length) if length.isdecimal() else b""
    with running_service(tmp_path / "cache") as (service, host, port):
        with socket.create_connection((host, port), timeout=30) as raw:
            raw.sendall(f"POST /v1/run HTTP/1.1\r\nContent-Length: "
                        f"{length}\r\n\r\n".encode("latin-1") + body)
            reply = b""
            while chunk := raw.recv(4096):  # the service closes after it
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nConnection: close" in head
        assert json.loads(body) == {"error": error}
        with ServeClient(host, port) as client:
            assert client.health() == {"status": "ok"}
        assert service.stats_snapshot()["requests"] == 0


@pytest.mark.parametrize("request_head", [
    "GET /healthz HTTP/1.1\r\nX-Big: " + "x" * 70_000 + "\r\n\r\n",
    "GET /" + "a" * 70_000 + " HTTP/1.1\r\n\r\n",
    # Still arriving when the service answers: it must read the rest
    # before closing, or the reset destroys the reply.
    "GET /" + "a" * 200_000 + " HTTP/1.1\r\n\r\n",
], ids=["header", "request-line", "request-line-past-socket-buffers"])
def test_overlong_request_line_or_header_is_a_400(tmp_path, caplog,
                                                  request_head):
    # asyncio's StreamReader refuses lines past 64 KiB with a ValueError;
    # the service must answer it, not let the handler die with a traceback.
    caplog.set_level(logging.ERROR, logger="asyncio")
    with running_service(tmp_path / "cache") as (service, host, port):
        with socket.create_connection((host, port), timeout=30) as raw:
            raw.sendall(request_head.encode("latin-1"))
            reply = b""
            while chunk := raw.recv(4096):  # the service closes after it
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nConnection: close" in head
        assert json.loads(body) == {"error": "request line or header too long"}
        with ServeClient(host, port) as client:
            assert client.health() == {"status": "ok"}
    assert [record.getMessage() for record in caplog.records
            if record.name == "asyncio"
            and record.levelno >= logging.ERROR] == []


def test_stats_and_health_endpoints(tmp_path):
    with running_service(tmp_path / "cache") as (service, host, port):
        with ServeClient(host, port) as client:
            assert client.health() == {"status": "ok"}
            stats = client.stats()
    assert stats["requests"] == 0
    assert stats["memo_hits"] == stats["memo_entries"] == 0
    assert stats["workers"] >= 1
    assert "uptime_s" in stats


# ----------------------------------------------------------------------
# Thread-local provenance under the worker pool (the PR's dispatch fix)
# ----------------------------------------------------------------------
def test_served_records_carry_truthful_provenance(tmp_path):
    # Whatever thread executed the wave, the record must name the
    # backend/kernel that actually ran it.
    with running_service(tmp_path / "cache", workers=2) \
            as (service, host, port):
        responses = replay(
            host, port,
            [_prr_case(), _prr_case(rows=16), _power_case()], concurrency=3)
    for response in responses:
        record = response["record"]
        assert record["backend_used"] == "vectorized"
        assert record["kernel_used"] == "flat"


# ----------------------------------------------------------------------
# ServeClient against a scripted server (canned replies, exact framing)
# ----------------------------------------------------------------------
def _reply(status, body, close=False, length=None):
    data = body if isinstance(body, bytes) else json.dumps(body).encode()
    head = (f"HTTP/1.1 {status} Canned\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(data) if length is None else length}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n\r\n")
    return head.encode("latin-1") + data


@contextmanager
def _scripted_server(*connections):
    """A server thread that answers each accepted connection from its
    script — one canned reply per request read — and then closes it.

    Yields ``((host, port), seen)``; ``seen`` lists ``(connection number,
    request target)`` in arrival order."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(30)
    seen = []

    def serve():
        for number, replies in enumerate(connections):
            try:
                conn, _ = listener.accept()
            except OSError:
                return  # the test is over
            with conn, conn.makefile("rb") as reader:
                for reply in replies:
                    request_line = reader.readline()
                    length = 0
                    while (line := reader.readline()) not in (b"\r\n", b""):
                        name, _, value = line.partition(b":")
                        if name.strip().lower() == b"content-length":
                            length = int(value)
                    reader.read(length)
                    seen.append((number, request_line.split()[1].decode()))
                    conn.sendall(reply)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()[:2], seen
    finally:
        try:
            listener.shutdown(socket.SHUT_RDWR)  # wakes a pending accept
        except OSError:
            pass
        listener.close()
        thread.join(timeout=30)


def test_client_reconnects_after_a_connection_close_reply():
    with _scripted_server([_reply(200, {"n": 1}, close=True)],
                          [_reply(200, {"n": 2}), _reply(200, {"n": 3})]) \
            as ((host, port), seen):
        with ServeClient(host, port, timeout=10) as client:
            assert client.submit(_prr_case()) == {"n": 1}
            assert client.submit(_prr_case()) == {"n": 2}
            assert client.health() == {"n": 3}  # same keep-alive socket
    assert seen == [(0, "/v1/run"), (1, "/v1/run"), (1, "/healthz")]


def test_client_truncated_body_is_an_error_and_the_next_call_reconnects():
    with _scripted_server([_reply(200, b'{"n": 1', length=50)],
                          [_reply(200, {"n": 2})]) as ((host, port), seen):
        with ServeClient(host, port, timeout=10) as client:
            with pytest.raises(ServeError, match="truncated: 7 of 50 bytes"):
                client.submit(_prr_case())
            assert client.submit(_prr_case()) == {"n": 2}
    assert [number for number, _ in seen] == [0, 1]


def test_client_non_json_body_names_the_status():
    with _scripted_server([_reply(502, b"<html>bad gateway</html>")]) \
            as ((host, port), _):
        with ServeClient(host, port, timeout=10) as client:
            with pytest.raises(ServeError,
                               match=r"non-JSON body \(status 502\)"):
                client.submit(_prr_case())


def test_client_times_out_on_a_server_that_never_answers():
    # The kernel completes the handshake from the listen backlog; nobody
    # ever reads the request or answers it.
    with socket.create_server(("127.0.0.1", 0)) as silent:
        host, port = silent.getsockname()[:2]
        with ServeClient(host, port, timeout=0.3) as client:
            started = time.monotonic()
            with pytest.raises(ServeError, match="timed out"):
                client.submit(_prr_case())
            assert time.monotonic() - started < 10


def test_client_does_not_load_http_client():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"),
         env.get("PYTHONPATH", "")])
    completed = subprocess.run(
        [sys.executable, "-c", "import sys, repro.serve.client; "
         "print(sorted(name for name in sys.modules if name == 'http' "
         "or name.startswith('http.')))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[]"
