"""The campaign serving layer (repro.serve).

Covers the content-addressed result cache (atomic stores, torn/foreign
entries read as misses), the replayable workload trace (torn-tail
tolerance mirroring the run journal), the fingerprint digest / case
round-trip seam the cache key is built on, and the live service: miss →
hit, duplicate concurrent requests coalescing into one engine pass,
cache survival across restarts, self-healing after a torn cache write,
and the JSON/HTTP protocol's error mapping.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
from collections import Counter
from pathlib import Path

import pytest

from repro.serve import (
    ResultCache,
    ServeClient,
    ServeError,
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
    # A generous coalescing window so the whole burst lands in one wave.
    with running_service(tmp_path / "cache", coalesce_window=0.25) \
            as (service, host, port):
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


def test_distinct_cases_coalesce_into_one_wave(tmp_path):
    # Two distinct same-geometry scenarios submitted inside one window
    # execute as one BatchedGridEngine wave (one stacked kernel pass).
    cases = [_power_case(algorithm="MATS+"), _power_case(algorithm="March C-")]
    with running_service(tmp_path / "cache", coalesce_window=0.25) \
            as (service, host, port):
        responses = replay(host, port, cases, concurrency=2)
        stats = service.stats_snapshot()
    assert [r["served"]["outcome"] for r in responses] == ["miss", "miss"]
    assert stats["engine_passes"] == 1
    assert stats["executed_cases"] == 2


def test_wave_that_dies_is_rescued_case_by_case(tmp_path, monkeypatch):
    # A stacked pass that fails mid-wave must not starve its neighbours:
    # every unanswered case is rescued one at a time, with exactly the
    # record a local execution measures.
    from repro.engine.grid import BatchedGridEngine

    def dying(self):
        raise RuntimeError("stacked pass died")
        yield  # pragma: no cover - makes this a generator

    monkeypatch.setattr(BatchedGridEngine, "completions", dying)
    cases = [_power_case(algorithm="MATS+"), _prr_case()]
    with running_service(tmp_path / "cache", coalesce_window=0.25) \
            as (service, host, port):
        responses = replay(host, port, cases, concurrency=2)
        stats = service.stats_snapshot()
    assert stats["errors"] == 0
    for case, response in zip(cases, responses):
        local = execute_case(case_from_dict(case))
        assert _drop_elapsed(response["record"]) == \
            _drop_elapsed(local.as_dict())


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


@pytest.mark.parametrize("length", ["abc", "-5"])
def test_malformed_content_length_is_a_400(tmp_path, length):
    with running_service(tmp_path / "cache") as (service, host, port):
        with socket.create_connection((host, port), timeout=30) as raw:
            raw.sendall(f"POST /v1/run HTTP/1.1\r\nContent-Length: "
                        f"{length}\r\n\r\n".encode("latin-1"))
            reply = b""
            while chunk := raw.recv(4096):  # the service closes after it
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert json.loads(body) == {"error": "malformed Content-Length"}
        with ServeClient(host, port) as client:
            assert client.health() == {"status": "ok"}


def test_stats_and_health_endpoints(tmp_path):
    with running_service(tmp_path / "cache") as (service, host, port):
        with ServeClient(host, port) as client:
            assert client.health() == {"status": "ok"}
            stats = client.stats()
    assert stats["requests"] == 0
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
        assert record["kernel_used"] in ("flat", "jit")
