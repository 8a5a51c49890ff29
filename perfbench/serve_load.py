"""``serve``: a ``python -m repro.serve`` process under a closed loop of
one keep-alive client sending a fixed Zipf mix over 100 seeded cases.

Why: most requests hit the bounded result cache — HTTP plus a cache read,
no engine work — while the rarely requested tail keeps being evicted and
missing, and each miss pays the coalescing window, an engine wave, a
cache store and an LRU eviction.  Gains in march or engine should move
only the miss and tail latencies here; gains in the serving layer should
show nowhere else.

Loop: closed, one keep-alive client sending its next request when the
previous reply arrives.  One client, not one per CPU: on a host with few
CPUs, concurrent clients make hits wait on the interpreter lock behind
engine waves and on each other, so the latency measured the scheduler.  An untimed warm-up sends every distinct
case once and then runs the mix briefly, so the timed phase starts from
a full cache in its steady state.
"""

from __future__ import annotations

import math
import random
import re
import select
import signal
import subprocess
import time
from array import array
from collections import Counter
from typing import Dict, List

import tracing
from common import (BenchError, Context, golden_table1, layer_metrics,
                    layer_table, load_documents, median, peak_rss_mb,
                    percentile, prr_error_pp, record_problems, stop)
from workloads import serve_cases, zipf_stream

#: Cache capacity, below the 100 distinct cases so the tail keeps missing.
CACHE_MAX_ENTRIES = 90
#: Service starts timed for ``setup_s`` (the last one serves the load).
SETUP_STARTS = 9
WARM_S = 1.0
#: Distinct cases whose served records are re-computed locally.
VERIFY_SAMPLE = 6
READY_TIMEOUT_S = 60.0
#: Untraced/traced segment pairs of a ``--trace 1`` run.
TRACE_ROUNDS = 2
STREAM_LENGTH = 200_000


class _Service:
    """One ``python -m repro.serve`` child, started and stopped."""

    def __init__(self, ctx: Context, name: str, traced: bool) -> None:
        self.spans = ctx.scratch / f"{name}-spans.json" if traced else None
        self.log = open(ctx.scratch / f"{name}.log", "wb")
        spawned = time.monotonic()
        self.process = ctx.child(
            "serve", ["--port", "0", "--cache-dir",
                      str(ctx.scratch / f"{name}-cache"),
                      "--workers", str(ctx.workers),
                      "--cache-max-entries", str(CACHE_MAX_ENTRIES)],
            trace_out=self.spans, run_id=f"serve-{ctx.seed}-{name}",
            stdout=subprocess.PIPE, stderr=self.log)
        ready, _, _ = select.select([self.process.stdout], [], [],
                                    READY_TIMEOUT_S)
        line = self.process.stdout.readline().decode() if ready else ""
        self.setup_s = time.monotonic() - spawned
        match = re.search(r"http://([\d.]+):(\d+)", line)
        if match is None:
            self.stop()
            raise BenchError(f"service {name} did not become ready: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        stop(self.process)
        self.process.stdout.close()
        self.log.close()


def _closed_loop(service: _Service, cases, digests, stream: List[int],
                 offset: int, seconds: float) -> dict:
    """Drive the service for ``seconds`` from one keep-alive client;
    every request is timed client-side from send to reply.

    Per-request times go into flat ``array('d')`` buffers, so the
    benchmark's own memory does not grow with the request rate and
    ``peak_rss_mb`` stays the service's."""
    from repro.serve.client import ServeClient
    from repro.serve.service import ServeError

    rtt_ms, http_ms = array("d"), array("d")
    outcomes: Counter = Counter()
    misses: List[tuple] = []  # (rtt ms, simulated operations, engine s)
    wrong = 0
    last_record: Dict[int, dict] = {}
    with ServeClient(service.host, service.port) as client:
        stats_before = client.stats()
        started = time.monotonic()
        deadline = started + seconds
        position = offset
        while time.monotonic() < deadline:
            index = stream[position % len(stream)]
            position += 1
            sent = time.monotonic()
            try:
                response = client.submit(cases[index])
            except ServeError:
                rtt_ms.append((time.monotonic() - sent) * 1e3)
                outcomes["error"] += 1
                wrong += 1
                continue
            rtt = (time.monotonic() - sent) * 1e3
            served = response["served"]
            record = response["record"]
            rtt_ms.append(rtt)
            http_ms.append(rtt - served["latency_ms"])
            outcomes[served["outcome"]] += 1
            if served["digest"] != digests[index] \
                    or response["kind"] != cases[index]["kind"]:
                wrong += 1
            if served["outcome"] == "miss":
                # power/PRR records carry cycles; coverage ones do not
                misses.append((rtt, 2 * record.get("cycles_per_mode", 0),
                               record["elapsed_s"]
                               if "cycles_per_mode" in record else 0.0))
            last_record[index] = record
        finished = time.monotonic()
        stats_after = client.stats()
    delta = {key: stats_after[key] - stats_before[key]
             for key in ("hits", "misses", "coalesced", "engine_passes",
                         "executed_cases", "errors")}
    delta["evictions"] = stats_after["cache"]["evictions"] \
        - stats_before["cache"]["evictions"]
    return {"rtt_ms": rtt_ms, "http_ms": http_ms, "outcomes": outcomes,
            "misses": misses, "wrong": wrong, "window": (started, finished),
            "wall_s": finished - started, "stats": delta,
            "last_record": last_record}


def _warm(service: _Service, cases, digests, stream) -> List[dict]:
    """Untimed: every distinct case once, then the mix for ``WARM_S``.
    Returns the responses to the distinct cases, in case order.

    One request at a time: concurrent first requests coalesce into waves
    whose make-up depends on timing, and the largest wave set the
    service's peak RSS."""
    from repro.serve.client import replay

    responses = replay(service.host, service.port, cases, concurrency=1)
    _closed_loop(service, cases, digests, stream, 0, WARM_S)
    return responses


def _verify(ctx: Context, cases, last_record: Dict[int, dict]) -> List[str]:
    """Re-compute a seeded sample of served cases locally and compare."""
    from repro.sweep import case_from_dict, execute_case

    served = sorted(last_record)
    chosen = random.Random(ctx.seed).sample(
        served, min(VERIFY_SAMPLE, len(served)))
    problems = []
    for index in chosen:
        local = execute_case(case_from_dict(cases[index])).as_dict()
        remote = last_record[index]
        for record in (local, remote):
            record.pop("elapsed_s", None)
        if local != remote:
            problems.append(f"served record of case {index} differs from "
                            "a local execute_case")
    return problems


def _hit_path_engine_s(document: dict) -> float:
    """March/engine seconds recorded outside engine waves (expect 0)."""
    parents = {span[0]: (span[1], span[2]) for span in document["spans"]}

    def in_wave(span_id: int) -> bool:
        while span_id in parents:
            span_id, name = parents[span_id]
            if name in ("engine.grid", "sweep.case"):
                return True
        return False

    return sum(span[4] - span[3] for span in document["spans"]
               if tracing.layer_of(span[2]) in ("march", "engine")
               and not in_wave(span[0]))


def _combine(segments: List[dict]) -> dict:
    """One side's timed segments as if they were one phase."""
    combined = {"rtt_ms": array("d"), "http_ms": array("d"),
                "outcomes": Counter(), "misses": [], "wrong": 0,
                "windows": [], "wall_s": 0.0, "stats": Counter(),
                "last_record": {}}
    for segment in segments:
        for key in ("rtt_ms", "http_ms", "misses"):
            combined[key] += segment[key]
        combined["outcomes"].update(segment["outcomes"])
        combined["wrong"] += segment["wrong"]
        combined["windows"].append(segment["window"])
        combined["wall_s"] += segment["wall_s"]
        combined["stats"].update(segment["stats"])
        combined["last_record"].update(segment["last_record"])
    return combined


def run(ctx: Context) -> dict:
    from repro.sweep import case_fingerprint, case_from_dict, \
        fingerprint_digest

    cases = serve_cases(ctx.seed)
    digests = [fingerprint_digest(case_fingerprint(case_from_dict(case)))
               for case in cases]
    stream = zipf_stream(len(cases), STREAM_LENGTH)

    services = []
    plain_segments, traced_segments, client_documents = [], [], []
    try:
        for number in range(SETUP_STARTS):
            services.append(_Service(ctx, f"setup-{number}", traced=False))
            if number < SETUP_STARTS - 1:
                services[-1].stop()
        plain_service = services[-1]
        distinct = _warm(plain_service, cases, digests, stream)
        # A traced run alternates untraced and traced segments between
        # two warmed services, so host drift hits both sides alike.
        schedule = [False]
        if ctx.trace:
            traced_service = _Service(ctx, "traced", traced=True)
            services.append(traced_service)
            _warm(traced_service, cases, digests, stream)
            schedule = [False, True] * TRACE_ROUNDS
        seconds = ctx.seconds / len(schedule)
        offset = STREAM_LENGTH // 2
        for traced in schedule:
            if traced:
                tracing.install(f"serve-{ctx.seed}-client")
                try:
                    traced_segments.append(_closed_loop(
                        traced_service, cases, digests, stream, offset,
                        seconds))
                finally:
                    client_documents.append(tracing.uninstall().document())
            else:
                plain_segments.append(_closed_loop(
                    plain_service, cases, digests, stream, offset, seconds))
            offset += len((plain_segments + traced_segments)[-1]["rtt_ms"])
    finally:
        for service in services:
            if service.process.poll() is None:
                service.stop()

    # Before the local re-computation below, whose cases would otherwise
    # set the benchmark process's own peak.
    rss_mb = peak_rss_mb()
    plain = _combine(plain_segments)
    golden = golden_table1(ctx.root)
    problems = _verify(ctx, cases, plain["last_record"])
    for response in distinct:
        problems += record_problems(response["kind"], response["record"],
                                    golden)
    rtts = plain["rtt_ms"]
    failed = plain["wrong"] + len(problems)
    attempted = len(rtts) + len(distinct) + VERIFY_SAMPLE
    ctx.report += problems
    misses = plain["misses"]
    if not misses:
        raise BenchError("no request missed the cache; the tail is too "
                         "small for a miss latency")
    metrics = {
        "setup_s": median([service.setup_s for service in services
                           if service.spans is None]),
        "p50_ms": percentile(rtts, 50),
        "ops_per_s": len(rtts) / plain["wall_s"],
        # Engine seconds, not wall: the wall mostly serves cache hits.
        "sim_mops_per_s": sum(miss[1] for miss in misses)
        / sum(miss[2] for miss in misses) / 1e6,
        "peak_rss_mb": rss_mb,
        "prr_err_pp": prr_error_pp([response["record"]
                                    for response in distinct]),
    }
    tail = {"serve.p99_ms": percentile(rtts, 99),
            "serve.miss_p50_ms": percentile([miss[0] for miss in misses], 50)}
    outcomes = plain["outcomes"]
    ctx.report.append(
        f"serve seed {ctx.seed}: {len(rtts)} untraced timed requests in "
        f"{plain['wall_s']:.2f} s from one client, outcomes "
        f"{dict(outcomes)}; p99 {tail['serve.p99_ms']:.3f} ms with "
        f"{len(rtts) - math.ceil(0.99 * len(rtts))} samples beyond it; miss "
        f"p50 {tail['serve.miss_p50_ms']:.3f} ms over {len(misses)} misses; "
        f"service counters {dict(plain['stats'])}")

    layers = {}
    if ctx.trace:
        traced = _combine(traced_segments)
        documents = client_documents + load_documents([traced_service.spans])
        windows = traced["windows"]
        requests = len(traced["rtt_ms"])
        per_k = requests / 1000.0
        stats = traced["stats"]
        covered = tracing.covered_seconds(documents, windows)
        layers = layer_metrics(documents, per_k, {
            "serve.hit_ratio": traced["outcomes"]["hit"] / requests,
            "serve.evictions": stats["evictions"] / per_k,
            "serve.coalesced": stats["coalesced"] / per_k,
            "serve.waves": stats["engine_passes"] / per_k,
            "serve.wave_size_mean": stats["executed_cases"]
            / stats["engine_passes"] if stats["engine_passes"] else 0.0,
            "serve.http_ms": median(traced["http_ms"]),
            "trace.overhead_pct": 100.0 * (
                metrics["ops_per_s"] / (requests / traced["wall_s"]) - 1.0),
            "trace.unattributed_pct": 100.0 * (
                1.0 - covered / traced["wall_s"]),
            "failed_ratio": failed / attempted,
            **tail,
        }, windows=windows)
        ctx.report += layer_table(documents, per_k,
                                  traced["wall_s"] / per_k,
                                  "1000 requests", windows)
        traced_p50 = percentile(traced["rtt_ms"], 50)
        ctx.report.append(
            f"hit path: {_hit_path_engine_s(documents[-1]):.6f} s of march/"
            "engine time outside engine waves (expect 0); traced p50 "
            f"{traced_p50:.3f} ms = http {layers['serve.http_ms']:.3f} ms + "
            f"cache get {layers['serve.cache_get_ms']:.3f} ms + rest")
        ctx.documents = documents
    return {"attempted": attempted, "failed": failed,
            "metrics": metrics, "layers": layers}
