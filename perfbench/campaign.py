"""``campaign``: the paper reproduction campaign through ``repro.distrib``,
from ``Coordinator.create`` to the verified merge, on one worker per CPU.

Why: hundreds of small cases, so time spreads over the flat kernel,
fault simulation, record assembly, journal fsyncs, lease-ledger I/O, the
per-lease ``SweepRunner`` rebuild and the merge, while compile cost per
case stays small and the service is not used.

Completion is timed from the first worker exit: a worker leaves its loop
only once the ledger reports every lease done, and the worker that
completes the last lease exits straight after.  ``Coordinator.supervise``
is not used, because it polls every ``lease_timeout / 4`` (7.5 s at the
CLI default) and would quantise the metric; that polling is a known cost
of ``python -m repro.distrib run`` this workload does not include.
"""

from __future__ import annotations

import subprocess
import threading
import time
from collections import Counter

import tracing
from common import (BenchError, Context, golden_table1, layer_metrics,
                    layer_table, load_documents, median, own_rss_mb,
                    prr_error_pp, record_problems, records_digest,
                    simulated_ops, stop)
from workloads import campaign_cases

#: Steal leases silent this long (the ``python -m repro.distrib run``
#: default); no worker dies here, so no steal is expected.
LEASE_TIMEOUT_S = 30.0
CAMPAIGN_TIMEOUT_S = 150.0


def _run_campaign(ctx: Context, cases, number: int, traced: bool) -> dict:
    from repro.distrib.coordinator import Coordinator
    from repro.sweep import load_journal, fingerprint_digest

    root = ctx.scratch / f"campaign-{number}"
    spans = [ctx.scratch / f"campaign-{number}-worker-{index}.json"
             for index in range(ctx.workers)] if traced else []
    rss = [ctx.scratch / f"campaign-{number}-worker-{index}.rss"
           for index in range(ctx.workers)]
    if traced:
        tracing.install(f"campaign-{ctx.seed}-{number}")
    first_exit = threading.Event()
    processes, logs, reapers = [], [], []

    def reap(process) -> None:
        try:
            process.wait(timeout=CAMPAIGN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return  # reported below as a campaign no worker finished
        first_exit.set()

    try:
        created_unix = time.time()
        started = time.monotonic()
        coordinator = Coordinator.create(root, cases, ctx.workers)
        for index in range(ctx.workers):
            logs.append(open(ctx.scratch / f"campaign-{number}-{index}.log",
                             "wb"))
            processes.append(ctx.child(
                "distrib-worker",
                [str(root), "--worker-id", f"worker-{index}",
                 "--lease-timeout", str(LEASE_TIMEOUT_S)],
                trace_out=spans[index] if traced else None,
                run_id=f"campaign-{ctx.seed}-{number}", rss_out=rss[index],
                stdout=logs[-1], stderr=logs[-1]))
            reapers.append(threading.Thread(target=reap,
                                            args=(processes[-1],)))
            reapers[-1].start()
        if not first_exit.wait(CAMPAIGN_TIMEOUT_S):
            raise BenchError(f"campaign {number}: no worker finished")
        report = coordinator.merge(require_complete=True)
        finished = time.monotonic()
    finally:
        for process in processes:
            stop(process, timeout=5)
        for reaper in reapers:
            reaper.join()
        for log in logs:
            log.close()
        tracer = tracing.uninstall() if traced else None
    codes = [process.returncode for process in processes]
    if any(code != 0 for code in codes):
        raise BenchError(f"campaign {number}: worker exit codes {codes}")

    status = coordinator.status()
    leases = coordinator.ledger.leases()
    executions = Counter(
        fingerprint_digest(entry.case)
        for journal in sorted(coordinator.ledger.journal_dir.glob("*.jsonl"))
        for entry in load_journal(journal))
    merged = load_journal(report.output)
    documents = [tracer.document(), *load_documents(spans)] if traced else []
    per_worker = Counter(lease.worker for lease in leases)
    return {
        "setup_s": min(lease.claimed_unix for lease in leases) - created_unix,
        "wall_s": finished - started,
        "window": (started, finished),
        "merge_complete": bool(report.complete) and report.cases == len(cases),
        "steals": status["steals"],
        "double_executions": sum(count - 1 for count in executions.values()),
        "records": [{"kind": entry.kind, **entry.record} for entry in merged],
        "documents": documents,
        "lease_imbalance": max(per_worker.values())
        / (len(leases) / ctx.workers),
        "worker_rss_mb": max(float(path.read_text()) for path in rss),
    }


def run(ctx: Context) -> dict:
    from repro.sweep import case_from_dict

    cases = [case_from_dict(case) for case in campaign_cases(ctx.seed)]
    golden = golden_table1(ctx.root)
    runs = []
    deadline = time.monotonic() + ctx.seconds
    while True:
        traced = ctx.trace and len(runs) % 2 == 1
        runs.append(_run_campaign(ctx, cases, len(runs), traced))
        if len(runs) >= (2 if ctx.trace else 1) \
                and time.monotonic() >= deadline:
            break

    attempted = failed = 0
    digests = set()
    for data in runs:
        attempted += len(cases)
        for record in data["records"]:
            problems = record_problems(record["kind"], record, golden)
            if problems:
                failed += 1
                ctx.report.extend(problems)
        missing = len(cases) - len(data["records"])
        if missing or not data["merge_complete"]:
            failed += max(missing, 1)
            ctx.report.append("merged campaign is incomplete")
        if data["double_executions"]:
            failed += data["double_executions"]
            ctx.report.append(f"{data['double_executions']} cases executed "
                              "more than once")
        digests.add(records_digest(data["records"]))
    if len(digests) != 1:
        failed += attempted
        ctx.report.append("merged record digests differ between campaigns")

    plain = [data for data in runs if not data["documents"]]
    traced = [data for data in runs if data["documents"]]
    records = runs[0]["records"]
    metrics = {
        "setup_s": median([data["setup_s"] for data in plain]),
        "p50_ms": median([data["wall_s"] * 1e3 for data in plain]),
        "ops_per_s": median([len(cases) / data["wall_s"] for data in plain]),
        "sim_mops_per_s": median([simulated_ops(data["records"])
                                  / data["wall_s"] / 1e6 for data in plain]),
        # The largest worker of a campaign, as a median over campaigns:
        # the maximum over every worker ever reaped grew with the number
        # of campaigns a run fitted in.
        "peak_rss_mb": max(median([data["worker_rss_mb"] for data in plain]),
                           own_rss_mb()),
        "prr_err_pp": prr_error_pp(records),
    }
    ctx.report.append(
        f"campaign seed {ctx.seed}: {len(cases)} cases on {ctx.workers} "
        f"workers, {len(plain)} untraced and {len(traced)} traced campaigns, "
        f"merged digest {sorted(digests)[0][:16]}, steals "
        f"{[data['steals'] for data in runs]}")

    layers = {}
    if ctx.trace:
        documents = [document for data in traced
                     for document in data["documents"]]
        covered = sum(tracing.covered_seconds(data["documents"],
                                              [data["window"]])
                      for data in traced)
        total = sum(data["wall_s"] for data in traced)
        wall = total / len(traced)
        busy = tracing.totals(documents)["distrib.busy_s"]
        lifetime = sum(end - start for start, end in
                       tracing.spans_named(documents, "distrib.worker"))
        layers = layer_metrics(documents, len(traced), {
            "distrib.worker_idle_s": (lifetime - busy) / len(traced),
            "distrib.lease_imbalance": median(
                [data["lease_imbalance"] for data in traced]),
            "distrib.steals": sum(data["steals"] for data in traced)
            / len(traced),
            "trace.overhead_pct": 100.0 * (
                median([data["wall_s"] for data in traced])
                / median([data["wall_s"] for data in plain]) - 1.0),
            "trace.unattributed_pct": 100.0 * (1.0 - covered / total),
            "failed_ratio": failed / attempted,
        })
        ctx.report += layer_table(documents, len(traced), wall, "campaign")
        ctx.documents = documents
    return {"attempted": attempted, "failed": failed,
            "metrics": metrics, "layers": layers}
