"""``cold-scale``: a seeded PRR scaling grid (1024²–4096²), one fresh
process per pass, evaluated the way ``python -m repro.sweep --prr-grid``
evaluates it.

Why: a cold 4096² case is dominated by order expansion and segment-walk
compilation, not by the kernel; this is where compile-state work shows
and where a kernel-only change should show nothing.  Every pass starts a
new interpreter in a new scratch directory, so no cache can make it warm
unless a first-time CLI user would also find it warm.
"""

from __future__ import annotations

import json
import time

import tracing
from common import (BenchError, Context, golden_table1, layer_metrics,
                    layer_table, load_documents, median, peak_rss_mb,
                    prr_error_pp, record_problems, records_digest,
                    simulated_ops, stop)
from workloads import cold_scale_cases

#: How long one pass may take before it counts as hung.
PASS_TIMEOUT_S = 150


def _run_pass(ctx: Context, cases_path, number: int, traced: bool):
    out = ctx.scratch / f"pass-{number}.json"
    spans = ctx.scratch / f"pass-{number}-spans.json" if traced else None
    log = ctx.scratch / f"pass-{number}.log"
    with open(log, "wb") as sink:
        spawned = time.monotonic()
        process = ctx.child("cold-pass", [str(cases_path), str(out)],
                            trace_out=spans,
                            run_id=f"cold-scale-{ctx.seed}-{number}",
                            stdout=sink, stderr=sink)
        stop(process, timeout=PASS_TIMEOUT_S)
    code = process.returncode
    if code != 0 or not out.exists():
        raise BenchError(f"cold-scale pass {number} exited with {code}:\n"
                         + log.read_text(errors="replace")[-2000:])
    data = json.loads(out.read_text())
    data["setup_s"] = data["ready"] - spawned
    data["wall_s"] = data["run_end"] - data["run_start"]
    data["spans"] = spans
    return data


def run(ctx: Context) -> dict:
    cases = cold_scale_cases(ctx.seed)
    if cases[0]["rows"] != 4096:
        raise BenchError("the cold-scale grid must start with its 4096² case")
    cases_path = ctx.scratch / "cases.json"
    cases_path.write_text(json.dumps(cases))
    golden = golden_table1(ctx.root)

    passes = []
    deadline = time.monotonic() + ctx.seconds
    while True:
        # Traced runs alternate untraced and traced passes so the tracing
        # overhead is measured on the same inputs in the same run.
        traced = ctx.trace and len(passes) % 2 == 1
        passes.append(_run_pass(ctx, cases_path, len(passes), traced))
        enough = len(passes) >= (2 if ctx.trace else 1)
        if enough and time.monotonic() >= deadline:
            break

    attempted = failed = 0
    digests = set()
    for data in passes:
        records = data["records"]
        attempted += len(records)
        for record in records:
            problems = record_problems("prr", record, golden)
            if problems:
                failed += 1
                ctx.report.extend(problems)
        if data["strategy"] != "batched":
            failed += len(records)
            ctx.report.append(f"pass ran {data['strategy']!r}, not batched")
        digests.add(records_digest(records))
    if len(digests) != 1:
        failed += attempted
        ctx.report.append("record digests differ between passes")

    plain = [data for data in passes if data["spans"] is None]
    traced = [data for data in passes if data["spans"] is not None]
    records = passes[0]["records"]
    metrics = {
        "setup_s": median([data["setup_s"] for data in plain]),
        "p50_ms": median([
            (data["stamps"][0] - data["run_start"]) * 1e3 for data in plain]),
        "ops_per_s": median([len(data["records"]) / data["wall_s"]
                             for data in plain]),
        "sim_mops_per_s": median([
            simulated_ops(data["records"]) / data["wall_s"] / 1e6
            for data in plain]),
        "peak_rss_mb": peak_rss_mb(),
        "prr_err_pp": prr_error_pp(records),
    }
    ctx.report.append(f"cold-scale seed {ctx.seed}: {len(plain)} untraced "
                      f"and {len(traced)} traced passes of {len(records)} "
                      f"cases, record digest {sorted(digests)[0][:16]}")

    layers = {}
    if ctx.trace:
        documents = load_documents([data["spans"] for data in traced])
        windows = [(data["run_start"], data["run_end"]) for data in traced]
        covered = sum(tracing.covered_seconds([document], [window])
                      for document, window in zip(documents, windows))
        total = sum(high - low for low, high in windows)
        wall = total / len(traced)
        layers = layer_metrics(documents, len(traced), {
            "trace.overhead_pct": 100.0 * (
                median([data["wall_s"] for data in traced])
                / median([data["wall_s"] for data in plain]) - 1.0),
            "trace.unattributed_pct": 100.0 * (1.0 - covered / total),
            "failed_ratio": failed / attempted,
        })
        ctx.report += layer_table(documents, len(traced), wall, "pass")
        ctx.documents = documents
    return {"attempted": attempted, "failed": failed,
            "metrics": metrics, "layers": layers}
