"""Shared pieces of the benchmark: run context, child processes,
correctness gates, statistics and the per-layer metric table."""

from __future__ import annotations

import ast
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import tracing

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"

#: Every per-layer metric a traced run reports, with its unit.  Times and
#: counts are per unit of work (a cold-scale pass, a campaign, or 1000
#: serve requests); a layer a workload never reaches reports 0.
PER_LAYER_UNITS: Dict[str, str] = {
    "march.order_s": "s", "march.orders_built": "count",
    "march.traces_compiled": "count", "march.segwalk_s": "s",
    "march.segments": "count",
    "engine.kernel_s": "s", "engine.kernel_calls": "count",
    "engine.stacked_ratio": "ratio", "engine.fault_s": "s",
    "engine.injections": "count",
    "sweep.record_s": "s", "sweep.journal_append_s": "s",
    "sweep.journal_appends": "count", "sweep.merge_s": "s",
    "distrib.ledger_s": "s", "distrib.leases": "count",
    "distrib.lease_setup_s": "s", "distrib.worker_idle_s": "s",
    "distrib.lease_imbalance": "ratio", "distrib.steals": "count",
    "serve.hit_ratio": "ratio", "serve.cache_get_ms": "ms",
    "serve.cache_store_ms": "ms", "serve.evictions": "count",
    "serve.coalesced": "count", "serve.waves": "count",
    "serve.wave_size_mean": "count", "serve.queue_ms": "ms",
    "serve.http_ms": "ms", "serve.p99_ms": "ms", "serve.miss_p50_ms": "ms",
    "trace.overhead_pct": "%", "trace.unattributed_pct": "%",
    "failed_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run or a workload step failed outright."""


@dataclass
class Context:
    """Everything one benchmark invocation needs."""

    root: Path        # the checkout being measured
    scratch: Path     # temp directory, removed at exit
    out: Path         # where the traced-run report and spans go
    workload: str
    seed: int
    seconds: float
    trace: bool
    workers: int = field(default_factory=lambda: os.cpu_count() or 1)
    report: List[str] = field(default_factory=list)
    #: span dumps of the traced iterations, written to ``out`` at the end
    documents: List[dict] = field(default_factory=list)

    def child_env(self) -> Dict[str, str]:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        return env

    def child(self, mode: str, rest: Sequence[str],
              trace_out: Optional[Path] = None, run_id: str = "",
              rss_out: Optional[Path] = None,
              **popen) -> subprocess.Popen:
        """Start ``perfbench/child.py MODE`` (traced when ``trace_out``;
        writing its peak RSS to ``rss_out`` when given)."""
        command = [sys.executable, str(CHILD)]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out), "--run-id", run_id]
        if rss_out is not None:
            command += ["--rss-out", str(rss_out)]
        command += [mode, "--", *rest]
        return subprocess.Popen(command, cwd=self.root, env=self.child_env(),
                                **popen)


def stop(process: subprocess.Popen, timeout: float = 30.0) -> None:
    """Wait for ``process`` to end, killing it if it does not."""
    if process.poll() is None:
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


def own_rss_mb() -> float:
    """Peak RSS of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb() -> float:
    """Largest RSS of this process and of every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (nearest rank) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


# ----------------------------------------------------------------------
# Correctness gates
# ----------------------------------------------------------------------
def golden_table1(root: Path):
    """The golden Table 1 and its tolerance, read from the test module
    that pins them (parsed, not imported: pytest is not needed)."""
    tree = ast.parse((root / "tests" / "test_table1_golden.py").read_text())
    values = {}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id in (
                        "GOLDEN_TABLE1", "GOLDEN_REL_TOL"):
                    values[target.id] = ast.literal_eval(node.value)
    return values["GOLDEN_TABLE1"], values["GOLDEN_REL_TOL"]


def _close(measured: float, expected: float, rel: float) -> bool:
    return abs(measured - expected) <= rel * abs(expected)


def record_problems(kind: str, record: Dict, golden) -> List[str]:
    """Why ``record`` is wrong (an empty list when it is right)."""
    from repro.march.library import get_algorithm

    table, rel = golden
    problems = []
    label = f"{kind} {record['algorithm']} @ {record['rows']}x" \
            f"{record['columns']}"
    if record.get("backend_used") != "vectorized":
        problems.append(f"{label}: ran on {record.get('backend_used')!r}")
    if kind == "coverage":
        if not record["invariant"] or record["disagreements"]:
            problems.append(f"{label}: DOF-1 not invariant")
        return problems
    if not record["passed"]:
        problems.append(f"{label}: comparator failure")
    words = record["rows"] * record["columns"] // record["bits_per_word"]
    expected_cycles = get_algorithm(record["algorithm"]).operation_count \
        * words
    if record["cycles_per_mode"] != expected_cycles:
        problems.append(f"{label}: {record['cycles_per_mode']} cycles, "
                        f"expected {expected_cycles}")
    if kind != "prr":
        return problems
    if not record["within_bracket"]:
        problems.append(f"{label}: PRR outside the analytical bracket")
    if (record["rows"], record["columns"], record["bits_per_word"],
            record["banks"]) == (512, 512, 1, 1) \
            and record["algorithm"] in table:
        cycles, functional, low_power, prr = table[record["algorithm"]]
        if not (record["cycles_per_mode"] == cycles
                and _close(record["functional_energy_j"], functional, rel)
                and _close(record["low_power_energy_j"], low_power, rel)
                and _close(record["measured_prr"], prr, rel)):
            problems.append(f"{label}: differs from the golden Table 1")
    return problems


def prr_error_pp(records: Sequence[Dict]) -> float:
    """Largest |measured - analytical| PRR over PRR records, in points."""
    return max(100.0 * abs(r["measured_prr"] - r["analytical_prr"])
               for r in records if "within_bracket" in r)


def records_digest(records: Sequence[Dict]) -> str:
    """Digest of records with the wall-clock ``elapsed_s`` left out."""
    rollup = hashlib.sha256()
    for record in records:
        stable = {key: value for key, value in record.items()
                  if key != "elapsed_s"}
        rollup.update(json.dumps(stable, sort_keys=True).encode())
    return rollup.hexdigest()


def simulated_ops(records: Sequence[Dict]) -> int:
    """March operations simulated: cycles summed over both modes."""
    return sum(2 * r["cycles_per_mode"] for r in records
               if "cycles_per_mode" in r)


# ----------------------------------------------------------------------
# Per-layer metrics from traced iterations
# ----------------------------------------------------------------------
def layer_metrics(documents: List[dict], units: float,
                  extra: Dict[str, float],
                  windows: Optional[tracing.Windows] = None
                  ) -> Dict[str, float]:
    """Every :data:`PER_LAYER_UNITS` metric, per unit of work.

    ``documents`` are the span dumps of every traced process; ``units``
    how many units of work they cover (inside ``windows``, when given);
    ``extra`` the metrics only the workload module can measure (they
    override the span-derived ones).
    """
    own = tracing.self_times(documents, windows)
    counts = tracing.totals(documents, windows)
    samples = tracing.events(documents, windows)
    per = (lambda value: value / units) if units else (lambda value: 0.0)
    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    metrics.update({
        "march.order_s": per(own.get("march.order", 0.0)),
        "march.orders_built": per(counts["march.orders_built"]),
        "march.traces_compiled": per(counts["march.traces_compiled"]),
        "march.segwalk_s": per(own.get("march.segwalk", 0.0)),
        "march.segments": per(counts["march.segments"]),
        "engine.kernel_s": per(own.get("engine.kernel", 0.0)),
        "engine.kernel_calls": per(counts["engine.kernel_calls"]),
        "engine.stacked_ratio": (counts["engine.stacked_units"]
                                 / counts["engine.units"]
                                 if counts["engine.units"] else 0.0),
        "engine.fault_s": per(own.get("engine.fault", 0.0)),
        "engine.injections": per(counts["engine.injections"]),
        "sweep.record_s": per(own.get("sweep.record", 0.0)),
        "sweep.journal_append_s": per(own.get("sweep.journal_append", 0.0)),
        "sweep.journal_appends": per(counts["sweep.journal_appends"]),
        "sweep.merge_s": per(own.get("sweep.merge", 0.0)),
        "distrib.ledger_s": per(own.get("distrib.ledger", 0.0)),
        "distrib.leases": per(counts["distrib.leases"]),
        "distrib.lease_setup_s": median(samples["distrib.lease_setup_s"]),
        "serve.cache_get_ms": median(samples["serve.cache_get_ms"]),
        "serve.cache_store_ms": median(samples["serve.cache_store_ms"]),
        "serve.queue_ms": median(samples["serve.queue_ms"]),
    })
    metrics.update(extra)
    return metrics


def layer_table(documents: List[dict], units: float, wall: float,
                unit_name: str, windows: Optional[tracing.Windows] = None
                ) -> List[str]:
    """The traced-run report: self time per span, grouped by layer."""
    own = tracing.self_times(documents, windows)
    counts = tracing.totals(documents, windows)
    per = (lambda value: value / units) if units else (lambda value: 0.0)
    share = (lambda seconds: 100.0 * seconds / wall) if wall \
        else (lambda seconds: 0.0)
    header = f"{'self s/' + unit_name:>14s} {'% of wall':>10s}"
    lines = [f"{'span':28s} {header}"]
    by_layer: Dict[str, float] = {}
    for name in sorted(own, key=lambda n: (tracing.layer_of(n), n)):
        layer = tracing.layer_of(name)
        by_layer[layer] = by_layer.get(layer, 0.0) + per(own[name])
        lines.append(f"{name:28s} {per(own[name]):14.4f} "
                     f"{share(per(own[name])):9.1f}%")
    lines += ["", f"{'layer':28s} {header}"]
    lines += [f"{layer:28s} {seconds:14.4f} {share(seconds):9.1f}%"
              for layer, seconds in sorted(by_layer.items())]
    lines += ["", f"wall per {unit_name}: {wall:.4f} s (self time sums over "
              "processes and threads, so shares can add past 100%)",
              "counts per " + unit_name + ": " + ", ".join(
                  f"{name}={per(value):.4g}"
                  for name, value in sorted(counts.items())
                  if not name.endswith(("_ms", "_s")))]
    return lines


def load_documents(paths: Sequence[Path]) -> List[dict]:
    documents = []
    for path in paths:
        if not path.exists():
            raise BenchError(f"traced process wrote no spans to {path}")
        documents.append(json.loads(path.read_text()))
    return documents
