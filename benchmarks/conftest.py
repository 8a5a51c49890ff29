"""Shared helpers for the benchmark harness + the perf trajectory log.

Every benchmark regenerates one table or figure of the paper (or one claim
of its Section 5 analysis) and prints the corresponding rows/series next to
the paper's reported values, so that running

    pytest benchmarks/ --benchmark-only -s

produces a self-contained experimental report.  Timing is measured with
pytest-benchmark (single round — these are experiments, not micro-benchmarks).

Machine-readable trajectory
---------------------------
Alongside the human-readable report, a session run with
``REPRO_BENCH_JSON`` set writes the perf trajectory to that path
(conventionally ``BENCH_<id>.json`` at the repository root): one entry per
benchmark with its wall clock, plus any richer entries (case counts,
measured speedups, baselines) benchmarks record through the
:func:`bench_record` fixture.  Without it nothing is written, so a plain
test run leaves the tracked files alone.  The file carries git metadata
so a checked-in copy *is* the committed perf baseline — CI's bench job
sets ``REPRO_BENCH_JSON=BENCH_9.json``, re-measures and fails when the
paper-scale grid wall-clock regresses past the allowed factor
(``benchmarks/check_regression.py``).

Environment knobs:

* ``REPRO_BENCH_JSON`` — path of the trajectory file to write (merged
  with an existing one); unset, no file is written;
* ``REPRO_BENCH_ID`` — series id recorded in the file (default ``9``);
* ``REPRO_BENCH_QUICK`` / ``REPRO_BENCH_FULL`` — workload tiers, honoured
  per benchmark module (entries record the tier they measured).
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Optional

import pytest

# Loaded once per session, before any timed round: importing numpy and the
# engine modules (and compiling their source) is a once-per-process cost,
# which would otherwise land in the wall clock of whichever benchmark
# happens to run first in a session.
import numpy  # noqa: F401
import repro.engine.fault_campaign  # noqa: F401
import repro.engine.grid  # noqa: F401
import repro.engine.power_campaign  # noqa: F401
import repro.engine.vectorized  # noqa: F401

#: Series id recorded in the perf-trajectory file.
BENCH_SERIES = os.environ.get("REPRO_BENCH_ID", "9")


def _git_metadata() -> Dict[str, object]:
    """Best-effort commit/branch description of the measured tree."""
    metadata: Dict[str, object] = {}
    for key, command in (
            ("commit", ["git", "rev-parse", "HEAD"]),
            ("branch", ["git", "rev-parse", "--abbrev-ref", "HEAD"]),
            ("describe", ["git", "describe", "--always", "--dirty"])):
        try:
            metadata[key] = subprocess.run(
                command, capture_output=True, text=True, timeout=10,
                cwd=Path(__file__).parent, check=True).stdout.strip()
        except Exception:  # noqa: BLE001 - metadata only, never fatal
            continue
    return metadata


class BenchTrajectory:
    """Collects one session's benchmark entries and writes the JSON log."""

    def __init__(self) -> None:
        self.entries: List[Dict[str, object]] = []
        #: total record() calls this session (replacements included) —
        #: lets the autouse fixture detect explicit in-test recording.
        self.record_count = 0

    def record(self, workload: str, wall_clock_s: float,
               cases: Optional[int] = None,
               baseline_s: Optional[float] = None,
               speedup: Optional[float] = None,
               **extra: object) -> None:
        """Append one measurement; richer fields are free-form but the
        regression gate understands ``wall_clock_s`` / ``baseline_s``."""
        entry: Dict[str, object] = {
            "workload": workload,
            "wall_clock_s": round(float(wall_clock_s), 6),
        }
        if cases is not None:
            entry["cases"] = int(cases)
        if baseline_s is not None:
            entry["baseline_s"] = round(float(baseline_s), 6)
        if speedup is not None:
            entry["speedup"] = round(float(speedup), 3)
        entry.update(extra)
        # Last write wins per workload (a bench may refine its entry).
        self.entries = [existing for existing in self.entries
                        if existing["workload"] != workload]
        self.entries.append(entry)
        self.record_count += 1

    # ------------------------------------------------------------------
    def write(self) -> Optional[Path]:
        """Merge this session's entries into ``REPRO_BENCH_JSON``;
        returns the path, or ``None`` when nothing is written."""
        target = os.environ.get("REPRO_BENCH_JSON")
        if not target or not self.entries:
            return None
        path = Path(target)
        # Merge with an existing trajectory: workloads not re-measured
        # this session (e.g. the full paper-scale tier while running the
        # quick tier) keep their recorded entry, so the file accumulates
        # the union of tiers instead of flip-flopping per invocation.
        merged: Dict[str, Dict[str, object]] = {}
        if path.exists():
            try:
                previous = json.loads(path.read_text(encoding="utf-8"))
                if previous.get("format") == "repro-bench":
                    merged = {entry["workload"]: entry
                              for entry in previous.get("entries", [])}
            except (json.JSONDecodeError, KeyError, TypeError):
                merged = {}
        for entry in self.entries:
            merged[str(entry["workload"])] = entry
        payload = {
            "format": "repro-bench",
            "version": 1,
            "series": BENCH_SERIES,
            "generated_unix": round(time.time(), 3),
            "quick_tier": bool(os.environ.get("REPRO_BENCH_QUICK")),
            "git": _git_metadata(),
            "entries": sorted(merged.values(),
                              key=lambda entry: entry["workload"]),
        }
        path.write_text(json.dumps(payload, indent=2) + "\n",
                        encoding="utf-8")
        return path


_TRAJECTORY = BenchTrajectory()


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


@pytest.fixture
def once():
    return run_once


@pytest.fixture
def bench_record():
    """Record a named workload measurement into ``BENCH_<id>.json``."""
    return _TRAJECTORY.record


@pytest.fixture(autouse=True)
def _auto_record(request):
    """Log every benchmark test's wall clock into the trajectory.

    Explicit :func:`bench_record` entries (richer: baselines, speedups)
    take precedence — a test that recorded anything itself gets no
    duplicate nodeid-named entry; this fallback only guarantees the
    per-workload wall-clock series exists for benchmarks that don't.
    """
    recorded_before = _TRAJECTORY.record_count
    yield
    if _TRAJECTORY.record_count != recorded_before:
        return  # the test recorded its own (richer) entry
    benchmark = request.node.funcargs.get("benchmark") \
        if hasattr(request.node, "funcargs") else None
    if benchmark is None:
        return
    try:
        mean = benchmark.stats.stats.mean
    except AttributeError:
        return
    _TRAJECTORY.record(request.node.nodeid.split("::", 1)[-1],
                       wall_clock_s=mean)


def pytest_sessionfinish(session, exitstatus):
    """Write the session's perf trajectory when ``REPRO_BENCH_JSON`` asks."""
    path = _TRAJECTORY.write()
    if path is not None:
        print(f"\n[bench] perf trajectory written to {path}")
