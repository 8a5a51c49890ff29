"""Gate a fresh BENCH_*.json against the committed perf baseline.

Usage::

    python benchmarks/check_regression.py BASELINE.json FRESH.json \
        [--workload paper-grid-batched] [--factor 2.0] [--margin 0.5]

Two checks per gated workload (fresh entries whose name matches the
``--workload`` prefix, compared against the committed entry of the same
name):

* **wall clock** — fails when the fresh wall clock exceeds
  ``factor x committed + margin``.  The additive margin (not a floor that
  could swallow the factor on sub-second workloads) absorbs scheduler
  noise on shared runners;
* **speedup ratio** — when both entries record a measured ``speedup``
  (the grid benchmark measures the grid engine against a per-case
  ``execute_case`` loop in the same session), fails when the fresh
  speedup drops below ``committed / factor``.  Both sides of that ratio run on the same
  machine in the same session, so this check is hardware-independent and
  catches regressions of the batched path even when absolute wall clocks
  are noisy.

CI runs this after the bench job: the committed ``BENCH_<id>.json`` *is*
the perf contract, so a paper-scale grid regression fails the build
instead of landing silently.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load_entries(path: Path):
    payload = json.loads(path.read_text(encoding="utf-8"))
    if payload.get("format") != "repro-bench":
        raise SystemExit(f"error: {path} is not a repro-bench trajectory")
    return {entry["workload"]: entry for entry in payload["entries"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", type=Path)
    parser.add_argument("fresh", type=Path)
    parser.add_argument("--workload", default="paper-grid-batched",
                        help="workload-name prefix to gate (default: the "
                             "paper-scale grid)")
    parser.add_argument("--factor", type=float, default=2.0,
                        help="allowed regression factor on wall clock and "
                             "measured speedup (default: 2.0)")
    parser.add_argument("--margin", type=float, default=0.5,
                        help="additive wall-clock allowance in seconds for "
                             "runner noise (default: 0.5)")
    args = parser.parse_args(argv)

    baseline = load_entries(args.baseline)
    fresh = load_entries(args.fresh)
    gated = {workload: entry for workload, entry in fresh.items()
             if workload.startswith(args.workload)}
    if not gated:
        print(f"error: fresh trajectory has no '{args.workload}*' workload "
              "to gate", file=sys.stderr)
        return 2

    failures = 0
    for workload, entry in sorted(gated.items()):
        committed = baseline.get(workload)
        if committed is None:
            print(f"[gate] {workload}: no committed baseline — skipped")
            continue
        allowed = args.factor * float(committed["wall_clock_s"]) + args.margin
        observed = float(entry["wall_clock_s"])
        wall_ok = observed <= allowed
        print(f"[gate] {workload}: wall {observed:.3f}s vs committed "
              f"{float(committed['wall_clock_s']):.3f}s "
              f"(allowed {allowed:.3f}s) — "
              f"{'ok' if wall_ok else 'REGRESSION'}")
        if not wall_ok:
            failures += 1
        if "speedup" in entry and "speedup" in committed:
            required = float(committed["speedup"]) / args.factor
            measured = float(entry["speedup"])
            ratio_ok = measured >= required
            print(f"[gate] {workload}: speedup {measured:.1f}x vs committed "
                  f"{float(committed['speedup']):.1f}x "
                  f"(required >= {required:.1f}x) — "
                  f"{'ok' if ratio_ok else 'REGRESSION'}")
            if not ratio_ok:
                failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
