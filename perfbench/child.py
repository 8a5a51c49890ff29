"""Entry script of every process a benchmark workload starts.

Usage::

    python3 perfbench/child.py [--trace-out P] [--rss-out R] cold-pass -- CASES.json OUT.json
    python3 perfbench/child.py [--trace-out P] [--rss-out R] distrib-worker -- ARGS...
    python3 perfbench/child.py [--trace-out P] [--rss-out R] serve -- ARGS...

``cold-pass`` evaluates a PRR grid the way ``python -m repro.sweep
--prr-grid`` does (``SweepRunner(strategy="batched", processes=1)``) and
writes the records plus monotonic timestamps to ``OUT.json``.
``distrib-worker`` and ``serve`` run ``python -m repro.distrib worker
ARGS`` and ``python -m repro.serve ARGS`` in this process.  With
``--trace-out`` the layer wrappers of :mod:`tracing` are installed first
and the spans are written to ``P`` when the program returns; without it
nothing but the program itself runs.  With ``--rss-out`` the process's
peak RSS in MB is written to ``R`` when the program returns.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def _cold_pass(cases_path: str, out_path: str) -> int:
    import numpy  # noqa: F401  - import cost belongs to set-up
    from repro.engine import grid  # noqa: F401
    from repro.sweep import SweepRunner, case_from_dict

    ready = time.monotonic()
    cases = [case_from_dict(case)
             for case in json.loads(Path(cases_path).read_text())]
    runner = SweepRunner(cases, processes=1, strategy="batched")
    stamps = []
    run_start = time.monotonic()
    result = runner.run(
        case_sink=lambda index, record: stamps.append(time.monotonic()))
    run_end = time.monotonic()
    Path(out_path).write_text(json.dumps({
        "ready": ready, "run_start": run_start, "run_end": run_end,
        "stamps": stamps, "strategy": runner.strategy_used,
        "records": [record.as_dict() for record in result],
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/child.py")
    parser.add_argument("mode", choices=("cold-pass", "distrib-worker",
                                         "serve"))
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--run-id", default="untraced")
    parser.add_argument("--rss-out", default=None)
    parser.add_argument("rest", nargs="*")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace_out is not None:
        import tracing

        tracer = tracing.install(args.run_id)
    try:
        if args.mode == "cold-pass":
            return _cold_pass(args.rest[0], args.rest[1])
        if args.mode == "distrib-worker":
            from repro.distrib.__main__ import main as distrib_main

            return distrib_main(["worker", *args.rest])
        from repro.serve.__main__ import main as serve_main

        return serve_main(args.rest)
    finally:
        if tracer is not None:
            tracer.dump(args.trace_out)
        if args.rss_out is not None:
            Path(args.rss_out).write_text(str(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0))


if __name__ == "__main__":
    sys.exit(main())
