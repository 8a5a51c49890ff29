"""The repository benchmark: one seeded command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cold-scale --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload campaign --seed 1 --seconds 15 --trace 1

``--trace 0`` measures the end-to-end metrics with no tracing installed
anywhere; ``--trace 1`` also runs traced iterations and reports the
per-layer metrics (see ``perfbench/README.md``).  The last line of
standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Scratch files live in ``.bench_tmp/`` and are removed at exit; a traced
run leaves its layer report and spans in ``.bench_out/``.  The exit code
is 0 only when every step ran (wrong outputs still exit 0, with
``"correct": false``).
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: End-to-end metric -> unit; every workload reports all of them.
END_TO_END = {"setup_s": "s", "p50_ms": "ms", "ops_per_s": "1/s",
              "sim_mops_per_s": "Mop/s", "peak_rss_mb": "MB",
              "prr_err_pp": "pp"}
WORKLOADS = ("cold-scale", "campaign", "serve")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is "
              "missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from common import PER_LAYER_UNITS, Context

    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=ROOT / ".bench_tmp"))
    out = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}"
    ctx = Context(root=ROOT, scratch=scratch, out=out,
                  workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=bool(args.trace))
    try:
        if args.workload == "cold-scale":
            import cold_scale as workload
        elif args.workload == "campaign":
            import campaign as workload
        else:
            import serve_load as workload
        result = workload.run(ctx)
    except Exception:  # noqa: BLE001 - any failure means no result
        traceback.print_exc()
        print("\n".join(ctx.report), file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            (ROOT / ".bench_tmp").rmdir()
        except OSError:
            pass  # another run still uses it

    if ctx.trace:
        chosen = result["layers"]
        units = PER_LAYER_UNITS
        ctx.report += ["", "per-layer metrics:"] + [
            f"  {name:26s} {chosen[name]:14.6g} {unit}"
            for name, unit in units.items()]
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.txt").write_text("\n".join(ctx.report) + "\n")
        (out / "spans.json").write_text(json.dumps(ctx.documents))
    else:
        chosen = result["metrics"]
        units = END_TO_END
    print("\n".join(ctx.report))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": chosen[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
