"""Command line for the sweep runner: ``python -m repro.sweep``.

Examples::

    # The paper-scale measured Table 1 (512 x 512, five algorithms,
    # vectorized backend) with a result table on stdout:
    python -m repro.sweep --paper

    # The same measured Table 1 through the BIST deployment path, with
    # the analytical PRR band next to every measurement:
    python -m repro.sweep --paper-table1

    # The paper-scale DOF-1 invariance check (512 x 512, the standard
    # fault battery under three address orders, campaign engine):
    python -m repro.sweep --paper-coverage

    # A custom measured-vs-analytical PRR grid on two geometries:
    python -m repro.sweep --prr-grid --geometry 64x512 --geometry 128x512 \\
        --algorithm "March C-" --json prr.json

    # A custom power grid, fanned out over four worker processes, exported:
    python -m repro.sweep --geometry 64x64 --geometry 128x128 \\
        --algorithm "March C-" --algorithm "MATS+" \\
        --order row-major --processes 4 --csv sweep.csv --json sweep.json

    # A reproducible coverage campaign on a custom geometry:
    python -m repro.sweep --coverage --geometry 128x128 \\
        --algorithm "March C-" --seed 7 --sample 12 --json campaign.json

    # A durable campaign: one fsync'd JSONL line per completed case.  If
    # the run is interrupted, --resume re-executes only the missing cases:
    python -m repro.sweep --paper-table1 --processes 4 --journal run.jsonl
    python -m repro.sweep --paper-table1 --processes 4 --journal run.jsonl \\
        --resume --json table1.json

    # Split a grid across two machines (disjoint, exhaustive shards):
    python -m repro.sweep --paper-coverage --shard 1/2 --journal shard1.jsonl
    python -m repro.sweep --paper-coverage --shard 2/2 --journal shard2.jsonl
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence, Tuple

from ..engine.dispatch import BACKEND_CHOICES, EngineError
from ..march.library import PAPER_TABLE1_ALGORITHMS
from ..march.ordering import ORDER_REGISTRY
from ..sram.geometry import BANK_INTERLEAVE_MODES, DEFAULT_LOCATION_SEED
from .journal import JournalError
from .runner import (
    DEFAULT_SAMPLE,
    INVARIANCE_ORDERS,
    SweepError,
    SweepRunner,
    coverage_grid,
    paper_coverage_cases,
    paper_prr_cases,
    paper_table1_cases,
    prr_grid,
    shard_cases,
    sweep_grid,
)


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.sweep`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep",
        description="Batch-execute grids of SRAM test scenarios: "
                    "power measurements (functional vs. low-power test "
                    "mode, measured PRR) or fault-coverage campaigns "
                    "(DOF-1 invariance).")
    parser.add_argument("--geometry", action="append", default=None,
                        metavar="ROWSxCOLS[xBITS]",
                        help="array geometry, repeatable (default: 64x64)")
    parser.add_argument("--algorithm", action="append", default=None,
                        metavar="NAME",
                        help="March algorithm name, repeatable "
                             "(default: the five Table 1 algorithms)")
    parser.add_argument("--order", action="append", default=None,
                        choices=sorted(ORDER_REGISTRY),
                        help="address order, repeatable (default: row-major "
                             "for power sweeps; row-major + column-major + "
                             "pseudo-random for coverage campaigns)")
    parser.add_argument("--backend", default="auto", choices=BACKEND_CHOICES,
                        help="execution engine (default: auto)")
    parser.add_argument("--banks", type=int, action="append", default=None,
                        metavar="N",
                        help="sub-array bank count, repeatable — each value "
                             "adds a banked variant of every geometry to "
                             "power/PRR grids (default: 1, the paper's "
                             "monolithic array; rows must divide evenly)")
    parser.add_argument("--bank-interleave", default="blocked",
                        choices=sorted(BANK_INTERLEAVE_MODES),
                        help="row-to-bank map for banked geometries: "
                             "'blocked' contiguous row ranges, 'interleaved' "
                             "rows striped across banks (default: blocked)")
    parser.add_argument("--processes", type=int, default=None, metavar="N",
                        help="worker processes the grid's stack groups fan "
                             "out over (default: one per CPU core, clamped "
                             "to the number of groups; 1 runs in-process)")
    parser.add_argument("--paper", action="store_true",
                        help="preset: the paper's 512x512 measured Table 1 "
                             "(overrides --geometry/--algorithm/--order)")
    parser.add_argument("--prr-grid", action="store_true",
                        help="run BIST power campaigns (measured vs. "
                             "analytical PRR through the backend-pluggable "
                             "BIST controller) instead of session power "
                             "measurements")
    parser.add_argument("--paper-table1", action="store_true",
                        help="preset: the paper's measured Table 1 through "
                             "the BIST path on the full 512x512 array, with "
                             "the analytical PRR band (implies --prr-grid; "
                             "overrides --geometry/--algorithm/--order)")
    parser.add_argument("--coverage", action="store_true",
                        help="run fault-coverage campaigns (DOF-1 invariance "
                             "over the standard fault battery) instead of "
                             "power measurements")
    parser.add_argument("--paper-coverage", action="store_true",
                        help="preset: the paper's Section 3 DOF-1 invariance "
                             "check on the full 512x512 array (implies "
                             "--coverage; overrides --geometry/--algorithm/"
                             "--order)")
    parser.add_argument("--seed", type=int, default=None, metavar="N",
                        help="fault-location sampling seed for coverage "
                             "campaigns (recorded verbatim in PRR-campaign "
                             "exports too), default: "
                             f"{DEFAULT_LOCATION_SEED}")
    parser.add_argument("--sample", type=int, default=None, metavar="N",
                        help="pseudo-random victim locations added to the "
                             "corners/centre spread of coverage campaigns "
                             f"(default: {DEFAULT_SAMPLE})")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="export the records to a JSON file")
    parser.add_argument("--csv", metavar="PATH", default=None,
                        help="export the records to a CSV file")
    parser.add_argument("--journal", metavar="PATH", default=None,
                        help="append one fsync'd JSONL line per completed "
                             "case to PATH (makes the campaign resumable)")
    parser.add_argument("--resume", action="store_true",
                        help="skip cases already recorded in --journal PATH; "
                             "their records are restored verbatim")
    parser.add_argument("--shard", metavar="I/N", default=None,
                        help="run only the I-th of N deterministic shards of "
                             "the grid (1-based), e.g. --shard 1/4; shards "
                             "are disjoint and their union is the full grid")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the result table and progress lines")
    return parser


def parse_shard(spec: str) -> Tuple[int, int]:
    """Parse a ``--shard I/N`` spec into a (1-based index, total) pair."""
    parts = spec.split("/")
    if len(parts) != 2:
        raise SweepError(f"shard {spec!r} must look like I/N, e.g. 2/4")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise SweepError(f"shard {spec!r} has non-integer fields") from exc


def _warn_ignored_flags(args: argparse.Namespace) -> None:
    """Tell the user about flags the selected workload silently drops.

    ``--order`` has no effect on BIST PRR campaigns (the BIST address
    generator fixes the word-line-sequential order) and ``--sample`` only
    shapes fault-coverage campaigns; passing either where it cannot apply
    used to be dropped without a word.
    """
    if args.order and (args.prr_grid or args.paper_table1):
        print("warning: --order is ignored by BIST PRR campaigns (the BIST "
              "address generator fixes the word-line-sequential order)",
              file=sys.stderr)
    elif args.order and (args.paper or args.paper_coverage):
        print("warning: --order is overridden by the --paper/"
              "--paper-coverage presets (they fix their own address orders)",
              file=sys.stderr)
    if args.sample is not None and not (args.coverage or args.paper_coverage):
        print("warning: --sample only affects fault-coverage campaigns "
              "(--coverage/--paper-coverage); it is ignored by power and "
              "PRR sweeps", file=sys.stderr)
    if args.seed is not None and not (args.coverage or args.paper_coverage
                                      or args.prr_grid or args.paper_table1):
        print("warning: --seed only affects coverage and PRR campaigns; it "
              "is ignored by plain power sweeps", file=sys.stderr)
    if args.banks is not None and (args.coverage or args.paper_coverage):
        print("warning: --banks only affects power and PRR sweeps (banking "
              "changes energies, not logical fault behaviour); it is "
              "ignored by coverage campaigns", file=sys.stderr)
    elif args.banks is not None and (args.paper or args.paper_table1):
        print("warning: --banks is overridden by the --paper/--paper-table1 "
              "presets (the paper's array is monolithic)", file=sys.stderr)


def _build_cases(args: argparse.Namespace):
    """Turn parsed arguments into (cases, report title)."""
    seed = args.seed if args.seed is not None else DEFAULT_LOCATION_SEED
    sample = args.sample if args.sample is not None else DEFAULT_SAMPLE
    if args.paper and (args.coverage or args.paper_coverage):
        raise SweepError("--paper measures power; combine coverage runs "
                         "with --paper-coverage instead")
    if (args.prr_grid or args.paper_table1) and \
            (args.coverage or args.paper_coverage or args.paper):
        raise SweepError("--prr-grid/--paper-table1 run BIST power "
                         "campaigns; they cannot be combined with "
                         "--paper/--coverage/--paper-coverage")
    if args.paper_table1:
        backend = "vectorized" if args.backend == "auto" else args.backend
        cases = paper_prr_cases(backend=backend, seed=seed)
        title = ("Paper-scale BIST campaign — measured vs. analytical "
                 "Table 1 on the full 512x512 array")
    elif args.prr_grid:
        geometries = args.geometry or ["64x64"]
        algorithms = args.algorithm or [a.name for a in PAPER_TABLE1_ALGORITHMS]
        cases = prr_grid(geometries, algorithms, backend=args.backend,
                         seed=seed, banks=tuple(args.banks or (1,)),
                         bank_interleave=args.bank_interleave)
        title = "BIST PRR campaigns ({count} scenarios)"
    elif args.paper_coverage:
        cases = paper_coverage_cases(backend=args.backend, seed=seed,
                                     sample=sample)
        title = ("Paper-scale DOF-1 campaign — fault-detection invariance "
                 "on the full 512x512 array")
    elif args.coverage:
        geometries: List[str] = args.geometry or ["64x64"]
        algorithms = args.algorithm or [a.name for a in PAPER_TABLE1_ALGORITHMS]
        orders = tuple(args.order) if args.order else INVARIANCE_ORDERS
        cases = coverage_grid(geometries, algorithms, orders=orders,
                              backend=args.backend, sample=sample,
                              seed=seed)
        title = "DOF-1 coverage campaigns ({count} scenarios)"
    elif args.paper:
        backend = "vectorized" if args.backend == "auto" else args.backend
        cases = paper_table1_cases(backend=backend)
        title = ("Paper-scale sweep — measured Table 1 on the full 512x512 "
                 "array")
    else:
        geometries = args.geometry or ["64x64"]
        algorithms = args.algorithm or [a.name for a in PAPER_TABLE1_ALGORITHMS]
        orders = args.order or ["row-major"]
        cases = sweep_grid(geometries, algorithms, orders=orders,
                           backends=(args.backend,),
                           banks=tuple(args.banks or (1,)),
                           bank_interleave=args.bank_interleave)
        title = "Sweep results ({count} scenarios)"
    # Sharding applies before the title's scenario count so the report
    # describes what actually ran, not the full grid.
    if args.shard is not None:
        index, total = parse_shard(args.shard)
        cases = shard_cases(cases, index, total)
        if not cases:
            raise SweepError(f"shard {index}/{total} of this grid is empty; "
                             "use fewer shards")
        title += f" — shard {index}/{total}"
    return cases, title.replace("{count}", str(len(cases)))


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code (0 ok, 2 on bad input)."""
    # No repro module calls BLAS (no dot, matmul or linalg), so the thread
    # pool OpenBLAS starts when numpy loads is start-up cost only.  This
    # module's imports load no numpy, so this runs before anything does; a
    # value the user set wins, and every process this one spawns inherits it.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    arguments = list(sys.argv[1:]) if argv is None else list(argv)
    if arguments and arguments[0] == "merge":
        # Journal merging is a subcommand (it unions *finished* shard
        # journals rather than running a grid), dispatched before the
        # sweep flag parser so its own help/errors stay coherent.
        from .merge import merge_main
        return merge_main(arguments[1:])
    args = build_parser().parse_args(arguments)

    try:
        cases, title = _build_cases(args)  # sharding applied inside
        if args.resume and args.journal is None:
            raise SweepError("--resume needs --journal PATH (the journal "
                             "written by the interrupted run)")
    except (SweepError, KeyError, ValueError) as exc:
        # Bad grid input (geometry syntax, unknown algorithm/order name,
        # malformed shard): report it as a CLI error instead of a traceback.
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2

    _warn_ignored_flags(args)

    try:
        runner = SweepRunner(cases, processes=args.processes,
                             journal=args.journal)
        result = runner.run(progress=not args.quiet, resume=args.resume)
    except (SweepError, JournalError, OSError) as exc:
        # A mismatched/corrupt journal or an unwritable journal path.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EngineError as exc:
        # backend=vectorized was requested explicitly for a scenario the
        # engine cannot replay exactly (e.g. a custom fault model or a
        # non-neighbour address order).
        print(f"error: {exc}\nhint: use --backend auto to fall back to the "
              "reference engine for such scenarios", file=sys.stderr)
        return 2

    if not args.quiet:
        print()
        print(result.render(title=title))
    try:
        if args.json:
            result.to_json(args.json)
            if not args.quiet:
                print(f"\nJSON written to {args.json}")
        if args.csv:
            result.to_csv(args.csv)
            if not args.quiet:
                print(f"CSV written to {args.csv}")
    except (SweepError, OSError) as exc:
        # Export failures (mixed records in a CSV, unwritable paths) are
        # CLI errors, not tracebacks — the sweep itself already ran.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the CLI
    sys.exit(main())
