"""Command line for distributed campaigns: ``python -m repro.distrib``.

Subcommands::

    # Publish a campaign onto a shared directory (grid + leases + manifest):
    python -m repro.distrib init campaign/ --workers 4 \\
        --geometry 64x64 --geometry 128x128 \\
        --algorithm "March C-" --algorithm "MATS+" --order row-major

    # Start a worker (any number of processes/machines, any time):
    python -m repro.distrib worker campaign/ --lease-timeout 30

    # One-shot: init + N local workers + supervise + verified merge:
    python -m repro.distrib run campaign/ --workers 4 --paper-coverage

    # Inspect progress (pending/claimed/done leases, steals, cases):
    python -m repro.distrib status campaign/

    # Merge the lease journals into the verified merged.jsonl:
    python -m repro.distrib merge campaign/ [--allow-incomplete]
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from ..engine.dispatch import KERNEL_CHOICES
from ..march.ordering import ORDER_REGISTRY
from ..sram.geometry import BANK_INTERLEAVE_MODES
from ..sweep.journal import JournalError
from ..sweep.merge import MergeError
from ..sweep.runner import (
    AnyCase,
    DEFAULT_SAMPLE,
    STRATEGIES,
    SweepError,
    coverage_grid,
    paper_coverage_cases,
    paper_prr_cases,
    paper_table1_cases,
    prr_grid,
    sweep_grid,
)
from .coordinator import (
    Coordinator,
    DEFAULT_CHUNK_FACTOR,
    DEFAULT_MIN_CHUNK,
    run_distributed,
)
from .ledger import LedgerError
from .worker import DistribWorker


def _add_grid_arguments(parser: argparse.ArgumentParser) -> None:
    """The campaign-grid axes shared by ``init`` and ``run``."""
    grid = parser.add_argument_group("campaign grid")
    grid.add_argument("--paper-table1", action="store_true",
                      help="preset: the measured Table 1 grid")
    grid.add_argument("--paper-coverage", action="store_true",
                      help="preset: the paper-scale DOF-1 coverage grid")
    grid.add_argument("--paper-prr", action="store_true",
                      help="preset: the measured Table 1 via the BIST path")
    grid.add_argument("--coverage", action="store_true",
                      help="build fault-coverage campaigns instead of "
                           "power sweeps")
    grid.add_argument("--prr-grid", action="store_true",
                      help="build measured-vs-analytical PRR campaigns")
    grid.add_argument("--geometry", action="append", default=[],
                      metavar="RxC", help="array geometry (repeatable)")
    grid.add_argument("--algorithm", action="append", default=[],
                      metavar="NAME", help="march algorithm (repeatable)")
    grid.add_argument("--order", action="append", default=[],
                      choices=sorted(ORDER_REGISTRY),
                      help="address order (repeatable; power grids)")
    grid.add_argument("--backend", default="auto",
                      help="engine backend for every case")
    grid.add_argument("--kernel", choices=KERNEL_CHOICES, default=None,
                      help="flat-kernel tier for power/PRR cases")
    grid.add_argument("--banks", action="append", type=int, default=[],
                      metavar="N", help="bank count axis (repeatable)")
    grid.add_argument("--bank-interleave", default="blocked",
                      choices=sorted(BANK_INTERLEAVE_MODES),
                      help="bank interleave mode")
    grid.add_argument("--seed", type=int, action="append", default=[],
                      metavar="N",
                      help="seed axis (repeatable; each seed replicates "
                           "the grid)")
    grid.add_argument("--sample", type=int, default=DEFAULT_SAMPLE,
                      help="locations sampled per fault class "
                           "(coverage grids)")


def _build_cases(args: argparse.Namespace) -> List[AnyCase]:
    """Assemble the campaign grid from the parsed axes."""
    cases: List[AnyCase] = []
    seeds = args.seed or [0]
    if args.paper_table1:
        cases += paper_table1_cases(kernel=args.kernel)
    if args.paper_coverage:
        cases += paper_coverage_cases()
    if args.paper_prr:
        cases += paper_prr_cases(kernel=args.kernel)
    if args.geometry:
        if not args.algorithm:
            raise SweepError("a custom grid needs at least one --algorithm")
        banks = args.banks or [1]
        if args.coverage:
            for seed in seeds:
                cases += coverage_grid(args.geometry, args.algorithm,
                                       backend=args.backend,
                                       sample=args.sample, seed=seed)
        elif args.prr_grid:
            for seed in seeds:
                cases += prr_grid(args.geometry, args.algorithm,
                                  backend=args.backend, seed=seed,
                                  banks=banks,
                                  bank_interleave=args.bank_interleave,
                                  kernel=args.kernel)
        else:
            cases += sweep_grid(args.geometry, args.algorithm,
                                orders=args.order or ("row-major",),
                                backends=(args.backend,), banks=banks,
                                bank_interleave=args.bank_interleave,
                                kernel=args.kernel)
    if not cases:
        raise SweepError(
            "no campaign cases: pass a preset (--paper-table1 / "
            "--paper-coverage / --paper-prr) and/or --geometry + "
            "--algorithm axes")
    return cases


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.distrib",
        description="Distributed work-stealing campaign orchestrator.")
    commands = parser.add_subparsers(dest="command", required=True)

    init = commands.add_parser(
        "init", help="publish a campaign (grid, leases, manifest)")
    init.add_argument("root", help="campaign directory (shared filesystem)")
    init.add_argument("--workers", type=int, default=4,
                      help="worker count the lease sizes are planned for")
    init.add_argument("--min-chunk", type=int, default=DEFAULT_MIN_CHUNK,
                      help="smallest lease size (cases)")
    init.add_argument("--factor", type=int, default=DEFAULT_CHUNK_FACTOR,
                      help="guided self-scheduling divisor")
    _add_grid_arguments(init)

    worker = commands.add_parser(
        "worker", help="run one worker against a published campaign")
    worker.add_argument("root", help="campaign directory")
    worker.add_argument("--worker-id", default=None,
                        help="worker identity (default: host-pid)")
    worker.add_argument("--strategy", default="auto", choices=STRATEGIES,
                        help="SweepRunner strategy per lease")
    worker.add_argument("--processes", type=int, default=1,
                        help="per-case fan-out inside this worker")
    worker.add_argument("--lease-timeout", type=float, default=None,
                        help="steal chunks silent this long (seconds); "
                             "omit to never steal from this worker")
    worker.add_argument("--heartbeat-interval", type=float, default=None,
                        help="seconds between liveness writes "
                             "(default: lease-timeout/4)")
    worker.add_argument("--poll-interval", type=float, default=0.2,
                        help="seconds between idle ledger scans")

    run = commands.add_parser(
        "run", help="init + N local workers + supervise + verified merge")
    run.add_argument("root", help="campaign directory to create")
    run.add_argument("--workers", type=int, default=4,
                     help="local worker processes to spawn")
    run.add_argument("--min-chunk", type=int, default=DEFAULT_MIN_CHUNK)
    run.add_argument("--factor", type=int, default=DEFAULT_CHUNK_FACTOR)
    run.add_argument("--lease-timeout", type=float, default=30.0,
                     help="steal chunks silent this long (seconds)")
    run.add_argument("--strategy", default="auto", choices=STRATEGIES,
                     help="SweepRunner strategy per lease")
    run.add_argument("--deadline", type=float, default=None,
                     help="abort supervision after this many seconds")
    _add_grid_arguments(run)

    status = commands.add_parser(
        "status", help="lease/steal/case progress of a campaign")
    status.add_argument("root", help="campaign directory")
    status.add_argument("--json", action="store_true", dest="as_json",
                        help="machine-readable status on stdout")

    merge = commands.add_parser(
        "merge", help="union lease journals into verified merged.jsonl")
    merge.add_argument("root", help="campaign directory")
    merge.add_argument("--allow-incomplete", action="store_true",
                       help="merge even when grid cases are missing")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code (0 ok, 2 on error)."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "init":
            cases = _build_cases(args)
            Coordinator.create(args.root, cases, args.workers,
                               min_chunk=args.min_chunk,
                               factor=args.factor)
            status = Coordinator(args.root).status()
            print(f"campaign {args.root}: {len(cases)} cases across "
                  f"{status['leases']} leases (planned for "
                  f"{args.workers} workers)")
        elif args.command == "worker":
            worker = DistribWorker(
                args.root, worker_id=args.worker_id,
                strategy=args.strategy, processes=args.processes,
                poll_interval=args.poll_interval,
                heartbeat_interval=args.heartbeat_interval,
                lease_timeout=args.lease_timeout)
            summary = worker.run()
            print(f"worker {summary['worker']}: "
                  f"{summary['executed']} lease(s) executed, "
                  f"{len(summary['revoked'])} revoked")  # type: ignore[arg-type]
        elif args.command == "run":
            cases = _build_cases(args)
            report = run_distributed(
                args.root, cases, args.workers,
                lease_timeout=args.lease_timeout,
                strategy=args.strategy,
                min_chunk=args.min_chunk, factor=args.factor,
                supervise_deadline=args.deadline)
            print(report.summary())
        elif args.command == "status":
            status = Coordinator(args.root).status()
            if args.as_json:
                print(json.dumps(status, sort_keys=True))
            else:
                print(f"leases: {status['done']}/{status['leases']} done "
                      f"({status['claimed']} claimed, "
                      f"{status['pending']} pending), "
                      f"{status['steals']} steal(s), "
                      f"{status['cases_done']} case(s) complete")
        elif args.command == "merge":
            report = Coordinator(args.root).merge(
                require_complete=not args.allow_incomplete)
            print(report.summary())
    except (LedgerError, MergeError, SweepError, JournalError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the CLI
    sys.exit(main())
