"""Paper-scale sweep runner: batch grids of measurement scenarios.

* :mod:`repro.sweep.runner` — :class:`SweepRunner` and friends: grid
  construction (test-power scenarios, fault-coverage and PRR campaigns),
  streaming multiprocessing fan-out over workers that memoise orders,
  facades and compiled traces, deterministic sharding, JSON/CSV export;
* :mod:`repro.sweep.journal` — the append-only JSONL run journal that
  makes long campaigns durable and resumable;
* :mod:`repro.sweep.__main__` — the ``python -m repro.sweep`` command line.

Quickstart::

    from repro.sweep import SweepRunner, coverage_grid, sweep_grid

    cases = sweep_grid(["64x64", "512x512"], ["March C-", "MATS+"])
    cases += coverage_grid(["64x64"], ["March C-"])
    result = SweepRunner(cases, journal="sweep.jsonl").run(progress=True)
    print(result.render())
    result.to_json("sweep.json")

An interrupted campaign resumes with ``run(resume=True)`` (re-executing
only the cases missing from the journal), and a grid splits across
machines with ``shard_cases(cases, index, total)``.
"""

from .journal import JournalEntry, JournalError, RunJournal, load_journal
from .merge import (
    MergeError,
    MergeReport,
    load_grid_fingerprints,
    merge_journals,
)
from .runner import (
    CoverageCase,
    CoverageRecord,
    DEFAULT_SAMPLE,
    INVARIANCE_ORDERS,
    PRR_BRACKET_SLACK,
    PrrCase,
    PrrRecord,
    SweepCase,
    SweepError,
    SweepRecord,
    SweepResult,
    SweepRunner,
    case_fingerprint,
    case_from_dict,
    case_kind,
    coverage_grid,
    execute_case,
    fingerprint_digest,
    paper_coverage_cases,
    paper_prr_cases,
    paper_table1_cases,
    parse_geometry,
    prr_grid,
    run_case,
    run_coverage_case,
    run_prr_case,
    shard_cases,
    sweep_grid,
)

__all__ = [
    "JournalEntry",
    "JournalError",
    "MergeError",
    "MergeReport",
    "RunJournal",
    "load_grid_fingerprints",
    "load_journal",
    "merge_journals",
    "CoverageCase",
    "CoverageRecord",
    "DEFAULT_SAMPLE",
    "INVARIANCE_ORDERS",
    "PRR_BRACKET_SLACK",
    "PrrCase",
    "PrrRecord",
    "SweepCase",
    "SweepError",
    "SweepRecord",
    "SweepResult",
    "SweepRunner",
    "case_fingerprint",
    "case_from_dict",
    "case_kind",
    "coverage_grid",
    "execute_case",
    "fingerprint_digest",
    "paper_coverage_cases",
    "paper_prr_cases",
    "paper_table1_cases",
    "parse_geometry",
    "prr_grid",
    "run_case",
    "run_coverage_case",
    "run_prr_case",
    "shard_cases",
    "sweep_grid",
]
