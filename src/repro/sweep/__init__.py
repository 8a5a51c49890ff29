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

from .._lazy import lazy_exports

#: The submodule that defines each exported name, imported on first access.
_EXPORTS = {
    "JournalEntry": ".journal",
    "JournalError": ".journal",
    "MergeError": ".merge",
    "MergeReport": ".merge",
    "RunJournal": ".journal",
    "load_grid_fingerprints": ".merge",
    "load_journal": ".journal",
    "merge_journals": ".merge",
    "CoverageCase": ".runner",
    "CoverageRecord": ".runner",
    "DEFAULT_SAMPLE": ".runner",
    "INVARIANCE_ORDERS": ".runner",
    "PRR_BRACKET_SLACK": ".runner",
    "PrrCase": ".runner",
    "PrrRecord": ".runner",
    "SweepCase": ".runner",
    "SweepError": ".runner",
    "SweepRecord": ".runner",
    "SweepResult": ".runner",
    "SweepRunner": ".runner",
    "case_fingerprint": ".runner",
    "case_from_dict": ".runner",
    "case_kind": ".runner",
    "coverage_grid": ".runner",
    "execute_case": ".runner",
    "fingerprint_digest": ".runner",
    "paper_coverage_cases": ".runner",
    "paper_prr_cases": ".runner",
    "paper_table1_cases": ".runner",
    "parse_geometry": ".runner",
    "prr_grid": ".runner",
    "run_case": ".runner",
    "run_coverage_case": ".runner",
    "run_prr_case": ".runner",
    "shard_cases": ".runner",
    "sweep_grid": ".runner",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
