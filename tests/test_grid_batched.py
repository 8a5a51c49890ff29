"""The grid engine: record equivalence, stack groups, pooling, fallbacks.

Every sweep evaluates its grid through per-geometry stacked flat-kernel
passes (:class:`repro.engine.grid.BatchedGridEngine`).  The contract is
strict: **every** record — power, PRR and coverage alike — must be
field-for-field identical to what each case's own executor measures
(``execute_case`` on one fresh worker state; ``elapsed_s``, a wall-clock
observation, is the one exempt field), in-process and on a pool alike.
These tests pin that contract across the full standard library, both
planners (both operating modes of every scenario), several array sizes
and all three record kinds, plus the stack groups a pool maps, the
journal's run-metadata header and the per-case fallback for scenarios the
stacked pass cannot represent.
"""

from __future__ import annotations

import json

import pytest

from repro.engine.grid import stack_groups
from repro.march.library import PAPER_TABLE1_ALGORITHMS
from repro.sweep.journal import RunJournal, load_journal
from repro.sweep.runner import (
    CoverageCase,
    PrrCase,
    SweepCase,
    SweepError,
    SweepRunner,
    coverage_grid,
    prr_grid,
    sweep_grid,
)

from differential import (
    assert_identical_records,
    run_engine_and_per_case as run_both,
)

ALGORITHMS = [algorithm.name for algorithm in PAPER_TABLE1_ALGORITHMS]
SIZES = ["8x16", "16x64"]


# ----------------------------------------------------------------------
# Field-for-field record equivalence, per record kind
# ----------------------------------------------------------------------
def test_power_records_identical_to_per_case():
    """The whole library x two orders x two sizes, both planners per case."""
    cases = sweep_grid(SIZES, ALGORITHMS,
                       orders=("row-major", "column-major"),
                       backends=("vectorized",))
    assert_identical_records(*run_both(cases))


def test_prr_records_identical_to_per_case():
    """The whole library through the BIST path on two sizes."""
    cases = prr_grid(SIZES, ALGORITHMS, backend="vectorized", seed=3)
    assert_identical_records(*run_both(cases))


def test_coverage_records_identical_to_per_case():
    """Coverage campaigns run their own executor inside the engine,
    records unchanged."""
    cases = coverage_grid(["8x8", "16x16"], ["MATS+", "March C-"], sample=2)
    assert_identical_records(*run_both(cases))


def test_mixed_grid_identical_and_in_input_order():
    """A grid mixing all three kinds and both backends: identical records,
    emitted (and journaled) in input order despite group stacking."""
    cases = [
        PrrCase(rows=8, columns=64, algorithm="MATS+", backend="vectorized"),
        SweepCase(rows=8, columns=16, algorithm="March C-",
                  backend="vectorized"),
        CoverageCase(rows=8, columns=8, algorithm="MATS+",
                     include_coupling=False, sample=2),
        SweepCase(rows=8, columns=16, algorithm="MATS+", backend="auto"),
        PrrCase(rows=8, columns=64, algorithm="March G", backend="auto"),
        SweepCase(rows=8, columns=16, algorithm="MATS+", backend="reference"),
    ]
    per_case, engine = run_both(cases)
    assert_identical_records(per_case, engine)


def test_unsupported_low_power_falls_back_per_case():
    """The snake order's low-power run is not bulk-replayable: under
    backend='auto' the case's own executor measures it
    reference+vectorized, and the engine must reroute and report exactly
    the same."""
    cases = sweep_grid(["8x16"], ["March C-", "MATS+"], orders=("snake",),
                       backends=("auto",))
    per_case, engine = run_both(cases)
    assert_identical_records(per_case, engine)
    assert {record.backend_used for record in engine} == \
        {"reference+vectorized"}


# ----------------------------------------------------------------------
# Stack groups and the pool that maps them
# ----------------------------------------------------------------------
def _vectorized_cases(count: int = 2):
    return sweep_grid(["8x8"], ALGORITHMS[:count], backends=("vectorized",))


def _two_geometry_mixed_grid():
    """Power cases on two geometries, interleaved, plus a coverage, a PRR
    and a reference-backend case: five stack groups, two unstackable."""
    return [
        SweepCase(rows=8, columns=16, algorithm="March C-",
                  backend="vectorized"),
        SweepCase(rows=16, columns=16, algorithm="MATS+",
                  backend="vectorized"),
        CoverageCase(rows=8, columns=8, algorithm="MATS+",
                     include_coupling=False, sample=2),
        SweepCase(rows=8, columns=16, algorithm="MATS+",
                  backend="vectorized"),
        PrrCase(rows=8, columns=64, algorithm="March G",
                backend="vectorized"),
        SweepCase(rows=16, columns=16, algorithm="March C-",
                  backend="vectorized", order="column-major"),
        SweepCase(rows=8, columns=16, algorithm="MATS+",
                  backend="reference"),
    ]


def test_stack_groups_key_geometry_and_isolate_unstackable_cases():
    groups = stack_groups(_two_geometry_mixed_grid())
    assert [positions for _, positions in groups] == \
        [[0, 3], [1, 5], [2], [4], [6]]
    keys = [key for key, _ in groups]
    assert keys[2] is None and keys[4] is None  # coverage, reference
    assert [key[0] for key in keys if key is not None] == \
        ["power", "power", "prr"]


def test_pooled_and_in_process_records_identical_in_input_order():
    """processes=2 maps the stack groups over a pool; the records match
    the in-process engine's field for field, in input order."""
    cases = _two_geometry_mixed_grid()
    in_process = SweepRunner(cases, processes=1).run()
    pooled = SweepRunner(cases, processes=2).run()
    assert_identical_records(in_process, pooled)
    assert [record.algorithm for record in pooled] == \
        [case.algorithm for case in cases]


def test_processes_clamp_to_stack_groups():
    cases = _two_geometry_mixed_grid()
    assert SweepRunner(cases, processes=16).resolved_processes() == 5
    # One geometry is one group: nothing to fan out.
    assert SweepRunner(_vectorized_cases(), processes=4) \
        .resolved_processes() == 1


def test_only_the_batched_strategy_spelling_is_accepted():
    runner = SweepRunner(_vectorized_cases(), strategy="batched")
    assert runner.strategy_used == "batched"
    runner.run()
    assert runner.strategy_used == "batched"
    for strategy in ("percase", "auto", "turbo"):
        with pytest.raises(SweepError, match="cannot be chosen"):
            SweepRunner(_vectorized_cases(), strategy=strategy)


# ----------------------------------------------------------------------
# Journal header
# ----------------------------------------------------------------------
def test_fresh_journal_records_run_header(tmp_path):
    path = tmp_path / "run.jsonl"
    cases = _vectorized_cases()
    SweepRunner(cases, journal=path).run()
    header = RunJournal(path).read_header()
    assert header == {"cases": len(cases), "pending": len(cases)}
    # The header is metadata: entry loading and resume ignore it.
    assert len(load_journal(path)) == len(cases)
    resumed = SweepRunner(cases, journal=path).run(resume=True)
    assert len(resumed) == len(cases)


def test_resume_keeps_the_original_header(tmp_path):
    path = tmp_path / "run.jsonl"
    cases = _vectorized_cases()
    SweepRunner(cases, journal=path).run()
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:2]) + "\n")  # header + first case
    SweepRunner(cases, processes=1, journal=path).run(resume=True)
    header = RunJournal(path).read_header()
    assert header is not None and header["cases"] == len(cases)
    assert len(load_journal(path)) == len(cases)
    # Exactly one header line, still the leading one.
    body = path.read_text().splitlines()
    headers = [line for line in body
               if line.startswith('{"format": "repro-sweep-journal-header"')]
    assert headers == [body[0]]


def test_headerless_journals_still_resume(tmp_path):
    """Journals written before the header existed resume unchanged."""
    path = tmp_path / "run.jsonl"
    cases = _vectorized_cases()
    SweepRunner(cases, journal=path).run()
    lines = [line for line in path.read_text().splitlines()
             if not line.startswith('{"format": "repro-sweep-journal-header"')]
    path.write_text("\n".join(lines) + "\n")
    assert RunJournal(path).read_header() is None
    resumed = SweepRunner(cases, journal=path).run(resume=True)
    assert len(resumed) == len(cases)
    records = [json.loads(line)["record"]
               for line in path.read_text().splitlines()
               if line.startswith('{"case"')]
    assert len(records) == len(cases)


def test_measure_batch_requires_a_vectorized_controller():
    """measure_batch is the stacked vectorized API: a reference-backend
    controller must refuse instead of silently running the vectorized
    campaign behind the dispatch contract's back."""
    from repro.bist import BistController
    from repro.bist.controller import BistError
    from repro.march.library import get_algorithm
    from repro.sram import ArrayGeometry

    controller = BistController(ArrayGeometry(8, 16), backend="reference")
    with pytest.raises(BistError, match="reference backend"):
        controller.measure_batch([(get_algorithm("MATS+"), True)])
