"""The campaign orchestrator: streaming, journal/resume, shards, workers.

Covers the PR's bugfixes and the orchestration subsystem around them:

* ``SweepRunner(processes=None)`` defaults to one worker per CPU core
  (clamped to the grid's stack groups) instead of silently running
  sequentially forever;
* parallel progress streams live (``imap_unordered``) instead of only
  appearing after the whole pool drains;
* the append-only JSONL run journal, ``run(resume=True)`` semantics and
  grid-mismatch detection;
* deterministic sharding (disjoint, exhaustive, stable);
* the per-worker state (memoised orders/facades, one shared
  ``TraceCache``), including the bank-free order memo a banked power
  case and a coverage case of one shape share;
* JSON/CSV/journal round-trips of all three record kinds, including the
  stringly-typed CSV coercion of bool/seed/backend fields;
* the new CLI surface (``--journal`` / ``--resume`` / ``--shard``, warnings
  for silently-ignored flags, export failures exiting 2 instead of
  crashing with a traceback).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.sweep import (
    CoverageCase,
    CoverageRecord,
    JournalEntry,
    JournalError,
    PrrCase,
    PrrRecord,
    RunJournal,
    SweepCase,
    SweepError,
    SweepRecord,
    SweepResult,
    SweepRunner,
    case_fingerprint,
    case_kind,
    execute_case,
    load_journal,
    shard_cases,
    sweep_grid,
)
from repro.sram import ArrayGeometry
from repro.sweep import runner as runner_module
from repro.sweep.__main__ import main as sweep_main, parse_shard

from differential import run_per_case


def _fast_cases(count: int = 3):
    """A tiny vectorized grid (distinct algorithms, one geometry)."""
    return sweep_grid(["8x8"], ["MATS+", "March C-", "MATS"][:count],
                      backends=("vectorized",))


def _drop_elapsed(record):
    """A record's fields but the wall clock, which differs per run."""
    return {key: value for key, value in record.items() if key != "elapsed_s"}


def _mixed_cases():
    """One case of each kind, all cheap."""
    return [
        SweepCase(rows=8, columns=8, algorithm="MATS+", backend="vectorized"),
        CoverageCase(rows=8, columns=8, algorithm="MATS+",
                     include_coupling=False, seed=5, sample=2),
        PrrCase(rows=8, columns=64, algorithm="MATS+", backend="vectorized",
                seed=11),
    ]


# ----------------------------------------------------------------------
# processes=None regression (used to mean "sequential forever")
# ----------------------------------------------------------------------
def _two_group_cases():
    """Two geometries: two stack groups, the unit a pool maps."""
    return sweep_grid(["8x8", "8x16"], ["MATS+"], backends=("vectorized",))


def test_processes_none_defaults_to_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 7)
    runner = SweepRunner(_two_group_cases())
    assert runner.processes is None
    assert runner.resolved_processes(16) == 7     # all cores...
    assert runner.resolved_processes(3) == 3      # ...clamped to the work
    assert runner.resolved_processes() == 2       # default: the full grid
    # Cases of one geometry stack into one group: no pool at all.
    assert SweepRunner(_fast_cases(3)).resolved_processes() == 1


def test_explicit_processes_still_win_and_clamp(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 7)
    runner = SweepRunner(_two_group_cases(), processes=3)
    assert runner.resolved_processes(16) == 3
    assert runner.resolved_processes() == 2


def test_cpu_count_none_degrades_to_sequential(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert SweepRunner(_fast_cases(2)).resolved_processes(16) == 1


# ----------------------------------------------------------------------
# Live streaming progress (was: printed only after pool.map returned)
# ----------------------------------------------------------------------
def test_parallel_progress_streams_live_via_sink():
    # One deliberately slow scenario (reference backend, 48x48) first in
    # the grid, three fast vectorized ones behind it.  The old pool.map
    # implementation emitted nothing until every case finished and then
    # printed in input order; the streaming runner must emit the fast
    # cases while the slow one is still running, i.e. the slow case's
    # line arrives last.
    slow = SweepCase(rows=48, columns=48, algorithm="March C-",
                     backend="reference")
    fast = _fast_cases(3)
    lines = []
    result = SweepRunner([slow] + fast, processes=2).run(
        progress=True, progress_sink=lines.append)
    assert len(lines) == 4
    assert "March C- @ 48x48" in lines[-1], (
        "slow case should complete (and be reported) last: " + repr(lines))
    # ...while the result restores the stable input order.
    assert [record.algorithm for record in result] == \
        ["March C-"] + [case.algorithm for case in fast]
    assert result.records[0].backend_used == "reference"


def test_sequential_progress_uses_the_sink_too():
    lines = []
    result = SweepRunner(_fast_cases(2), processes=1).run(
        progress=True, progress_sink=lines.append)
    assert len(lines) == len(result) == 2
    assert lines[0].startswith("[sweep] MATS+")


# ----------------------------------------------------------------------
# Sharding
# ----------------------------------------------------------------------
def test_shards_are_disjoint_exhaustive_and_deterministic():
    cases = sweep_grid(["8x8", "16x16"], ["MATS+", "March C-", "MATS"],
                       orders=("row-major", "column-major"))
    assert len(cases) == 12
    shards = [shard_cases(cases, index, 5) for index in range(1, 6)]
    # exhaustive and disjoint: every case lands in exactly one shard
    flattened = [case for shard in shards for case in shard]
    assert sorted(map(case_fingerprint, flattened),
                  key=lambda c: json.dumps(c, sort_keys=True)) == \
        sorted(map(case_fingerprint, cases),
               key=lambda c: json.dumps(c, sort_keys=True))
    assert sum(len(shard) for shard in shards) == len(cases)
    # deterministic: the same spec always yields the same slice
    assert shard_cases(cases, 2, 5) == shards[1]
    # round-robin: shard i takes cases i-1, i-1+5, ...
    assert shards[0] == [cases[0], cases[5], cases[10]]


def test_shard_validation():
    cases = _fast_cases(2)
    with pytest.raises(SweepError):
        shard_cases(cases, 0, 2)
    with pytest.raises(SweepError):
        shard_cases(cases, 3, 2)
    with pytest.raises(SweepError):
        shard_cases(cases, 1, 0)
    assert shard_cases(cases, 2, 3) == [cases[1]]
    assert shard_cases(cases, 3, 3) == []  # legitimate empty tail shard


# ----------------------------------------------------------------------
# Journal + resume
# ----------------------------------------------------------------------
def test_journal_records_every_completed_case(tmp_path):
    path = tmp_path / "run.jsonl"
    cases = _mixed_cases()
    result = SweepRunner(cases, processes=1, journal=path).run()
    entries = load_journal(path)
    assert [entry.case_index for entry in entries] == [0, 1, 2]
    assert [entry.kind for entry in entries] == ["power", "coverage", "prr"]
    for entry, case, record in zip(entries, cases, result):
        assert entry.case == case_fingerprint(case)
        assert entry.record == json.loads(json.dumps(record.as_dict()))


def test_resume_reexecutes_only_missing_cases(tmp_path):
    path = tmp_path / "run.jsonl"
    cases = _mixed_cases()
    full = SweepRunner(cases, processes=1, journal=path).run()

    # Simulate a kill after the first two completed cases: truncate the
    # journal (keeping its header line), then resume into a fresh runner.
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:3]) + "\n")
    resumed = SweepRunner(cases, processes=1, journal=path).run(resume=True)

    assert len(resumed) == len(full) == 3
    # Restored cases come back verbatim — including their original
    # elapsed_s, which proves they were not re-executed.
    assert resumed.records[0].as_dict() == full.records[0].as_dict()
    assert resumed.records[1].as_dict() == full.records[1].as_dict()
    # The missing case re-executed: identical measurements, fresh runtime.
    drop = lambda d: {k: v for k, v in d.items() if k != "elapsed_s"}
    assert drop(resumed.records[2].as_dict()) == drop(full.records[2].as_dict())
    # The journal was completed back to one line per case.
    assert len(load_journal(path)) == 3


def test_resume_emits_summary_and_skips_runs(tmp_path):
    path = tmp_path / "run.jsonl"
    cases = _fast_cases(2)
    SweepRunner(cases, processes=1, journal=path).run()
    lines = []
    SweepRunner(cases, processes=1, journal=path).run(
        progress=True, resume=True, progress_sink=lines.append)
    assert lines == [f"[sweep] resumed 2 of 2 cases from {path}"]


def test_fresh_run_refuses_an_existing_journal(tmp_path):
    path = tmp_path / "run.jsonl"
    cases = _fast_cases(2)
    SweepRunner(cases, processes=1, journal=path).run()
    # Appending a second campaign onto the same journal would poison any
    # later resume with stale entries — it must be refused up front...
    with pytest.raises(SweepError, match="already exists"):
        SweepRunner(cases, processes=1, journal=path).run()
    # ...while resuming it, or starting over an empty file, is fine.
    assert len(SweepRunner(cases, journal=path).run(resume=True)) == 2
    path.write_text("")
    assert len(SweepRunner(cases, processes=1, journal=path).run()) == 2


def test_sequential_worker_state_is_scoped_to_the_run(clear_worker_state):
    SweepRunner(_fast_cases(2), processes=1).run()
    # The run-scoped state must not leak into the thread's slot, so
    # long-lived processes don't accumulate facades across sweeps.
    assert runner_module._get_worker_state() is None


def test_resume_without_journal_is_an_error():
    with pytest.raises(SweepError, match="resume needs a journal"):
        SweepRunner(_fast_cases(1)).run(resume=True)


def test_resume_rejects_a_journal_from_another_grid(tmp_path):
    path = tmp_path / "run.jsonl"
    SweepRunner(_fast_cases(2), processes=1, journal=path).run()
    other_grid = sweep_grid(["16x16"], ["MATS+", "March C-"],
                            backends=("vectorized",))
    with pytest.raises(SweepError, match="does not match this grid"):
        SweepRunner(other_grid, journal=path).run(resume=True)
    shorter = _fast_cases(1)
    with pytest.raises(SweepError, match="outside this 1-case grid"):
        SweepRunner(shorter, journal=path).run(resume=True)


def test_resume_with_missing_journal_runs_everything(tmp_path):
    path = tmp_path / "never-written.jsonl"
    result = SweepRunner(_fast_cases(2), processes=1,
                         journal=path).run(resume=True)
    assert len(result) == 2
    assert len(load_journal(path)) == 2


def test_journal_tolerates_torn_final_line(tmp_path):
    path = tmp_path / "run.jsonl"
    cases = _fast_cases(2)
    SweepRunner(cases, processes=1, journal=path).run()
    # A kill mid-write leaves a torn, newline-less tail: it must be
    # dropped (the case re-runs), not crash the resume.
    with path.open("a") as handle:
        handle.write('{"format": "repro-sweep-journal", "case_index": 1, ')
    assert len(load_journal(path)) == 2
    resumed = SweepRunner(cases, processes=1, journal=path).run(resume=True)
    assert len(resumed) == 2


def test_resume_append_does_not_merge_into_a_torn_tail(tmp_path):
    path = tmp_path / "run.jsonl"
    cases = _fast_cases(2)
    SweepRunner(cases, processes=1, journal=path).run()
    # Kill simulation: case 1's line is torn mid-write (no newline).
    lines = path.read_text().splitlines()
    path.write_text(lines[0] + "\n" + lines[1][:40])
    resumed = SweepRunner(cases, processes=1, journal=path).run(resume=True)
    assert len(resumed) == 2
    # The re-executed case's entry must be a line of its own, not merged
    # into the torn fragment — the journal stays loadable forever after.
    entries = load_journal(path)
    assert [entry.case_index for entry in entries] == [0, 1]
    assert path.read_bytes().endswith(b"\n")
    again = SweepRunner(cases, processes=1, journal=path).run(resume=True)
    assert len(again) == 2


def test_resume_after_a_lost_final_newline_journals_every_case_once(
        tmp_path):
    # A kill between an entry's last byte and its newline leaves a line
    # that parses but never counted.  Resume must re-run that case and
    # journal it again, not restore it and then cut it from the journal.
    path = tmp_path / "run.jsonl"
    cases = _fast_cases(3)
    first = SweepRunner(cases, processes=1, journal=path).run()
    path.write_bytes(path.read_bytes()[:-1])
    resumed = SweepRunner(cases, processes=1, journal=path).run(resume=True)
    entries = load_journal(path)
    assert sorted(entry.case_index for entry in entries) == [0, 1, 2]
    assert path.read_bytes().endswith(b"\n")
    drop = [_drop_elapsed(record.as_dict()) for record in first.records]
    assert [_drop_elapsed(entry.record) for entry in entries] == drop
    assert [_drop_elapsed(record.as_dict())
            for record in resumed.records] == drop


def test_journal_rejects_corrupt_complete_lines(tmp_path):
    path = tmp_path / "corrupt.jsonl"
    path.write_text("not json at all\n")
    with pytest.raises(JournalError):
        load_journal(path)
    path.write_text('{"format": "something-else"}\n')
    with pytest.raises(JournalError):
        load_journal(path)


def test_unwritable_journal_fails_before_any_case_runs(tmp_path):
    path = tmp_path / "no-such-dir" / "run.jsonl"
    executed = []
    runner = SweepRunner(_fast_cases(2), processes=1, journal=path)
    with pytest.raises(OSError):
        runner.run(progress=True, progress_sink=executed.append)
    assert executed == []  # no measurement was spent before the failure


def test_kill_during_first_append_still_resumes(tmp_path):
    # A kill -9 during the very first journal write leaves a lone torn
    # fragment; it must read as an empty journal so --resume re-runs the
    # whole grid, not dead-end with a corruption error.
    path = tmp_path / "first.jsonl"
    cases = _fast_cases(2)
    SweepRunner(cases, processes=1, journal=path).run()
    fragment = path.read_text().splitlines()[0][:37]
    path.write_text(fragment)  # only a torn first line, no newline
    assert load_journal(path) == []
    resumed = SweepRunner(cases, processes=1, journal=path).run(resume=True)
    assert len(resumed) == 2
    assert len(load_journal(path)) == 2


def test_torn_tail_is_only_dropped_from_a_valid_journal(tmp_path):
    # A file whose only content is an unparseable fragment that does NOT
    # look like the start of a journal line is foreign or corrupt, not a
    # torn journal — it must fail loudly.
    path = tmp_path / "fragment.jsonl"
    # Not a prefix of an entry line ('{"case"...') nor of the header line
    # ('{"format": "repro-sweep-journal-header"...').
    path.write_text('{"format": "foreign-file')
    with pytest.raises(JournalError):
        load_journal(path)
    # A decodable-but-foreign final line (wrong format tag) also fails.
    SweepRunner(_fast_cases(1), processes=1,
                journal=tmp_path / "ok.jsonl").run()
    with (tmp_path / "ok.jsonl").open("a") as handle:
        handle.write('{"format": "something-else"}')  # no trailing newline
    with pytest.raises(JournalError):
        load_journal(tmp_path / "ok.jsonl")


def test_append_open_leaves_foreign_content_whole(tmp_path):
    # Only a torn tail is cut before appending; a file that ends in
    # something no journal writes is refused and left as it was.
    path = tmp_path / "foreign.jsonl"
    content = '{"format": "something-else"}\n{"format": "other"}'
    path.write_text(content)
    with pytest.raises(JournalError, match="unrecognised content"):
        RunJournal(path).open()
    assert path.read_text() == content


def test_torn_header_only_journal_reads_as_empty(tmp_path):
    # A kill -9 during the very first header write leaves a lone torn
    # header fragment. All three readers must agree it means "no journal
    # yet": read_header() -> None (it used to raise), load() -> [], and
    # both a fresh run and --resume must start over cleanly.
    path = tmp_path / "run.jsonl"
    cases = _fast_cases(2)
    SweepRunner(cases, processes=1, journal=path).run()
    header_line = path.read_text().splitlines()[0]
    path.write_text(header_line[:25])  # torn mid-header, no newline
    assert RunJournal(path).read_header() is None
    assert RunJournal(path).load() == []
    assert load_journal(path) == []
    resumed = SweepRunner(cases, processes=1, journal=path).run(resume=True)
    assert len(resumed) == 2
    assert RunJournal(path).read_header() is not None

    path.write_text(header_line[:25])
    fresh = SweepRunner(cases, processes=1, journal=path).run()
    assert len(fresh) == 2
    assert len(load_journal(path)) == 2


def test_entry_less_journal_restarts_fresh(tmp_path):
    # A journal holding a header but zero entries records a run that
    # never measured anything — a fresh (non-resume) run must restart
    # it, not refuse with "journal already exists".
    path = tmp_path / "run.jsonl"
    cases = _fast_cases(2)
    SweepRunner(cases, processes=1, journal=path).run()
    header_line = path.read_text().splitlines()[0]

    path.write_text(header_line + "\n")  # header-only variant
    result = SweepRunner(cases, processes=1, journal=path).run()
    assert len(result) == 2
    assert len(load_journal(path)) == 2
    # The stale header was replaced, not stacked under a second one.
    assert path.read_text().count("journal-header") == 1

    path.write_text("")  # zero-byte variant
    result = SweepRunner(cases, processes=1, journal=path).run()
    assert len(result) == 2

    # One completed entry is real progress: still refused.
    with pytest.raises(SweepError, match="already exists"):
        SweepRunner(cases, processes=1, journal=path).run()


def test_header_plus_torn_entry_resumes(tmp_path):
    # Kill -9 after the header but mid-first-entry: the header survives,
    # the torn entry is dropped, and --resume re-runs the whole grid.
    path = tmp_path / "run.jsonl"
    cases = _fast_cases(2)
    SweepRunner(cases, processes=1, journal=path).run()
    lines = path.read_text().splitlines()
    path.write_text(lines[0] + "\n" + lines[1][:40])
    assert RunJournal(path).read_header() is not None  # header intact
    assert load_journal(path) == []
    resumed = SweepRunner(cases, processes=1, journal=path).run(resume=True)
    assert len(resumed) == 2
    assert [e.case_index for e in load_journal(path)] == [0, 1]


def test_read_header_still_rejects_foreign_content(tmp_path):
    # The torn-fragment tolerance must not swallow foreign files: content
    # that is neither a header nor the start of a journal line fails
    # loudly from read_header(), exactly as it does from load().
    path = tmp_path / "foreign.jsonl"
    path.write_text('{"format": "foreign-file')
    with pytest.raises(JournalError, match="unrecognised content"):
        RunJournal(path).read_header()
    # A *complete* non-header first line is simply "no header" here —
    # judging whether it is a valid entry line stays load()'s job.
    path.write_text("complete garbage\n")
    assert RunJournal(path).read_header() is None
    with pytest.raises(JournalError):
        RunJournal(path).load()


def test_journal_rejects_unknown_versions(tmp_path):
    path = tmp_path / "future.jsonl"
    path.write_text(json.dumps({
        "format": "repro-sweep-journal", "version": 99, "case_index": 0,
        "kind": "power", "case": {}, "record": {}}) + "\n")
    with pytest.raises(JournalError, match="version 99"):
        load_journal(path)


# ----------------------------------------------------------------------
# Round-trips of all three record kinds (bool/seed/backend coercion)
# ----------------------------------------------------------------------
def _sample_records():
    """One hand-built record per kind, with deliberately false booleans."""
    power = SweepRecord(
        rows=8, columns=8, bits_per_word=1, algorithm="MATS+",
        order="row-major", any_direction="up", backend="auto",
        backend_used="reference", cycles_per_mode=320,
        functional_power_w=1e-4, low_power_power_w=2e-4,
        measured_prr=-0.5, analytical_prr=-0.1, analytical_prr_recharge=-0.2,
        passed=False, elapsed_s=0.25)
    coverage = CoverageRecord(
        rows=8, columns=8, algorithm="March C-",
        orders="row-major+column-major", any_direction="up", backend="auto",
        backend_used="vectorized", seed=42, sample=3, locations=8,
        total_faults=168, detected_faults=160, coverage=160 / 168,
        invariant=False, disagreements=2, elapsed_s=1.5)
    prr = PrrRecord(
        rows=8, columns=64, bits_per_word=1, algorithm="MATS+",
        backend="vectorized", backend_used="vectorized", seed=7,
        cycles_per_mode=2560, functional_energy_j=1e-9,
        low_power_energy_j=5e-10, functional_power_w=1e-4,
        low_power_power_w=5e-5, measured_prr=0.5, analytical_prr=0.52,
        analytical_prr_bracket=0.48, within_bracket=False,
        functional_planner="FunctionalModePlanner",
        low_power_planner="LowPowerTestPlanner", passed=False, elapsed_s=0.1)
    return power, coverage, prr


@pytest.mark.parametrize("index,kind", [(0, "power"), (1, "coverage"),
                                        (2, "prr")])
def test_csv_round_trip_preserves_bool_seed_backend_fields(tmp_path, index,
                                                           kind):
    record = _sample_records()[index]
    path = tmp_path / f"{kind}.csv"
    SweepResult([record]).to_csv(path)
    restored = SweepResult.from_csv(path).records[0]
    assert type(restored) is type(record)
    # CSV delivers strings; the importer must coerce them back.
    assert restored.as_dict() == record.as_dict()
    assert restored.backend == record.backend
    assert restored.backend_used == record.backend_used
    if hasattr(record, "seed"):
        assert isinstance(restored.seed, int)
    for name, value in record.as_dict().items():
        if isinstance(value, bool):
            assert isinstance(getattr(restored, name), bool)
            assert getattr(restored, name) is value


@pytest.mark.parametrize("index", [0, 1, 2])
def test_csv_written_before_defaulted_fields_imports_as_its_kind(tmp_path,
                                                                 index):
    # Exports that predate the defaulted columns (banks, kernel, ...) are
    # recognised by their header and import with the defaults.
    import csv
    from dataclasses import MISSING, fields

    record = _sample_records()[index]
    path = tmp_path / "old.csv"
    SweepResult([record]).to_csv(path)
    kept = [spec.name for spec in fields(record) if spec.default is MISSING]
    with path.open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=kept,
                                extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    restored = SweepResult.from_csv(path).records[0]
    assert type(restored) is type(record)
    assert restored.as_dict() == record.as_dict()


def test_json_round_trip_of_all_kinds_together(tmp_path):
    records = list(_sample_records())
    path = SweepResult(records).to_json(tmp_path / "mixed.json")
    restored = SweepResult.from_json(path)
    assert [r.as_dict() for r in restored] == [r.as_dict() for r in records]
    assert [type(r).__name__ for r in restored] == \
        ["SweepRecord", "CoverageRecord", "PrrRecord"]


def test_journal_round_trip_of_all_kinds(tmp_path):
    path = tmp_path / "kinds.jsonl"
    cases = _mixed_cases()
    records = _sample_records()
    with RunJournal(path) as journal:
        for index, (case, record) in enumerate(zip(cases, records)):
            journal.append(JournalEntry(
                case_index=index, kind=case_kind(case),
                case=case_fingerprint(case), record=record.as_dict()))
    entries = load_journal(path)
    assert len(entries) == 3
    for entry, record in zip(entries, records):
        restored = type(record).from_dict(entry.record)
        assert restored.as_dict() == record.as_dict()


# ----------------------------------------------------------------------
# Worker state: memoised orders/facades, shared trace cache
# ----------------------------------------------------------------------
@pytest.fixture
def clear_worker_state():
    """Run the test with an empty thread-local worker-state slot, and
    drop whatever the test installed afterwards."""
    runner_module._set_worker_state(None)
    yield
    runner_module._set_worker_state(None)


def test_worker_state_reuses_controllers_and_sessions(clear_worker_state):
    state = runner_module._WorkerState()
    prr = [PrrCase(rows=8, columns=64, algorithm="MATS+",
                   backend="vectorized", seed=seed) for seed in (1, 2)]
    power = _fast_cases(2)
    coverage = [CoverageCase(rows=8, columns=8, algorithm="MATS+",
                             include_coupling=False, sample=2, seed=seed)
                for seed in (1, 2)]
    # Same configuration axes -> the same facade instance.
    assert state.controller_for(prr[0]) is state.controller_for(prr[1])
    assert state.session_for(power[0]) is state.session_for(power[1])
    assert state.simulator_for(coverage[0]) is \
        state.simulator_for(coverage[1])
    geometry = coverage[0].geometry()
    assert state.order_for("row-major", geometry) is \
        state.order_for("row-major", geometry)
    # Orders are keyed by shape: the bank map never reaches them.
    banked = ArrayGeometry(rows=8, columns=8, banks=2)
    assert state.order_for("row-major", banked) is \
        state.order_for("row-major", geometry)


def test_worker_state_compiles_each_shared_trace_once(clear_worker_state):
    # A seed sweep replays the same algorithm x order traces: executed
    # under one worker state, they compile on first use, once.  The
    # reference engine replays them; the vectorized engine needs none.
    cases = [CoverageCase(rows=8, columns=8, algorithm="MATS+",
                          include_coupling=False, sample=2, seed=seed,
                          backend="reference")
             for seed in (1, 2)]
    state = runner_module._WorkerState()
    runner_module._set_worker_state(state)
    runner_module.execute_case(cases[0])
    compiled = len(state.traces)
    assert compiled == len(cases[0].orders)
    runner_module.execute_case(cases[1])
    assert len(state.traces) == compiled
    vectorized = CoverageCase(rows=8, columns=8, algorithm="March C-",
                              sample=2, backend="vectorized")
    assert runner_module.execute_case(vectorized).backend_used == "vectorized"
    assert len(state.traces) == compiled


def test_worker_state_results_match_fresh_facades(clear_worker_state):
    cases = _mixed_cases()
    fresh = [runner_module.execute_case(case) for case in cases]
    runner_module._init_worker()
    warmed = [runner_module.execute_case(case) for case in cases]
    drop = lambda d: {k: v for k, v in d.items() if k != "elapsed_s"}
    for lhs, rhs in zip(fresh, warmed):
        assert drop(lhs.as_dict()) == drop(rhs.as_dict())


@pytest.mark.parametrize("path", ["engine", "per-case"])
def test_banked_power_then_coverage_of_one_shape(path):
    # The order memo once kept a banked power case's order for a later
    # coverage case of the same rows x columns, which the fault campaign
    # rejected for its bank-free geometry.  Both paths share one worker
    # state between the two cases: the engine's stacked pass and the
    # power case's own executor.
    cases = [SweepCase(rows=8, columns=16, algorithm="MATS+",
                       backend="vectorized", banks=2),
             CoverageCase(rows=8, columns=16, algorithm="MATS+",
                          backend="vectorized", include_coupling=False,
                          sample=2)]
    if path == "engine":
        records = SweepRunner(cases, processes=1).run(progress=False).records
    else:
        records = run_per_case(cases)
    power, coverage = records
    assert power.banks == 2 and power.passed
    assert coverage.backend_used == "vectorized" and coverage.invariant
    # The same records as each case run alone on fresh state.
    drop = lambda d: {k: v for k, v in d.items() if k != "elapsed_s"}
    assert [drop(record.as_dict()) for record in records] == \
        [drop(execute_case(case).as_dict()) for case in cases]


# ----------------------------------------------------------------------
# CLI: journal/resume/shard, warnings, export failures
# ----------------------------------------------------------------------
def test_parse_shard():
    assert parse_shard("2/4") == (2, 4)
    with pytest.raises(SweepError):
        parse_shard("2-4")
    with pytest.raises(SweepError):
        parse_shard("a/b")


def _cli_grid(*extra):
    return ["--geometry", "8x8", "--algorithm", "MATS+",
            "--algorithm", "March C-", "--backend", "vectorized",
            "--quiet", *extra]


def test_cli_journal_then_resume_completes_the_campaign(tmp_path, capsys):
    journal = tmp_path / "run.jsonl"
    out = tmp_path / "out.json"
    assert sweep_main(_cli_grid("--journal", str(journal))) == 0
    lines = journal.read_text().splitlines()
    assert len(lines) == 3  # run-metadata header + one line per case
    # Kill simulation: drop the second completed case, then resume.
    journal.write_text(lines[0] + "\n" + lines[1] + "\n")
    assert sweep_main(_cli_grid("--journal", str(journal), "--resume",
                                "--json", str(out))) == 0
    assert len(journal.read_text().splitlines()) == 3
    assert len(SweepResult.from_json(out)) == 2
    capsys.readouterr()


def test_cli_shard_slices_are_disjoint_and_exhaustive(tmp_path, capsys):
    outs = [tmp_path / "s1.json", tmp_path / "s2.json"]
    assert sweep_main(_cli_grid("--shard", "1/2", "--json", str(outs[0]))) == 0
    assert sweep_main(_cli_grid("--shard", "2/2", "--json", str(outs[1]))) == 0
    shards = [SweepResult.from_json(path) for path in outs]
    assert [len(shard) for shard in shards] == [1, 1]
    assert {shard.records[0].algorithm for shard in shards} == \
        {"MATS+", "March C-"}
    capsys.readouterr()
    # The report title counts the shard's scenarios, not the full grid's.
    args = [a for a in _cli_grid("--shard", "1/2") if a != "--quiet"]
    assert sweep_main(args) == 0
    out = capsys.readouterr().out
    assert "(1 scenarios) — shard 1/2" in out
    assert "(2 scenarios)" not in out


def test_cli_rejects_bad_shards_and_resume_without_journal(capsys):
    assert sweep_main(_cli_grid("--shard", "3/2")) == 2
    assert "shard index" in capsys.readouterr().err
    assert sweep_main(_cli_grid("--shard", "nope")) == 2
    assert "must look like I/N" in capsys.readouterr().err
    assert sweep_main(_cli_grid("--resume")) == 2
    assert "--resume needs --journal" in capsys.readouterr().err
    # An empty shard of a tiny grid is reported, not silently a no-op.
    assert sweep_main(["--geometry", "8x8", "--algorithm", "MATS+",
                       "--quiet", "--shard", "2/2"]) == 2
    assert "is empty" in capsys.readouterr().err


def test_cli_resume_with_corrupt_journal_exits_2(tmp_path, capsys):
    journal = tmp_path / "corrupt.jsonl"
    journal.write_text("this is not a journal line\n")
    code = sweep_main(_cli_grid("--journal", str(journal), "--resume"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_cli_export_failure_exits_2_without_traceback(tmp_path, capsys):
    missing_dir = tmp_path / "no-such-dir" / "out.json"
    code = sweep_main(["--geometry", "8x8", "--algorithm", "MATS+",
                       "--backend", "vectorized", "--quiet",
                       "--json", str(missing_dir)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_cli_warns_about_silently_ignored_flags(capsys):
    assert sweep_main(["--prr-grid", "--geometry", "8x64",
                       "--algorithm", "MATS+", "--backend", "vectorized",
                       "--order", "column-major", "--quiet"]) == 0
    err = capsys.readouterr().err
    assert "warning: --order is ignored" in err

    assert sweep_main(["--geometry", "8x8", "--algorithm", "MATS+",
                       "--backend", "vectorized", "--sample", "4",
                       "--quiet"]) == 0
    err = capsys.readouterr().err
    assert "warning: --sample only affects fault-coverage campaigns" in err

    assert sweep_main(["--paper-coverage", "--order", "snake", "--quiet",
                       "--sample", "0", "--backend", "vectorized"]) == 0
    err = capsys.readouterr().err
    assert "warning: --order is overridden by the --paper/--paper-coverage " \
        "presets" in err

    assert sweep_main(["--geometry", "8x8", "--algorithm", "MATS+",
                       "--backend", "vectorized", "--seed", "7",
                       "--quiet"]) == 0
    err = capsys.readouterr().err
    assert "warning: --seed only affects coverage and PRR campaigns" in err


def test_cli_does_not_warn_when_flags_apply(capsys):
    assert sweep_main(["--coverage", "--geometry", "8x8",
                       "--algorithm", "MATS+", "--sample", "2",
                       "--order", "row-major", "--quiet"]) == 0
    assert "warning" not in capsys.readouterr().err
