"""The distributed orchestrator: ledger protocol, workers, kill-and-steal,
and the verified journal merge.

Four layers:

* lease planning and the durable ledger's state machine (claim tokens,
  heartbeats, generation-bumping expiry) — pure filesystem protocol;
* in-process workers (threads sharing one ledger) completing campaigns
  with exactly-once execution;
* the subprocess integration: a worker SIGKILLed mid-lease, its chunk
  re-leased exactly once, no case executed twice — asserted from the
  journals themselves;
* ``merge_journals`` / ``python -m repro.sweep merge``: verified unions,
  duplicate tolerance (``elapsed_s`` only), conflict rejection.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.distrib import (
    Coordinator,
    DistribWorker,
    LeaseLedger,
    LeaseRevoked,
    LedgerError,
    plan_leases,
    spawn_worker,
)
from repro.sweep import (
    JournalError,
    MergeError,
    RunJournal,
    SweepError,
    SweepRunner,
    case_fingerprint,
    fingerprint_digest,
    load_grid_fingerprints,
    load_journal,
    merge_journals,
    sweep_grid,
)
from repro.sweep.__main__ import main as sweep_main

REPO_SRC = Path(__file__).resolve().parents[1] / "src"


def _tiny_cases(count=4):
    """Small, fast, distinct vectorized power cases."""
    geometries = ["8x8", "8x16", "16x8", "16x16", "16x32", "32x16",
                  "32x32", "8x32"]
    assert count <= len(geometries)
    return sweep_grid(geometries[:count], ["MATS+"],
                      backends=("vectorized",))


def _all_journal_entries(ledger):
    entries = []
    for journal in sorted(ledger.journal_dir.glob("*.jsonl")):
        entries.extend(load_journal(journal))
    return entries


def _execution_counts(ledger):
    """How many times each distinct case was executed, campaign-wide.

    Journal entries are appended once per *execution* (restores rewrite
    nothing), so cross-journal digest counts are the double-execution
    audit.
    """
    counts = {}
    for entry in _all_journal_entries(ledger):
        digest = fingerprint_digest(entry.case)
        counts[digest] = counts.get(digest, 0) + 1
    return counts


# ----------------------------------------------------------------------
# Lease planning
# ----------------------------------------------------------------------
class TestPlanLeases:
    def test_chunks_partition_the_grid(self):
        chunks = plan_leases(101, workers=4)
        flat = [index for chunk in chunks for index in chunk]
        assert flat == list(range(101))

    def test_chunks_shrink_toward_the_tail(self):
        sizes = [len(chunk) for chunk in plan_leases(1000, workers=4)]
        assert sizes[0] == 125        # ceil(1000 / (2 * 4))
        assert sizes[0] > sizes[-1]   # guided self-scheduling decay
        assert sizes == sorted(sizes, reverse=True)

    def test_min_chunk_floors_the_tail(self):
        chunks = plan_leases(100, workers=4, min_chunk=10)
        assert all(len(chunk) >= 10 for chunk in chunks[:-1])
        flat = [index for chunk in chunks for index in chunk]
        assert flat == list(range(100))

    def test_single_worker_single_chunk_when_floored(self):
        assert plan_leases(4, workers=1, min_chunk=4) == [[0, 1, 2, 3]]

    @pytest.mark.parametrize("kwargs", [
        {"n_cases": 0, "workers": 1},
        {"n_cases": 4, "workers": 0},
        {"n_cases": 4, "workers": 1, "min_chunk": 0},
        {"n_cases": 4, "workers": 1, "factor": 0},
    ])
    def test_bad_parameters_raise(self, kwargs):
        with pytest.raises(LedgerError):
            plan_leases(**kwargs)


# ----------------------------------------------------------------------
# The ledger state machine
# ----------------------------------------------------------------------
class TestLedger:
    def _campaign(self, tmp_path, count=4, workers=2, **kwargs):
        cases = _tiny_cases(count)
        coordinator = Coordinator.create(tmp_path / "camp", cases,
                                         workers, **kwargs)
        return coordinator.ledger, cases

    def test_initialise_round_trips(self, tmp_path):
        ledger, cases = self._campaign(tmp_path)
        manifest = ledger.load_manifest()
        assert manifest["cases"] == len(cases)
        grid = ledger.load_grid()
        assert grid == [case_fingerprint(case) for case in cases]
        leases = ledger.leases()
        covered = sorted(index for lease in leases
                         for index in lease.case_indices)
        assert covered == list(range(len(cases)))
        assert all(lease.state == "pending" and lease.generation == 1
                   for lease in leases)

    def test_reinitialise_is_refused(self, tmp_path):
        ledger, cases = self._campaign(tmp_path)
        with pytest.raises(LedgerError, match="already initialised"):
            ledger.initialise([case_fingerprint(c) for c in cases],
                              [[0], [1], [2], [3]], "digest")

    def test_chunks_must_partition_exactly(self, tmp_path):
        ledger = LeaseLedger(tmp_path / "bad")
        fingerprints = [case_fingerprint(c) for c in _tiny_cases(3)]
        with pytest.raises(LedgerError, match="partition"):
            ledger.initialise(fingerprints, [[0], [1]], "digest")
        with pytest.raises(LedgerError, match="partition"):
            ledger.initialise(fingerprints, [[0], [1], [1], [2]], "digest")

    def test_foreign_and_wrong_version_documents_are_rejected(self,
                                                              tmp_path):
        ledger, _ = self._campaign(tmp_path)
        lease_id = ledger.lease_ids()[0]
        path = ledger.lease_path(lease_id)
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(LedgerError, match="version"):
            ledger.read_lease(lease_id)
        path.write_text('{"format": "something-else"}')
        with pytest.raises(LedgerError, match="not a repro-distrib"):
            ledger.read_lease(lease_id)
        path.write_text("not json")
        with pytest.raises(LedgerError, match="not valid JSON"):
            ledger.read_lease(lease_id)

    def test_both_grid_readers_apply_one_torn_tail_rule(self, tmp_path):
        # The ledger and merge read grid.jsonl through one reader: a line
        # counts once its newline is on disk, so a fingerprint that lost
        # its newline is refused, not read; an undecodable fragment after
        # complete lines is a torn tail and dropped.  Each reader raises
        # its own error.
        ledger, cases = self._campaign(tmp_path)
        grid = [case_fingerprint(case) for case in cases]
        text = ledger.grid_path.read_text(encoding="utf-8")
        ledger.grid_path.write_text(text[:-1], encoding="utf-8")
        with pytest.raises(LedgerError, match="unrecognised content"):
            ledger.load_grid()
        with pytest.raises(MergeError, match="unrecognised content"):
            load_grid_fingerprints(ledger.grid_path)
        ledger.grid_path.write_text(text + '{"kind": "p', encoding="utf-8")
        assert ledger.load_grid() == grid
        assert load_grid_fingerprints(ledger.grid_path) == grid

    def test_missing_manifest_is_an_error(self, tmp_path):
        with pytest.raises(LedgerError, match="manifest"):
            LeaseLedger(tmp_path / "nowhere").load_manifest()

    def test_claim_is_single_winner_under_contention(self, tmp_path):
        ledger, _ = self._campaign(tmp_path)
        lease_id = ledger.lease_ids()[0]
        winners = []
        barrier = threading.Barrier(8)

        def contend(worker):
            barrier.wait()
            lease = ledger.claim(lease_id, worker)
            if lease is not None:
                winners.append(worker)

        threads = [threading.Thread(target=contend, args=(f"w{n}",))
                   for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(winners) == 1
        lease = ledger.read_lease(lease_id)
        assert lease.state == "claimed"
        assert lease.worker == winners[0]
        # The generation's claim token names the winner.
        token = ledger.claim_token_path(lease_id, 1)
        assert token.read_text() == winners[0]

    def test_claim_on_non_pending_lease_returns_none(self, tmp_path):
        ledger, _ = self._campaign(tmp_path)
        lease_id = ledger.lease_ids()[0]
        lease = ledger.claim(lease_id, "w0")
        assert lease is not None
        assert ledger.claim(lease_id, "w1") is None
        ledger.complete(lease)
        assert ledger.claim(lease_id, "w1") is None

    def test_heartbeat_after_steal_raises_lease_revoked(self, tmp_path):
        ledger, _ = self._campaign(tmp_path)
        lease_id = ledger.lease_ids()[0]
        lease = ledger.claim(lease_id, "victim")
        # Simulate a supervisor declaring the victim dead: far future.
        released = ledger.release_expired(
            timeout=1.0, now=time.time() + 3600)
        assert released == [lease_id]
        with pytest.raises(LeaseRevoked, match="generation"):
            ledger.heartbeat(lease)

    def test_release_expired_bumps_generation_once_and_audits(self,
                                                              tmp_path):
        ledger, _ = self._campaign(tmp_path)
        lease_id = ledger.lease_ids()[0]
        ledger.claim(lease_id, "victim")
        moment = time.time() + 3600
        assert ledger.release_expired(1.0, now=moment) == [lease_id]
        stolen = ledger.read_lease(lease_id)
        assert stolen.state == "pending"
        assert stolen.generation == 2
        assert stolen.worker is None
        assert len(stolen.steals) == 1
        assert stolen.steals[0]["worker"] == "victim"
        assert stolen.steals[0]["generation"] == 1
        # A second pass does not steal again: no new claim, no token.
        assert ledger.release_expired(1.0, now=moment) == []

    def test_fresh_heartbeat_is_not_released(self, tmp_path):
        ledger, _ = self._campaign(tmp_path)
        lease_id = ledger.lease_ids()[0]
        lease = ledger.claim(lease_id, "alive")
        ledger.heartbeat(lease)
        assert ledger.release_expired(timeout=3600.0) == []
        assert ledger.read_lease(lease_id).generation == 1

    @pytest.mark.parametrize("timeout", [float("nan"), float("inf")])
    def test_release_expired_rejects_a_timeout_that_is_no_duration(
            self, tmp_path, timeout):
        # No age compares below NaN, so a NaN timeout used to expire
        # every live lease.
        ledger, _ = self._campaign(tmp_path)
        lease_id = ledger.lease_ids()[0]
        ledger.heartbeat(ledger.claim(lease_id, "alive"))
        with pytest.raises(LedgerError, match="finite number of seconds"):
            ledger.release_expired(timeout)
        assert ledger.read_lease(lease_id).generation == 1

    def test_orphaned_claim_token_is_recovered(self, tmp_path):
        # A claimer that died after winning the token but before
        # publishing the claimed state: the lease looks pending, but its
        # current-generation token blocks every future claim.
        ledger, _ = self._campaign(tmp_path)
        lease_id = ledger.lease_ids()[0]
        token = ledger.claim_token_path(lease_id, 1)
        token.write_text("dead-claimer")
        assert ledger.claim(lease_id, "w1") is None  # blocked
        released = ledger.release_expired(1.0, now=time.time() + 3600)
        assert released == [lease_id]
        lease = ledger.claim(lease_id, "w1")  # generation 2 token is free
        assert lease is not None and lease.generation == 2

    def test_complete_is_idempotent_and_final(self, tmp_path):
        ledger, _ = self._campaign(tmp_path)
        lease_id = ledger.lease_ids()[0]
        lease = ledger.claim(lease_id, "w0")
        ledger.complete(lease)
        ledger.complete(lease)  # idempotent
        done = ledger.read_lease(lease_id)
        assert done.state == "done"
        assert done.completed_unix is not None
        assert ledger.release_expired(0.001,
                                      now=time.time() + 3600) == []

    def test_status_counts(self, tmp_path):
        ledger, cases = self._campaign(tmp_path)
        status = ledger.status()
        assert status["leases"] == status["pending"] > 0
        assert status["complete"] is False
        for lease_id in ledger.lease_ids():
            lease = ledger.claim(lease_id, "w0")
            ledger.complete(lease)
        status = ledger.status()
        assert status["complete"] is True
        assert status["cases_done"] == len(cases)


# ----------------------------------------------------------------------
# In-process campaigns (threads sharing the ledger)
# ----------------------------------------------------------------------
class TestWorkers:
    def test_single_worker_completes_a_campaign(self, tmp_path):
        cases = _tiny_cases(4)
        coordinator = Coordinator.create(tmp_path / "camp", cases,
                                         workers=2)
        worker = DistribWorker(coordinator.ledger.root, worker_id="w0")
        summary = worker.run()
        assert summary["executed"] == len(coordinator.ledger.lease_ids())
        assert coordinator.status()["complete"] is True
        counts = _execution_counts(coordinator.ledger)
        assert len(counts) == len(cases)
        assert set(counts.values()) == {1}

    @pytest.mark.parametrize("processes", [0, -1, True, 1.5, "2"])
    def test_bad_processes_is_rejected_before_any_claim(self, tmp_path,
                                                        processes):
        # A worker that accepted it would claim a lease, then fail inside
        # SweepRunner and strand it claimed with no heartbeat behind it.
        coordinator = Coordinator.create(tmp_path / "camp", _tiny_cases(2),
                                         workers=1)
        with pytest.raises(SweepError, match="processes must be >= 1"):
            DistribWorker(coordinator.ledger.root,
                          processes=processes).run_once()
        status = coordinator.status()
        assert status["claimed"] == 0
        assert status["pending"] == status["leases"]

    def test_the_strategy_keyword_is_gone(self, tmp_path):
        from repro.distrib import run_distributed

        coordinator = Coordinator.create(tmp_path / "camp", _tiny_cases(2),
                                         workers=1)
        with pytest.raises(TypeError, match="strategy"):
            DistribWorker(coordinator.ledger.root, strategy="batched")
        with pytest.raises(TypeError, match="strategy"):
            spawn_worker(coordinator.ledger.root, strategy="batched")
        with pytest.raises(TypeError, match="strategy"):
            run_distributed(tmp_path / "other", _tiny_cases(2), workers=1,
                            strategy="batched")
        assert coordinator.status()["claimed"] == 0
        assert not (tmp_path / "other").exists()

    def test_two_workers_share_one_campaign_exactly_once(self, tmp_path):
        cases = _tiny_cases(6)
        coordinator = Coordinator.create(tmp_path / "camp", cases,
                                         workers=2, min_chunk=1)
        workers = [DistribWorker(coordinator.ledger.root,
                                 worker_id=f"w{n}", poll_interval=0.01)
                   for n in range(2)]
        threads = [threading.Thread(target=worker.run)
                   for worker in workers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert coordinator.status()["complete"] is True
        counts = _execution_counts(coordinator.ledger)
        assert len(counts) == len(cases)
        assert set(counts.values()) == {1}, "a case executed twice"

    def test_lease_journal_header_carries_lease_identity(self, tmp_path):
        cases = _tiny_cases(4)
        coordinator = Coordinator.create(tmp_path / "camp", cases,
                                         workers=1, min_chunk=4)
        DistribWorker(coordinator.ledger.root, worker_id="w0").run()
        [lease_id] = coordinator.ledger.lease_ids()
        meta = RunJournal(
            coordinator.ledger.journal_path(lease_id)).read_header()
        assert meta["lease_id"] == lease_id
        assert meta["case_indices"] == [0, 1, 2, 3]
        assert meta["worker"] == "w0"
        assert meta["generation"] == 1

    def test_merge_verifies_against_the_campaign_grid(self, tmp_path):
        cases = _tiny_cases(4)
        coordinator = Coordinator.create(tmp_path / "camp", cases,
                                         workers=2)
        DistribWorker(coordinator.ledger.root, worker_id="w0").run()
        report = coordinator.merge()
        assert report.complete is True
        assert report.cases == len(cases)
        merged = load_journal(coordinator.ledger.merged_path)
        assert [entry.case_index for entry in merged] == \
            list(range(len(cases)))
        assert [entry.case for entry in merged] == \
            [case_fingerprint(case) for case in cases]

    def test_merge_before_any_worker_is_an_error(self, tmp_path):
        coordinator = Coordinator.create(tmp_path / "camp",
                                         _tiny_cases(2), workers=1)
        with pytest.raises(LedgerError, match="no lease journals"):
            coordinator.merge()


# ----------------------------------------------------------------------
# Kill-and-steal: the integration the subsystem exists for
# ----------------------------------------------------------------------
class TestKillAndSteal:
    def _worker_env(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return env

    def _kill_mid_lease(self, root, cases):
        """SIGKILL a per-case victim mid-way through a one-lease campaign.

        Returns ``(coordinator, lease_id, entries)`` once the kill
        provably landed mid-lease (>= 1 durable entry, lease still
        claimed), or ``None`` when the victim won the race and finished
        the whole lease first (possible on a badly stalled machine).
        """
        coordinator = Coordinator.create(root, cases,
                                         workers=1, min_chunk=len(cases))
        ledger = coordinator.ledger
        [lease_id] = ledger.lease_ids()
        journal_path = ledger.journal_path(lease_id)

        # Each of the grid's geometries is its own stack group, so the
        # victim journals one case at a time while the lease is still
        # claimed: the window in which to die mid-lease.
        victim = spawn_worker(ledger.root, worker_id="victim",
                              lease_timeout=None)
        try:
            deadline = time.time() + 120
            while time.time() < deadline:
                if journal_path.exists() and load_journal(journal_path):
                    break
                time.sleep(0.005)
            else:
                pytest.fail("victim never journaled a case")
            os.kill(victim.pid, signal.SIGKILL)
        finally:
            victim.wait(timeout=30)

        before_steal = load_journal(journal_path)
        assert before_steal, "kill landed before any durable entry"
        if ledger.read_lease(lease_id).state != "claimed":
            return None
        return coordinator, lease_id, before_steal

    def test_sigkilled_worker_chunk_is_stolen_exactly_once(self, tmp_path):
        # One big lease of slow-enough cases: the victim must die
        # mid-lease, not between leases, for the steal to have anything
        # to recover.  The mid-lease kill is a race against the victim
        # draining its lease, so it gets a few fresh-campaign retries.
        cases = sweep_grid(["96x96", "96x128", "128x96", "128x128",
                            "128x160", "160x128", "160x160", "96x160",
                            "160x96", "128x192", "192x128", "192x192"],
                           ["MATS+"], backends=("vectorized",))
        for attempt in range(3):
            outcome = self._kill_mid_lease(tmp_path / f"camp{attempt}",
                                           cases)
            if outcome is not None:
                break
        else:
            pytest.fail("victim finished before SIGKILL in 3 attempts")
        coordinator, lease_id, before_steal = outcome
        ledger = coordinator.ledger

        survivor = spawn_worker(ledger.root, worker_id="survivor",
                                lease_timeout=0.5)
        assert survivor.wait(timeout=180) == 0

        stolen = ledger.read_lease(lease_id)
        assert stolen.state == "done"
        assert stolen.generation == 2, "re-leased exactly once"
        assert len(stolen.steals) == 1
        assert stolen.steals[0]["worker"] == "victim"
        assert coordinator.status()["complete"] is True

        # The exactly-once audit: every case appears once across every
        # journal — the victim's durable work was restored, not redone.
        counts = _execution_counts(ledger)
        assert len(counts) == len(cases)
        assert set(counts.values()) == {1}, "a case executed twice"
        victim_digests = {fingerprint_digest(entry.case)
                          for entry in before_steal}
        merged = load_journal(coordinator.merge().output)
        merged_digests = {fingerprint_digest(entry.case)
                          for entry in merged}
        assert victim_digests <= merged_digests
        assert len(merged) == len(cases)

    def test_run_distributed_end_to_end(self, tmp_path):
        cases = _tiny_cases(5)
        from repro.distrib import run_distributed

        report = run_distributed(tmp_path / "camp", cases, workers=2,
                                 lease_timeout=5.0,
                                 supervise_deadline=180.0)
        assert report.complete is True
        assert report.cases == len(cases)
        counts = _execution_counts(LeaseLedger(tmp_path / "camp"))
        assert set(counts.values()) == {1}

    def test_run_distributed_returns_promptly_after_completion(
            self, tmp_path):
        """Completion is noticed within a fraction of a second, not at
        the next lease-expiry round (``lease_timeout / 4`` = 7.5 s)."""
        from repro.distrib import run_distributed

        started = time.monotonic()
        report = run_distributed(tmp_path / "camp", _tiny_cases(2),
                                 workers=1, lease_timeout=30.0,
                                 supervise_deadline=60.0)
        elapsed = time.monotonic() - started
        assert report.complete is True
        assert elapsed < 3.0, f"run_distributed took {elapsed:.2f} s"


# ----------------------------------------------------------------------
# Runner lease hooks (header_meta / case_sink)
# ----------------------------------------------------------------------
class TestRunnerHooks:
    def test_header_meta_merges_into_fresh_journal_header(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        SweepRunner(_tiny_cases(2), journal=journal,
                    header_meta={"lease_id": "lease-7",
                                 "cases": "overridden?"}).run()
        meta = RunJournal(journal).read_header()
        assert meta["lease_id"] == "lease-7"
        assert meta["cases"] == 2  # runner-owned keys win over the caller

    def test_case_sink_sees_only_fresh_executions(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        cases = _tiny_cases(3)
        first = SweepRunner(cases[:3], journal=journal)
        seen = []
        first.run(case_sink=lambda index, record: seen.append(index))
        assert sorted(seen) == [0, 1, 2]
        # Resume re-executes nothing, so the sink must see nothing.
        resumed = []
        SweepRunner(cases, journal=journal).run(
            resume=True,
            case_sink=lambda index, record: resumed.append(index))
        assert resumed == []

    def test_case_sink_exception_aborts_but_keeps_durable_work(self,
                                                               tmp_path):
        journal = tmp_path / "run.jsonl"
        cases = _tiny_cases(4)

        def abort_after_first(index, record):
            raise LeaseRevoked("stolen")

        with pytest.raises(LeaseRevoked):
            SweepRunner(cases, journal=journal,
                        processes=1).run(case_sink=abort_after_first)
        entries = load_journal(journal)
        assert len(entries) == 1  # the aborting case was already durable
        result = SweepRunner(cases, journal=journal).run(resume=True)
        assert len(result.records) == len(cases)


# ----------------------------------------------------------------------
# Journal header version validation (RPR007 applied to the journal)
# ----------------------------------------------------------------------
class TestHeaderVersion:
    def test_wrong_header_version_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(json.dumps({
            "format": "repro-sweep-journal-header",
            "version": 99, "meta": {"cases": 1},
        }, sort_keys=True) + "\n")
        with pytest.raises(JournalError, match="version"):
            RunJournal(path).read_header()

    def test_torn_header_fragment_still_reads_as_no_header(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"format": "repro-sweep-journal-header", "vers')
        assert RunJournal(path).read_header() is None


# ----------------------------------------------------------------------
# merge_journals: verified unions
# ----------------------------------------------------------------------
class TestMerge:
    def _shards(self, tmp_path, count=4):
        """Two shard journals over one grid, with header index maps."""
        cases = _tiny_cases(count)
        half = count // 2
        paths = []
        for number, (lo, hi) in enumerate([(0, half), (half, count)]):
            path = tmp_path / f"shard{number}.jsonl"
            SweepRunner(cases[lo:hi], journal=path,
                        header_meta={"case_indices":
                                     list(range(lo, hi))}).run()
            paths.append(path)
        return cases, paths

    def test_union_is_verified_and_grid_ordered(self, tmp_path):
        cases, paths = self._shards(tmp_path)
        grid = [case_fingerprint(case) for case in cases]
        report = merge_journals(tmp_path / "merged.jsonl", paths,
                                grid=grid, require_complete=True)
        assert report.cases == len(cases)
        assert report.duplicates == 0
        assert report.complete is True
        merged = load_journal(tmp_path / "merged.jsonl")
        assert [entry.case_index for entry in merged] == \
            list(range(len(cases)))
        meta = RunJournal(tmp_path / "merged.jsonl").read_header()
        assert meta["grid_complete"] is True
        assert meta["cases"] == len(cases)

    def test_journals_naming_a_deleted_kernel_tier_still_merge(self,
                                                               tmp_path):
        # Journals written while a case could choose a kernel tier carry
        # the choice in fingerprints and records.  Merge compares
        # fingerprints as data and never rebuilds a case, so such
        # journals keep loading and merging.
        cases, paths = self._shards(tmp_path)
        for path in paths:
            text = path.read_text(encoding="utf-8")
            assert '"kernel": null' in text and '"kernel_used": "flat"' in text
            path.write_text(text.replace('"kernel": null', '"kernel": "jit"')
                            .replace('"kernel": "default"', '"kernel": "jit"')
                            .replace('"kernel_used": "flat"',
                                     '"kernel_used": "jit"'),
                            encoding="utf-8")
        grid = [dict(case_fingerprint(case), kernel="jit") for case in cases]
        report = merge_journals(tmp_path / "merged.jsonl", paths,
                                grid=grid, require_complete=True)
        assert report.cases == len(cases) and report.complete is True
        merged = load_journal(tmp_path / "merged.jsonl")
        assert [entry.case for entry in merged] == grid
        assert {entry.record["kernel_used"] for entry in merged} == {"jit"}

    def test_identical_duplicates_tolerated_elapsed_aside(self, tmp_path):
        cases, paths = self._shards(tmp_path)
        # Re-record shard 0's cases with a different wall clock: the
        # work-stealing overlap shape.
        duplicate = tmp_path / "dup.jsonl"
        entries = load_journal(paths[0])
        with RunJournal(duplicate) as journal:
            journal.write_header({"case_indices": [0, 1]})
            for entry in entries:
                record = dict(entry.record)
                record["elapsed_s"] = 99.9
                journal.append(type(entry)(
                    case_index=entry.case_index, kind=entry.kind,
                    case=entry.case, record=record))
        report = merge_journals(tmp_path / "merged.jsonl",
                                [*paths, duplicate],
                                grid=[case_fingerprint(c) for c in cases],
                                require_complete=True)
        assert report.duplicates == 2
        assert report.cases == len(cases)

    def test_conflicting_records_are_rejected(self, tmp_path):
        cases, paths = self._shards(tmp_path)
        conflict = tmp_path / "conflict.jsonl"
        entries = load_journal(paths[0])
        with RunJournal(conflict) as journal:
            journal.write_header({"case_indices": [0, 1]})
            for entry in entries:
                record = dict(entry.record)
                record["total_energy_pj"] = -1.0  # physics disagreement
                journal.append(type(entry)(
                    case_index=entry.case_index, kind=entry.kind,
                    case=entry.case, record=record))
        with pytest.raises(MergeError, match="conflicting records"):
            merge_journals(tmp_path / "merged.jsonl", [*paths, conflict])

    def test_missing_cases_fail_require_complete(self, tmp_path):
        cases, paths = self._shards(tmp_path)
        grid = [case_fingerprint(case) for case in cases]
        report = merge_journals(tmp_path / "merged.jsonl", [paths[0]],
                                grid=grid)
        assert report.complete is False
        with pytest.raises(MergeError, match="missing"):
            merge_journals(tmp_path / "merged.jsonl", [paths[0]],
                           grid=grid, require_complete=True)

    def test_entries_outside_the_grid_are_rejected(self, tmp_path):
        cases, paths = self._shards(tmp_path)
        grid = [case_fingerprint(case) for case in cases[:2]]
        with pytest.raises(MergeError, match="not in the campaign grid"):
            merge_journals(tmp_path / "merged.jsonl", paths, grid=grid)

    def test_index_disagreement_is_rejected(self, tmp_path):
        cases, paths = self._shards(tmp_path)
        grid = [case_fingerprint(case) for case in cases]
        grid.reverse()  # every entry now sits at the wrong position
        with pytest.raises(MergeError, match="grid holds it at"):
            merge_journals(tmp_path / "merged.jsonl", paths, grid=grid)

    def test_shards_disagreeing_about_an_index_are_rejected(self,
                                                            tmp_path):
        cases, paths = self._shards(tmp_path)
        moved = tmp_path / "moved.jsonl"
        entries = load_journal(paths[0])
        with RunJournal(moved) as journal:
            journal.write_header({"case_indices": [7, 8]})
            for entry in entries:
                journal.append(entry)
        with pytest.raises(MergeError, match="disagree about the grid"):
            merge_journals(tmp_path / "merged.jsonl", [*paths, moved])

    def test_duplicate_grid_is_rejected(self, tmp_path):
        cases, paths = self._shards(tmp_path)
        grid = [case_fingerprint(cases[0])] * len(cases)
        with pytest.raises(MergeError, match="duplicate-free"):
            merge_journals(tmp_path / "merged.jsonl", paths, grid=grid)

    def test_missing_source_journal_is_rejected(self, tmp_path):
        """A mistyped shard path is an error naming every missing
        source, not an empty shard merged into a short artifact."""
        cases, paths = self._shards(tmp_path)
        absent = [tmp_path / "shard7.jsonl", tmp_path / "shard8.jsonl"]
        output = tmp_path / "merged.jsonl"
        with pytest.raises(MergeError, match="not found") as caught:
            merge_journals(output, [*paths, *absent])
        for path in absent:
            assert str(path) in str(caught.value)
        assert not output.exists()

    def test_merged_artifact_is_itself_mergeable(self, tmp_path):
        cases, paths = self._shards(tmp_path)
        grid = [case_fingerprint(case) for case in cases]
        merge_journals(tmp_path / "merged.jsonl", paths, grid=grid,
                       require_complete=True)
        again = merge_journals(tmp_path / "merged2.jsonl",
                               [tmp_path / "merged.jsonl"], grid=grid,
                               require_complete=True)
        assert again.cases == len(cases)


# ----------------------------------------------------------------------
# The merge CLI: python -m repro.sweep merge
# ----------------------------------------------------------------------
class TestMergeCli:
    def _shards_and_grid(self, tmp_path):
        cases = _tiny_cases(4)
        paths = []
        for number, (lo, hi) in enumerate([(0, 2), (2, 4)]):
            path = tmp_path / f"shard{number}.jsonl"
            SweepRunner(cases[lo:hi], journal=path,
                        header_meta={"case_indices":
                                     list(range(lo, hi))}).run()
            paths.append(str(path))
        grid_path = tmp_path / "grid.jsonl"
        grid_path.write_text("\n".join(
            json.dumps(case_fingerprint(case), sort_keys=True)
            for case in cases) + "\n")
        return cases, paths, grid_path

    def test_merge_subcommand_end_to_end(self, tmp_path, capsys):
        cases, paths, grid_path = self._shards_and_grid(tmp_path)
        output = tmp_path / "merged.jsonl"
        code = sweep_main(["merge", str(output), *paths,
                           "--grid", str(grid_path), "--require-complete"])
        assert code == 0
        assert "merged 4 cases" in capsys.readouterr().out
        assert len(load_journal(output)) == len(cases)

    def test_merge_subcommand_error_contract(self, tmp_path, capsys):
        cases, paths, grid_path = self._shards_and_grid(tmp_path)
        output = tmp_path / "merged.jsonl"
        code = sweep_main(["merge", str(output), paths[0],
                           "--grid", str(grid_path), "--require-complete"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        code = sweep_main(["merge", str(output), paths[0],
                           "--require-complete"])
        assert code == 2

    def test_merge_subcommand_rejects_a_missing_source(self, tmp_path,
                                                       capsys):
        output = tmp_path / "merged.jsonl"
        missing = tmp_path / "missing.jsonl"
        code = sweep_main(["merge", str(output), str(missing)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(missing) in err
        assert not output.exists()

    def test_grid_loader_validates(self, tmp_path):
        bad = tmp_path / "grid.jsonl"
        bad.write_text("not json\n")
        with pytest.raises(MergeError, match="not valid JSON"):
            load_grid_fingerprints(bad)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n")
        with pytest.raises(MergeError, match="no case fingerprints"):
            load_grid_fingerprints(empty)


# ----------------------------------------------------------------------
# The distrib CLI
# ----------------------------------------------------------------------
class TestDistribCli:
    def test_init_status_merge_flow(self, tmp_path, capsys):
        from repro.distrib.__main__ import main as distrib_main

        root = tmp_path / "camp"
        code = distrib_main(["init", str(root), "--workers", "2",
                             "--geometry", "8x8", "--geometry", "16x16",
                             "--algorithm", "MATS+",
                             "--backend", "vectorized"])
        assert code == 0
        assert "2 cases" in capsys.readouterr().out
        DistribWorker(root, worker_id="w0").run()
        assert distrib_main(["status", str(root), "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["complete"] is True
        assert distrib_main(["merge", str(root)]) == 0
        assert "merged 2 cases" in capsys.readouterr().out
        assert (root / "merged.jsonl").exists()

    def test_run_with_strategy_exits_2_unpublished(self, tmp_path, capsys):
        from repro.distrib.__main__ import main as distrib_main

        root = tmp_path / "camp"
        with pytest.raises(SystemExit) as exited:
            distrib_main(["run", str(root), "--strategy", "batched",
                          "--geometry", "8x8", "--algorithm", "MATS+"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --strategy batched" \
            in capsys.readouterr().err
        assert not root.exists()

    def test_worker_with_strategy_exits_2_unclaimed(self, tmp_path, capsys):
        from repro.distrib.__main__ import main as distrib_main

        coordinator = Coordinator.create(tmp_path / "camp", _tiny_cases(2),
                                         workers=1)
        with pytest.raises(SystemExit) as exited:
            distrib_main(["worker", str(tmp_path / "camp"),
                          "--strategy", "batched"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --strategy batched" \
            in capsys.readouterr().err
        status = coordinator.status()
        assert status["claimed"] == 0
        assert status["pending"] == status["leases"]

    def test_worker_with_zero_processes_exits_2_unclaimed(self, tmp_path,
                                                          capsys):
        from repro.distrib.__main__ import main as distrib_main

        coordinator = Coordinator.create(tmp_path / "camp", _tiny_cases(2),
                                         workers=1)
        assert distrib_main(["worker", str(tmp_path / "camp"),
                             "--processes", "0"]) == 2
        assert capsys.readouterr().err == \
            "error: processes must be >= 1, got 0\n"
        status = coordinator.status()
        assert status["claimed"] == 0
        assert status["pending"] == status["leases"]

    @pytest.mark.parametrize("timeout", ["nan", "inf", "0", "-5"])
    def test_run_with_a_bad_lease_timeout_exits_2_unpublished(
            self, tmp_path, capsys, timeout):
        from repro.distrib.__main__ import main as distrib_main

        root = tmp_path / "camp"
        assert distrib_main(["run", str(root), "--workers", "2",
                             "--lease-timeout", timeout, "--prr-grid",
                             "--geometry", "16x64", "--algorithm", "MATS+",
                             "--algorithm", "March C-"]) == 2
        assert "lease timeout must be a finite number of seconds > 0" \
            in capsys.readouterr().err
        assert not root.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--lease-timeout", "nan"), ("--lease-timeout", "0"),
        ("--heartbeat-interval", "0"), ("--heartbeat-interval", "-1"),
        ("--heartbeat-interval", "nan"), ("--poll-interval", "-1"),
        ("--poll-interval", "0"), ("--poll-interval", "inf"),
    ])
    def test_worker_with_a_bad_timing_flag_exits_2_unclaimed(
            self, tmp_path, capsys, flag, value):
        from repro.distrib.__main__ import main as distrib_main

        coordinator = Coordinator.create(tmp_path / "camp", _tiny_cases(2),
                                         workers=1)
        assert distrib_main(["worker", str(tmp_path / "camp"),
                             flag, value]) == 2
        assert "must be a finite number of seconds > 0" \
            in capsys.readouterr().err
        status = coordinator.status()
        assert status["claimed"] == 0
        assert status["pending"] == status["leases"]

    def test_init_with_an_unknown_algorithm_exits_2_unpublished(
            self, tmp_path, capsys):
        from repro.distrib.__main__ import main as distrib_main

        root = tmp_path / "camp"
        assert distrib_main(["init", str(root), "--geometry", "8x8",
                             "--algorithm", "March Z"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: unknown March algorithm 'March Z'")
        assert not root.exists()

    @pytest.mark.parametrize("command", ["init", "run"])
    def test_kernel_flag_exits_2_unpublished(self, tmp_path, capsys,
                                             command):
        from repro.distrib.__main__ import main as distrib_main

        root = tmp_path / "camp"
        with pytest.raises(SystemExit) as exited:
            distrib_main([command, str(root), "--geometry", "8x8",
                          "--algorithm", "MATS+", "--kernel", "flat"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --kernel flat" \
            in capsys.readouterr().err
        assert not root.exists()

    @pytest.mark.parametrize("edit, error", [
        ({"algorithm": "March Z"}, "unknown March algorithm 'March Z'"),
        ({"kernel": "jit"}, "kernel 'jit' cannot be chosen"),
        ({"rows": 0}, "rows must be positive, got 0"),
    ], ids=["algorithm", "kernel", "rows"])
    def test_worker_refuses_an_unbuildable_grid_before_any_claim(
            self, tmp_path, capsys, edit, error):
        # A grid line this version cannot build must stop the worker
        # before its first claim: a claim followed by a failed build
        # strands the lease as claimed until some worker steals it.
        from repro.distrib.__main__ import main as distrib_main

        coordinator = Coordinator.create(tmp_path / "camp", _tiny_cases(2),
                                         workers=1)
        grid_path = coordinator.ledger.grid_path
        lines = grid_path.read_text(encoding="utf-8").splitlines()
        edited = {**json.loads(lines[-1]), **edit}
        lines[-1] = json.dumps(edited, sort_keys=True)
        grid_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert distrib_main(["worker", str(tmp_path / "camp")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {error}")
        status = coordinator.status()
        assert status["claimed"] == 0
        assert status["pending"] == status["leases"]

    def test_init_without_cases_is_an_error(self, tmp_path, capsys):
        from repro.distrib.__main__ import main as distrib_main

        assert distrib_main(["init", str(tmp_path / "camp")]) == 2
        assert capsys.readouterr().err.startswith("error:")
