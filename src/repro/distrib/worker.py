"""Distributed campaign worker: claim, execute, heartbeat, steal.

A :class:`DistribWorker` is an ordinary :class:`repro.sweep.SweepRunner`
wrapped in the lease protocol.  Its loop:

1. **claim** — scan the ledger for a pending lease and race for its
   claim token; on a win, start heartbeating and execute the chunk;
2. **execute** — build a ``SweepRunner`` over the lease's cases with the
   lease's shared journal; *always* resume if the journal holds entries
   (a stolen lease's new holder restores the dead worker's completed
   cases verbatim and executes only the remainder — this is the
   exactly-once mechanism); the journal header is stamped with the lease
   identity and the chunk's campaign-global ``case_indices`` so the
   merge step can rebase shard-local indices;
3. **heartbeat** — a background thread refreshes the lease's liveness
   proof; if it discovers the lease was re-leased out from under us
   (our heartbeats were too slow, a supervisor declared us dead), it
   trips the revoked flag and the runner's ``case_sink`` aborts the run
   before the next case — everything completed so far is already
   durable in the shared journal, so nothing is lost and nothing will
   re-execute;
4. **steal** — when no lease is pending but the campaign is unfinished,
   the worker (if configured with a ``lease_timeout``) calls
   ``release_expired`` itself: stealing is decentralised, any survivor
   can recover a dead peer's chunk without a coordinator in the loop.

The worker exits when every lease is done.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..sweep.runner import (
    AnyCase,
    AnyRecord,
    SweepRunner,
    case_from_dict,
    check_strategy,
)
from .ledger import Lease, LeaseLedger, LeaseRevoked

__all__ = ["DistribWorker", "default_worker_id"]

DEFAULT_POLL_INTERVAL = 0.2


def default_worker_id() -> str:
    """A worker identity unique across hosts sharing the filesystem."""
    return f"{socket.gethostname()}-{os.getpid()}"


class DistribWorker:
    """One worker process of a distributed campaign.

    ``lease_timeout`` enables decentralised stealing: when the worker
    finds no pending lease, it re-leases chunks whose holders have been
    silent that long.  ``None`` disables stealing from this worker
    (useful when only a supervising coordinator should declare death).
    An unknown ``strategy`` raises :class:`repro.sweep.SweepError` here,
    before any lease is claimed.
    """

    def __init__(self, root: Union[str, Path],
                 worker_id: Optional[str] = None,
                 strategy: str = "auto",
                 processes: int = 1,
                 poll_interval: float = DEFAULT_POLL_INTERVAL,
                 heartbeat_interval: Optional[float] = None,
                 lease_timeout: Optional[float] = None) -> None:
        self.strategy = check_strategy(strategy)
        self.ledger = LeaseLedger(root)
        self.worker_id = worker_id or default_worker_id()
        self.processes = processes
        self.poll_interval = poll_interval
        self.heartbeat_interval = heartbeat_interval
        self.lease_timeout = lease_timeout
        #: lease ids this worker completed (including resumed steals)
        self.completed: List[str] = []
        #: lease ids revoked out from under this worker mid-run
        self.revoked: List[str] = []
        self._cases: Optional[List[AnyCase]] = None

    # ------------------------------------------------------------------
    def _campaign_cases(self) -> List[AnyCase]:
        """The full campaign grid, rebuilt once from ``grid.jsonl``."""
        if self._cases is None:
            self._cases = [case_from_dict(fingerprint)
                           for fingerprint in self.ledger.load_grid()]
        return self._cases

    def _resolved_heartbeat_interval(self) -> float:
        if self.heartbeat_interval is not None:
            return self.heartbeat_interval
        if self.lease_timeout is not None:
            # Several beats per timeout window, so one delayed write
            # does not get a live worker declared dead.
            return max(0.05, self.lease_timeout / 4)
        return 1.0

    # ------------------------------------------------------------------
    def _execute_lease(self, lease: Lease) -> None:
        """Run one claimed lease to completion (or revocation)."""
        cases = self._campaign_cases()
        lease_cases = [cases[index] for index in lease.case_indices]
        journal_path = self.ledger.journal_path(lease.lease_id)
        runner = SweepRunner(
            lease_cases,
            processes=self.processes,
            journal=journal_path,
            strategy=self.strategy,
            header_meta={
                "lease_id": lease.lease_id,
                "case_indices": list(lease.case_indices),
                "worker": self.worker_id,
                "generation": lease.generation,
                "campaign_root": str(self.ledger.root),
            })
        # Resume whenever the journal holds completed cases: generation 1
        # writes a fresh journal, every later generation (a steal) picks
        # up exactly where the dead worker's fsync'd journal ends.
        resume = journal_path.exists() and journal_path.stat().st_size > 0

        revoked = threading.Event()
        stop = threading.Event()

        def beat() -> None:
            interval = self._resolved_heartbeat_interval()
            while not stop.wait(interval):
                try:
                    self.ledger.heartbeat(lease)
                except LeaseRevoked:
                    revoked.set()
                    return
                except Exception:  # pragma: no cover - transient fs error
                    continue  # missing a beat is recoverable; keep trying

        def case_sink(index: int, record: AnyRecord) -> None:
            if revoked.is_set():
                raise LeaseRevoked(
                    f"lease {lease.lease_id} generation "
                    f"{lease.generation} was stolen; aborting (completed "
                    "cases are safe in the shared journal)")

        heartbeat_thread = threading.Thread(
            target=beat, name=f"heartbeat-{lease.lease_id}", daemon=True)
        heartbeat_thread.start()
        try:
            runner.run(resume=resume, case_sink=case_sink)
        except LeaseRevoked:
            self.revoked.append(lease.lease_id)
            return
        finally:
            stop.set()
            heartbeat_thread.join(timeout=5)
        self.ledger.complete(lease)
        self.completed.append(lease.lease_id)

    # ------------------------------------------------------------------
    def run_once(self) -> bool:
        """Claim and execute at most one lease; True when one was run."""
        for lease_summary in self.ledger.leases():
            if lease_summary.state != "pending":
                continue
            lease = self.ledger.claim(lease_summary.lease_id,
                                      self.worker_id)
            if lease is None:
                continue  # lost the race; try the next pending lease
            self._execute_lease(lease)
            return True
        return False

    def run(self, max_leases: Optional[int] = None) -> Dict[str, object]:
        """Work until the campaign completes; returns a final summary.

        Between leases the worker polls; when nothing is pending but the
        campaign is incomplete it tries to steal (given a
        ``lease_timeout``), else sleeps ``poll_interval`` and re-scans —
        some other worker's chunk may yet expire.
        """
        executed = 0
        while True:
            status = self.ledger.status()
            if status["complete"]:
                break
            if max_leases is not None and executed >= max_leases:
                break
            if self.run_once():
                executed += 1
                continue
            if self.lease_timeout is not None:
                if self.ledger.release_expired(self.lease_timeout):
                    continue  # a chunk came back; race for it now
            time.sleep(self.poll_interval)
        return {
            "worker": self.worker_id,
            "executed": executed,
            "completed": list(self.completed),
            "revoked": list(self.revoked),
        }
