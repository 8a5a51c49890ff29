"""Campaign coordinator: partition, supervise, merge.

The coordinator side of :mod:`repro.distrib` owns the campaign's
lifecycle, not its execution:

* :func:`plan_leases` partitions the grid into adaptively-sized chunks
  (guided self-scheduling: early leases are large to amortise claim
  traffic, tail leases shrink toward ``min_chunk`` so a straggler never
  holds a big slice hostage near the end);
* :meth:`Coordinator.create` publishes the campaign — grid file, lease
  documents, manifest — onto the shared filesystem;
* :meth:`Coordinator.supervise` is the liveness loop: it periodically
  re-leases chunks whose holders went silent (the work-stealing half the
  workers cannot do for themselves when *every* worker on a chunk died);
* :meth:`Coordinator.merge` unions the per-lease journals into the
  single verified ``merged.jsonl`` artifact via
  :func:`repro.sweep.merge.merge_journals`, fingerprint-checked against
  the campaign grid.

Workers are plain processes running ``python -m repro.distrib worker``
(:func:`spawn_worker`); :func:`run_distributed` wires the whole thing —
create, spawn N, supervise, merge — for tests, benchmarks and the
``run`` subcommand.
"""

from __future__ import annotations

import hashlib
import math
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..sweep.merge import MergeReport, merge_journals
from ..sweep.runner import (
    AnyCase,
    case_fingerprint,
    fingerprint_digest,
)
from .ledger import (
    DEFAULT_CHUNK_FACTOR,
    DEFAULT_MIN_CHUNK,
    LeaseLedger,
    LedgerError,
    check_seconds,
)

__all__ = [
    "Coordinator",
    "grid_digest",
    "plan_leases",
    "run_distributed",
    "spawn_worker",
]


def plan_leases(n_cases: int, workers: int,
                min_chunk: int = DEFAULT_MIN_CHUNK,
                factor: int = DEFAULT_CHUNK_FACTOR) -> List[List[int]]:
    """Partition ``range(n_cases)`` into adaptive contiguous chunks.

    Guided self-scheduling: chunk ``k`` takes
    ``max(min_chunk, ceil(remaining / (factor * workers)))`` cases.
    Early chunks are big (few claim round-trips while everyone is busy),
    late chunks approach ``min_chunk`` (a straggler near the end holds
    only a sliver, and a stolen tail chunk re-runs cheaply).  The chunks
    are disjoint, exhaustive and contiguous in grid order — contiguity
    keeps each lease's geometry population dense, which is what the
    batched engine's per-geometry stacking wants.
    """
    if n_cases < 1:
        raise LedgerError(f"a campaign needs at least one case, "
                          f"got {n_cases}")
    if workers < 1:
        raise LedgerError(f"workers must be >= 1, got {workers}")
    if min_chunk < 1:
        raise LedgerError(f"min_chunk must be >= 1, got {min_chunk}")
    if factor < 1:
        raise LedgerError(f"factor must be >= 1, got {factor}")
    chunks: List[List[int]] = []
    start = 0
    while start < n_cases:
        remaining = n_cases - start
        size = max(min_chunk, math.ceil(remaining / (factor * workers)))
        size = min(size, remaining)
        chunks.append(list(range(start, start + size)))
        start += size
    return chunks


def grid_digest(fingerprints: Sequence[Dict[str, object]]) -> str:
    """One digest naming the whole campaign grid (order-sensitive).

    The digest of the concatenated per-case digests: workers and the
    merge step can verify they are looking at the same grid without
    shipping the grid itself.
    """
    rollup = hashlib.sha256()
    for fingerprint in fingerprints:
        rollup.update(fingerprint_digest(fingerprint).encode("ascii"))
    return rollup.hexdigest()


#: Seconds between the supervisor's completion checks: a finished
#: campaign returns within this, however long the lease timeout is.
COMPLETION_POLL = 0.1


class Coordinator:
    """Creates, supervises and merges one distributed campaign."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.ledger = LeaseLedger(root)

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, root: Union[str, Path], cases: Sequence[AnyCase],
               workers: int, min_chunk: int = DEFAULT_MIN_CHUNK,
               factor: int = DEFAULT_CHUNK_FACTOR,
               meta: Optional[Dict[str, object]] = None) -> "Coordinator":
        """Publish a new campaign over ``cases`` sized for ``workers``."""
        fingerprints = [case_fingerprint(case) for case in cases]
        chunks = plan_leases(len(fingerprints), workers,
                             min_chunk=min_chunk, factor=factor)
        coordinator = cls(root)
        campaign_meta: Dict[str, object] = {"planned_workers": workers,
                                            "min_chunk": min_chunk,
                                            "factor": factor}
        campaign_meta.update(meta or {})
        coordinator.ledger.initialise(fingerprints, chunks,
                                      grid_digest(fingerprints),
                                      meta=campaign_meta)
        return coordinator

    # ------------------------------------------------------------------
    def status(self) -> Dict[str, object]:
        return self.ledger.status()

    def supervise(self, lease_timeout: float,
                  poll_interval: Optional[float] = None,
                  deadline: Optional[float] = None) -> Dict[str, object]:
        """Re-lease dead workers' chunks until the campaign completes.

        Calls :meth:`LeaseLedger.release_expired` every ``poll_interval``
        seconds (default: a quarter of the lease timeout), so chunks whose
        holders went silent return to the pending pool for surviving
        workers to steal, and checks for completion every
        :data:`COMPLETION_POLL` seconds in between.  Returns the final
        :meth:`status` when every lease is done; raises
        :class:`LedgerError` if ``deadline`` seconds pass first (a
        campaign with no live workers would otherwise supervise forever).
        """
        interval = poll_interval if poll_interval is not None \
            else max(0.05, lease_timeout / 4)
        started = time.monotonic()
        next_release = started
        while True:
            status = self.ledger.status()
            if status["complete"]:
                return status
            now = time.monotonic()
            if now >= next_release:
                self.ledger.release_expired(lease_timeout)
                next_release = now + interval
            if deadline is not None and now - started > deadline:
                raise LedgerError(
                    f"campaign did not complete within {deadline}s "
                    f"(status: {status})")
            time.sleep(min(COMPLETION_POLL, interval))

    # ------------------------------------------------------------------
    def merge(self, require_complete: bool = True) -> MergeReport:
        """Union every lease journal into the verified merged artifact."""
        grid = self.ledger.load_grid()
        journals = sorted(self.ledger.journal_dir.glob("*.jsonl"))
        if not journals:
            raise LedgerError(
                f"no lease journals under {self.ledger.journal_dir}; "
                "has any worker run?")
        return merge_journals(self.ledger.merged_path, journals,
                              grid=grid, require_complete=require_complete)


def spawn_worker(root: Union[str, Path],
                 worker_id: Optional[str] = None,
                 processes: int = 1,
                 lease_timeout: Optional[float] = None,
                 heartbeat_interval: Optional[float] = None,
                 extra_args: Sequence[str] = ()) -> subprocess.Popen:
    """Start one ``python -m repro.distrib worker`` child process."""
    command = [sys.executable, "-m", "repro.distrib", "worker",
               str(root), "--processes", str(processes)]
    if worker_id is not None:
        command += ["--worker-id", worker_id]
    if lease_timeout is not None:
        command += ["--lease-timeout", str(lease_timeout)]
    if heartbeat_interval is not None:
        command += ["--heartbeat-interval", str(heartbeat_interval)]
    command += list(extra_args)
    return subprocess.Popen(command)


def run_distributed(root: Union[str, Path], cases: Sequence[AnyCase],
                    workers: int,
                    lease_timeout: float = 30.0,
                    min_chunk: int = DEFAULT_MIN_CHUNK,
                    factor: int = DEFAULT_CHUNK_FACTOR,
                    supervise_deadline: Optional[float] = None
                    ) -> MergeReport:
    """Create, fan out, supervise and merge one campaign end to end.

    Spawns ``workers`` child processes, supervises until every lease is
    done (stealing from any child that dies), merges, and reaps the
    children.  The convenience wrapper behind ``python -m repro.distrib
    run``, the benchmark and the integration tests.  A lease timeout that
    is not a finite number of seconds > 0 raises :class:`LedgerError`
    before anything is published: a worker would reject it only after
    claiming a lease.
    """
    check_seconds("lease timeout", lease_timeout)
    coordinator = Coordinator.create(root, cases, workers,
                                     min_chunk=min_chunk, factor=factor)
    children = [spawn_worker(root, worker_id=f"worker-{number}",
                             lease_timeout=lease_timeout)
                for number in range(workers)]
    try:
        coordinator.supervise(lease_timeout, deadline=supervise_deadline)
    finally:
        for child in children:
            if child.poll() is None:
                child.terminate()
        for child in children:
            try:
                child.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover - safety
                child.kill()
                child.wait()
    return coordinator.merge(require_complete=True)
