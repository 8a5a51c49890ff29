"""Distributed campaign orchestration: coordinator, workers, lease ledger.

``repro.distrib`` runs one sweep campaign across N worker processes — or
machines sharing a filesystem — with dynamic work-stealing, so
stragglers and dead workers never dominate wall-clock and never lose
completed measurements:

* :mod:`repro.distrib.ledger` — the durable lease ledger: the campaign
  grid, adaptive chunks as lease documents, O_EXCL claim tokens,
  heartbeats and generation-bumping expiry, all over atomic file
  operations (:mod:`repro.durable`);
* :mod:`repro.distrib.worker` — the worker loop: claim a lease, run it
  as an ordinary :class:`repro.sweep.SweepRunner` on the lease's shared
  fsync'd journal (resume-on-steal makes execution exactly-once),
  heartbeat in the background, steal expired chunks;
* :mod:`repro.distrib.coordinator` — partitioning
  (:func:`plan_leases`), campaign creation, supervision, and the final
  verified merge (:func:`repro.sweep.merge.merge_journals`);
* :mod:`repro.distrib.__main__` — ``python -m repro.distrib``
  (``init`` / ``worker`` / ``run`` / ``status`` / ``merge``).

Quickstart (single machine, 4 workers)::

    python -m repro.distrib run campaign/ --workers 4 --paper-coverage
    # -> campaign/merged.jsonl, verified against campaign/grid.jsonl
"""

from .._lazy import lazy_exports

#: The submodule that defines each exported name, imported on first access.
_EXPORTS = {
    "Coordinator": ".coordinator",
    "DistribWorker": ".worker",
    "LEDGER_FORMAT": ".ledger",
    "LEDGER_VERSION": ".ledger",
    "Lease": ".ledger",
    "LeaseLedger": ".ledger",
    "LeaseRevoked": ".ledger",
    "LedgerError": ".ledger",
    "default_worker_id": ".worker",
    "grid_digest": ".coordinator",
    "plan_leases": ".coordinator",
    "run_distributed": ".coordinator",
    "spawn_worker": ".coordinator",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
