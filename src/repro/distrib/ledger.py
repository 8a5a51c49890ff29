"""Durable work-stealing lease ledger over a shared filesystem.

The ledger is the coordination substrate of :mod:`repro.distrib`: one
directory tree that any number of worker processes (or machines mounting
the same filesystem) read and write with nothing but atomic file
operations — no server, no sockets, no locks held across crashes.  Every
scheduling decision is a file, so a finished (or half-finished, or
crashed) campaign can be reconstructed from the directory alone::

    <root>/manifest.json        campaign manifest (grid digest, lease map)
    <root>/grid.jsonl           one case fingerprint per line, grid order
    <root>/leases/<id>.json     lease state: pending / claimed / done
    <root>/leases/<id>.gen<g>.claim   O_EXCL claim token of generation g
    <root>/leases/<id>.heartbeat.json latest liveness proof of the holder
    <root>/journals/<id>.jsonl  the lease's fsync'd sweep journal
    <root>/merged.jsonl         the verified merged record set

Safety argument, in brief:

* **claiming** — a lease of generation *g* is won by the worker that
  creates ``<id>.gen<g>.claim`` with ``O_CREAT | O_EXCL``; the
  filesystem arbitrates races, exactly one creator succeeds;
* **stealing** — a claimed lease whose heartbeat goes stale past the
  timeout is *re-leased*: its generation is bumped (a new token name, so
  the old claim cannot win again) and its state returns to pending, with
  the eviction recorded in the lease's ``steals`` history;
* **no double execution** — generations arbitrate *writers of state*,
  not results: every generation of a lease appends to the **same** sweep
  journal, and a re-leased worker resumes that journal
  (:class:`repro.sweep.SweepRunner` restores completed cases verbatim
  and executes only the missing ones), so a case measured by a killed
  worker is never measured again;
* **durability** — every state transition is an atomic replace
  (:func:`repro.durable.atomic_write_text`): a reader sees the previous
  lease document or the next one, never a torn hybrid.

Lease documents carry the ledger ``format``/``version`` tags and every
loader validates both (lint rule RPR007): silently resuming a campaign
written by an incompatible ledger is how grids get corrupted.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..durable import atomic_write_text, create_exclusive, read_objects

__all__ = [
    "LEDGER_FORMAT",
    "LEDGER_VERSION",
    "Lease",
    "LeaseLedger",
    "LedgerError",
    "LeaseRevoked",
]

#: The ``format`` tag every ledger document (manifest, lease, heartbeat)
#: carries.
LEDGER_FORMAT = "repro-distrib-ledger"
#: The ledger schema version this module writes; loaders reject any
#: other (RPR007: format and version are validated together).
LEDGER_VERSION = 1

#: Lease lifecycle states.
LEASE_STATES = ("pending", "claimed", "done")

#: Guided self-scheduling divisor of lease planning
#: (:func:`repro.distrib.coordinator.plan_leases`): each planning round
#: leases ``remaining / (factor * workers)`` cases, so chunk sizes decay
#: geometrically toward the tail.
DEFAULT_CHUNK_FACTOR = 2
#: The smallest lease a plan cuts, in cases.
DEFAULT_MIN_CHUNK = 1


class LedgerError(Exception):
    """Raised on malformed, foreign or inconsistent ledger state."""


class LeaseRevoked(LedgerError):
    """The caller's lease generation was superseded (its chunk stolen)."""


def check_seconds(name: str, seconds: float) -> float:
    """``seconds`` when it is a finite duration > 0, else
    :class:`LedgerError` naming ``name``.

    Every timing knob of a campaign passes through here: a NaN lease
    timeout would expire every live lease (no age compares below NaN), a
    zero heartbeat interval would spin the heartbeat thread, and a
    negative poll interval would crash the first idle sleep.
    """
    if not (isinstance(seconds, (int, float)) and math.isfinite(seconds)
            and seconds > 0):
        raise LedgerError(
            f"{name} must be a finite number of seconds > 0, got {seconds!r}")
    return seconds


def _load_document(path: Path, role: str) -> Dict[str, object]:
    """Read and validate one ledger JSON document.

    Every loader goes through here: the ``format`` tag, the schema
    ``version`` and the document ``role`` are all checked, so a foreign
    file — or a ledger written by a future incompatible version — fails
    loudly instead of quietly resuming the wrong campaign.
    """
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise LedgerError(f"cannot read ledger document {path}: {exc}") \
            from exc
    except json.JSONDecodeError as exc:
        raise LedgerError(
            f"ledger document {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) \
            or payload.get("format") != LEDGER_FORMAT:
        raise LedgerError(
            f"{path} is not a {LEDGER_FORMAT} document; is this a "
            "repro.distrib campaign directory?")
    if payload.get("version") != LEDGER_VERSION:
        raise LedgerError(
            f"{path} has ledger version {payload.get('version')!r}; this "
            f"reader understands version {LEDGER_VERSION}")
    if payload.get("role") != role:
        raise LedgerError(
            f"{path} is a {payload.get('role')!r} document, expected "
            f"{role!r}")
    return payload


@dataclass
class Lease:
    """One chunk of the campaign grid and its scheduling state.

    ``case_indices`` are positions in the campaign grid (``grid.jsonl``
    line numbers); ``generation`` counts how many times the chunk has
    been leased (1 on creation, +1 per steal); ``steals`` is the audit
    trail of evictions — who lost the lease, when, and at which
    generation.
    """

    lease_id: str
    case_indices: List[int]
    state: str = "pending"
    generation: int = 1
    worker: Optional[str] = None
    claimed_unix: Optional[float] = None
    completed_unix: Optional[float] = None
    steals: List[Dict[str, object]] = field(default_factory=list)

    def to_payload(self) -> Dict[str, object]:
        """The lease as a ledger JSON document."""
        return {
            "format": LEDGER_FORMAT,
            "version": LEDGER_VERSION,
            "role": "lease",
            "lease_id": self.lease_id,
            "case_indices": list(self.case_indices),
            "state": self.state,
            "generation": self.generation,
            "worker": self.worker,
            "claimed_unix": self.claimed_unix,
            "completed_unix": self.completed_unix,
            "steals": list(self.steals),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object],
                     path: Path) -> "Lease":
        """Rebuild a lease from its (already format-checked) document."""
        try:
            lease = cls(
                lease_id=str(payload["lease_id"]),
                case_indices=[int(index) for index
                              in payload["case_indices"]],  # type: ignore[union-attr]
                state=str(payload["state"]),
                generation=int(payload["generation"]),  # type: ignore[arg-type]
                worker=payload.get("worker"),  # type: ignore[arg-type]
                claimed_unix=payload.get("claimed_unix"),  # type: ignore[arg-type]
                completed_unix=payload.get("completed_unix"),  # type: ignore[arg-type]
                steals=list(payload.get("steals") or []),  # type: ignore[arg-type]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise LedgerError(
                f"lease document {path} is missing fields: {exc}") from exc
        if lease.state not in LEASE_STATES:
            raise LedgerError(
                f"lease document {path} has unknown state "
                f"{lease.state!r}; expected one of {LEASE_STATES}")
        return lease


class LeaseLedger:
    """Filesystem lease ledger of one distributed campaign.

    All methods are safe to call concurrently from any number of
    processes sharing the directory; mutating methods either win their
    race (O_EXCL claim tokens) or publish atomically (temp file +
    ``os.replace`` via :mod:`repro.durable`).
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.root / "manifest.json"

    @property
    def grid_path(self) -> Path:
        return self.root / "grid.jsonl"

    @property
    def lease_dir(self) -> Path:
        return self.root / "leases"

    @property
    def journal_dir(self) -> Path:
        return self.root / "journals"

    @property
    def merged_path(self) -> Path:
        return self.root / "merged.jsonl"

    def lease_path(self, lease_id: str) -> Path:
        return self.lease_dir / f"{lease_id}.json"

    def heartbeat_path(self, lease_id: str) -> Path:
        return self.lease_dir / f"{lease_id}.heartbeat.json"

    def claim_token_path(self, lease_id: str, generation: int) -> Path:
        return self.lease_dir / f"{lease_id}.gen{generation}.claim"

    def journal_path(self, lease_id: str) -> Path:
        """The lease's sweep journal — shared by every generation, which
        is what makes a steal resume instead of re-execute."""
        return self.journal_dir / f"{lease_id}.jsonl"

    # ------------------------------------------------------------------
    # Campaign creation (coordinator side)
    # ------------------------------------------------------------------
    def initialise(self, fingerprints: Sequence[Dict[str, object]],
                   chunks: Sequence[Sequence[int]],
                   grid_digest: str,
                   meta: Optional[Dict[str, object]] = None) -> None:
        """Create the campaign layout: grid, lease files, manifest last.

        The manifest is written *after* every lease file, so a manifest
        that exists names a fully-initialised campaign — workers poll
        for it and never observe a half-built ledger.  Re-initialising
        an existing campaign is an error (wipe the directory to rebuild).
        """
        if self.manifest_path.exists():
            raise LedgerError(
                f"campaign {self.root} is already initialised; remove the "
                "directory to build a new one")
        covered = sorted(index for chunk in chunks for index in chunk)
        if covered != list(range(len(fingerprints))):
            raise LedgerError(
                "lease chunks must partition the grid exactly: expected "
                f"indices 0..{len(fingerprints) - 1}, got "
                f"{len(covered)} indices")
        self.lease_dir.mkdir(parents=True, exist_ok=True)
        self.journal_dir.mkdir(parents=True, exist_ok=True)
        grid_lines = [json.dumps(fingerprint, sort_keys=True,
                                 separators=(",", ":"))
                      for fingerprint in fingerprints]
        atomic_write_text(self.grid_path, "\n".join(grid_lines) + "\n")
        lease_ids: List[str] = []
        width = max(4, len(str(len(chunks))))
        for number, chunk in enumerate(chunks):
            lease_id = f"lease-{number:0{width}d}"
            lease_ids.append(lease_id)
            lease = Lease(lease_id=lease_id,
                          case_indices=[int(index) for index in chunk])
            atomic_write_text(self.lease_path(lease_id),
                              json.dumps(lease.to_payload(), sort_keys=True))
        manifest: Dict[str, object] = {
            "format": LEDGER_FORMAT,
            "version": LEDGER_VERSION,
            "role": "manifest",
            "cases": len(fingerprints),
            "grid_digest": grid_digest,
            "lease_ids": lease_ids,
            "created_unix": round(time.time(), 3),
            "meta": dict(meta or {}),
        }
        atomic_write_text(self.manifest_path,
                          json.dumps(manifest, sort_keys=True, indent=2))

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def load_manifest(self) -> Dict[str, object]:
        """The campaign manifest (format/version/role validated)."""
        if not self.manifest_path.exists():
            raise LedgerError(
                f"no campaign manifest at {self.manifest_path}; "
                "initialise the campaign first")
        return _load_document(self.manifest_path, "manifest")

    def load_grid(self) -> List[Dict[str, object]]:
        """Every case fingerprint of the campaign grid, in grid order."""
        return read_objects(self.grid_path, LedgerError, "grid")

    def lease_ids(self) -> List[str]:
        """Every lease id of the campaign, in manifest order."""
        manifest = self.load_manifest()
        ids = manifest.get("lease_ids")
        if not isinstance(ids, list):
            raise LedgerError(
                f"manifest {self.manifest_path} has no lease_ids list")
        return [str(lease_id) for lease_id in ids]

    def read_lease(self, lease_id: str) -> Lease:
        """The current state of one lease (format/version validated)."""
        path = self.lease_path(lease_id)
        payload = _load_document(path, "lease")
        return Lease.from_payload(payload, path)

    def leases(self) -> List[Lease]:
        """Every lease of the campaign, in manifest order."""
        return [self.read_lease(lease_id) for lease_id in self.lease_ids()]

    # ------------------------------------------------------------------
    # Worker-side transitions
    # ------------------------------------------------------------------
    def _write_lease(self, lease: Lease) -> None:
        atomic_write_text(self.lease_path(lease.lease_id),
                          json.dumps(lease.to_payload(), sort_keys=True))

    def claim(self, lease_id: str, worker: str) -> Optional[Lease]:
        """Try to claim a pending lease; ``None`` when the race is lost.

        The O_EXCL creation of the generation's claim token is the
        arbitration point: whichever process creates it owns the lease,
        every other contender gets ``FileExistsError`` and backs off.
        The lease document update that follows is cosmetic bookkeeping —
        even if the winner dies before writing it, the token alone
        prevents double claiming, and :meth:`release_expired` eventually
        re-leases the chunk under a fresh generation.
        """
        lease = self.read_lease(lease_id)
        if lease.state != "pending":
            return None
        token = self.claim_token_path(lease_id, lease.generation)
        if not create_exclusive(token, worker.encode("utf-8")):
            return None  # another worker won this generation
        now = time.time()
        lease.state = "claimed"
        lease.worker = worker
        lease.claimed_unix = now
        self._write_lease(lease)
        self.heartbeat(lease)
        return lease

    def heartbeat(self, lease: Lease) -> None:
        """Refresh the holder's liveness proof for ``lease``.

        Raises :class:`LeaseRevoked` when the lease has been re-leased
        under a newer generation — the caller lost the chunk and must
        stop working on it (its completed cases are already safe in the
        shared journal).
        """
        current = self.read_lease(lease.lease_id)
        if current.generation != lease.generation:
            raise LeaseRevoked(
                f"lease {lease.lease_id} generation {lease.generation} was "
                f"superseded by generation {current.generation} "
                f"(worker {current.worker!r})")
        atomic_write_text(self.heartbeat_path(lease.lease_id), json.dumps({
            "format": LEDGER_FORMAT,
            "version": LEDGER_VERSION,
            "role": "heartbeat",
            "lease_id": lease.lease_id,
            "generation": lease.generation,
            "worker": lease.worker,
            "time_unix": round(time.time(), 3),
        }, sort_keys=True))

    def complete(self, lease: Lease) -> None:
        """Mark ``lease`` done (idempotent across racing generations).

        Completion is legitimate even when the caller's generation was
        superseded mid-run: every completed case is in the shared
        journal either way, and the thief's resume restores rather than
        re-executes.  The done state simply stops further claiming.
        """
        current = self.read_lease(lease.lease_id)
        if current.state == "done":
            return
        current.state = "done"
        current.worker = lease.worker
        current.completed_unix = round(time.time(), 3)
        self._write_lease(current)

    # ------------------------------------------------------------------
    # Expiry / stealing
    # ------------------------------------------------------------------
    def _last_seen(self, lease: Lease) -> Optional[float]:
        """The holder's most recent liveness timestamp, or ``None``.

        Prefers the heartbeat file (validated and generation-matched);
        falls back to the lease's claim time when no heartbeat landed
        yet.  A corrupt heartbeat file reads as "no heartbeat" — expiry
        must make progress past torn writes, not crash on them.
        """
        path = self.heartbeat_path(lease.lease_id)
        try:
            payload = _load_document(path, "heartbeat")
        except LedgerError:
            payload = None
        if payload is not None \
                and payload.get("generation") == lease.generation:
            stamp = payload.get("time_unix")
            if isinstance(stamp, (int, float)):
                return float(stamp)
        return lease.claimed_unix

    def release_expired(self, timeout: float,
                        now: Optional[float] = None) -> List[str]:
        """Re-lease every chunk whose holder went silent past ``timeout``.

        Covers both failure shapes: a *claimed* lease with a stale (or
        never-written) heartbeat, and a *pending* lease whose current
        claim token exists but whose claimer died before publishing the
        claimed state.  Each re-lease bumps the generation — the next
        claim targets a fresh token name the dead worker can never hold
        — and appends to the lease's ``steals`` audit trail.  Returns
        the ids of the re-leased chunks.
        """
        check_seconds("lease timeout", timeout)
        moment = time.time() if now is None else now
        released: List[str] = []
        for lease in self.leases():
            if lease.state == "done":
                continue
            if lease.state == "claimed":
                last_seen = self._last_seen(lease)
                if last_seen is not None and moment - last_seen < timeout:
                    continue
                reason = "heartbeat expired"
            else:  # pending: recover a claim that died before publishing
                token = self.claim_token_path(lease.lease_id,
                                              lease.generation)
                try:
                    token_age = moment - token.stat().st_mtime
                except OSError:
                    continue  # no token: genuinely unclaimed, nothing to do
                if token_age < timeout:
                    continue
                reason = "claim token orphaned"
            lease.steals.append({
                "generation": lease.generation,
                "worker": lease.worker,
                "reason": reason,
                "time_unix": round(moment, 3),
            })
            lease.generation += 1
            lease.state = "pending"
            lease.worker = None
            lease.claimed_unix = None
            self._write_lease(lease)
            released.append(lease.lease_id)
        return released

    # ------------------------------------------------------------------
    # Status
    # ------------------------------------------------------------------
    def status(self) -> Dict[str, object]:
        """Counts per lease state plus steal and case totals."""
        counts = {state: 0 for state in LEASE_STATES}
        cases_done = 0
        steals = 0
        for lease in self.leases():
            counts[lease.state] += 1
            steals += len(lease.steals)
            if lease.state == "done":
                cases_done += len(lease.case_indices)
        total = sum(counts.values())
        return {
            "leases": total,
            "pending": counts["pending"],
            "claimed": counts["claimed"],
            "done": counts["done"],
            "steals": steals,
            "cases_done": cases_done,
            "complete": total > 0 and counts["done"] == total,
        }
