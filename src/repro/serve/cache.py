"""Content-addressed on-disk result cache for served campaign requests.

Every campaign request is keyed by the sha256 digest of its canonical
case fingerprint (:func:`repro.sweep.runner.fingerprint_digest`): two
requests describing the same scenario — whatever client serialised them,
in whatever key order — address the same cache entry.  A hit streams the
stored record back without touching an engine; a miss executes and then
stores.

Entries are one JSON document per digest, fanned out over 256
two-hex-character subdirectories (``<root>/ab/abcdef....json``) so a
million-entry cache never puts a million files in one directory.  Writes
are atomic (:func:`repro.durable.atomic_write_text` — temp file in the
same directory, fsync, ``os.replace``, enforced by lint rule RPR003) and
reads are defensive: a torn, foreign or unreadable entry is simply a
cache miss — the scenario re-executes and the entry is rewritten — never
an error surfaced to a client.

The cache is unbounded by default (it grows monotonically with the
distinct-scenario workload); pass ``max_entries`` and/or ``max_bytes``
to cap it with LRU eviction.  Recency is tracked in memory (an ordered
index, hits move to the back) and mirrored to the entries' file mtimes,
so a restarted service rebuilds the same LRU order from the directory
alone.  Eviction is atomic per entry — an unlink of the oldest entry,
never a rewrite — so a concurrent reader of a victim entry sees a
well-formed document or a miss, nothing in between.

Every entry an instance reads or stores is also kept, parsed, in an
in-process LRU of at most :data:`MEMORY_ENTRIES` entries, so a repeated
hit is a dictionary lookup rather than a file read and a JSON parse.
Disk stays the durable copy: a store replaces the memory copy, an
eviction drops it, and a restarted service (or another process) sees
exactly the entry files.  A memory hit still refreshes the recency
index and the file mtime, so the LRU order a restart rebuilds is the
same.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Optional, Union

from ..durable import atomic_write_text

#: The ``format`` tag every cache entry carries.
CACHE_FORMAT = "repro-serve-cache"
#: The entry schema version this module writes.
CACHE_VERSION = 1
#: Parsed entries each :class:`ResultCache` keeps in memory (~4 KB each).
MEMORY_ENTRIES = 1024


class ResultCache:
    """Digest-addressed store of completed campaign records.

    ``root`` is created on first store; a missing root is an empty cache.
    The cache holds flat dictionaries (the same ``record.as_dict()`` form
    the journal and the JSON exports carry) — mapping records back to
    their dataclasses is the caller's concern.

    ``max_entries`` / ``max_bytes`` cap the cache (``None`` = unbounded):
    whenever a store pushes either total past its cap, least-recently-used
    entries are unlinked until both fit again.  All index bookkeeping is
    lock-guarded — the serving layer stores from concurrent pool threads.

    Entries returned by :meth:`get` and :meth:`store` are shared with the
    in-memory tier and with every later hit: treat them as read-only.
    """

    def __init__(self, root: Union[str, Path],
                 max_entries: Optional[int] = None,
                 max_bytes: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(
                f"max_entries must be >= 1 or None, got {max_entries}")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(
                f"max_bytes must be >= 1 or None, got {max_bytes}")
        self.root = Path(root)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        #: entries unlinked by LRU eviction over this instance's lifetime
        self.evictions = 0
        #: gets answered from the in-memory tier without reading a file
        self.memory_hits = 0
        self._lock = threading.Lock()
        # digest -> parsed entry, least-recently-used first; at most
        # MEMORY_ENTRIES long, and never holding an entry disk evicted.
        self._memory: "OrderedDict[str, Dict[str, object]]" = OrderedDict()
        # digest -> entry size in bytes, least-recently-used first.
        # Built lazily from the directory (mtime order) when a cap is
        # set; not maintained at all for an unbounded cache.
        self._index: Optional["OrderedDict[str, int]"] = None

    @property
    def bounded(self) -> bool:
        """True when an eviction cap is configured."""
        return self.max_entries is not None or self.max_bytes is not None

    def path_for(self, digest: str) -> Path:
        """Where the entry of ``digest`` lives (whether or not it exists)."""
        return self.root / digest[:2] / f"{digest}.json"

    # ------------------------------------------------------------------
    # LRU index (only maintained when a cap is set) and memory tier
    # ------------------------------------------------------------------
    def _ensure_index(self) -> "OrderedDict[str, int]":
        """The recency index, rebuilt from file mtimes on first use."""
        if self._index is None:
            entries = []
            if self.root.exists():
                for path in self.root.glob("??/*.json"):
                    try:
                        stat = path.stat()
                    except OSError:
                        continue  # concurrently evicted
                    entries.append((stat.st_mtime, path.stem, stat.st_size))
            entries.sort()  # oldest mtime first = least recently used
            self._index = OrderedDict(
                (digest, size) for _, digest, size in entries)
        return self._index

    def _refresh(self, digest: str) -> bool:
        """Move ``digest`` to the back of the recency index (lock held).

        False when a bounded cache does not index ``digest`` (evicted
        while it was read, or written by another process after the index
        was built): such an entry is served but not kept in memory, so
        memory never holds an entry the index does not.
        """
        if not self.bounded:
            return True
        index = self._ensure_index()
        if digest not in index:
            return False
        index.move_to_end(digest)
        return True

    def _remember(self, digest: str, entry: Dict[str, object]) -> None:
        """Put ``entry`` at the back of the memory tier (lock held)."""
        self._memory[digest] = entry
        self._memory.move_to_end(digest)
        while len(self._memory) > MEMORY_ENTRIES:
            self._memory.popitem(last=False)

    def _account_store(self, digest: str, size: int,
                       entry: Dict[str, object]) -> None:
        """Remember and index a stored entry, then evict LRU victims past
        the caps."""
        with self._lock:
            if self.bounded and not self.path_for(digest).exists():
                return  # a re-store evicted while written: keep nothing
            self._remember(digest, entry)
            if not self.bounded:
                return
            index = self._ensure_index()
            index.pop(digest, None)  # re-store: replace the old size
            index[digest] = size
            while len(index) > 1 and self._over_capacity(index):
                victim, _ = next(iter(index.items()))
                index.pop(victim)
                self._memory.pop(victim, None)
                try:
                    self.path_for(victim).unlink()
                except OSError:
                    pass  # already gone: the accounting removal stands
                self.evictions += 1

    def _over_capacity(self, index: "OrderedDict[str, int]") -> bool:
        if self.max_entries is not None and len(index) > self.max_entries:
            return True
        if self.max_bytes is not None \
                and sum(index.values()) > self.max_bytes:
            return True
        return False

    # ------------------------------------------------------------------
    def get(self, digest: str) -> Optional[Dict[str, object]]:
        """The stored entry of ``digest``, or ``None`` on any miss.

        The memory tier answers first; otherwise the file is read.  A
        corrupt, torn or foreign file reads as a miss by design: the
        serving layer re-executes the scenario and overwrites the entry,
        which is self-healing — a kill mid-store never poisons the cache.
        The returned entry is shared: do not mutate it.
        """
        with self._lock:
            entry = self._memory.get(digest)
            if entry is not None:
                self._memory.move_to_end(digest)
                self._refresh(digest)
                self.memory_hits += 1
        if entry is None:
            entry = self._read(digest)
            if entry is None:
                return None
            with self._lock:
                # A store that raced this read holds the newer copy.
                if self._refresh(digest) and digest not in self._memory:
                    self._remember(digest, entry)
        if self.bounded:
            try:
                os.utime(self.path_for(digest))
            except OSError:
                pass  # evicted between read and touch: the read still served
        return entry

    def _read(self, digest: str) -> Optional[Dict[str, object]]:
        """The entry file of ``digest`` parsed, or ``None`` if unusable."""
        try:
            text = self.path_for(digest).read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            entry = json.loads(text)
        except json.JSONDecodeError:
            return None  # torn final write: re-execute and rewrite
        if not isinstance(entry, dict) \
                or entry.get("format") != CACHE_FORMAT \
                or entry.get("version") != CACHE_VERSION \
                or not isinstance(entry.get("record"), dict):
            return None
        return entry

    def store(self, digest: str, fingerprint: Dict[str, object],
              kind: str, record: Dict[str, object]) -> Dict[str, object]:
        """Atomically persist one completed scenario under ``digest``.

        The fingerprint is stored next to the record so the cache is
        audit-friendly (an entry names the scenario it answers) and so a
        replayed workload trace can be validated against it.  On a
        bounded cache the store is what triggers eviction: the new entry
        lands most-recently-used, then LRU victims are unlinked until
        the caps hold again.
        """
        entry = {
            "format": CACHE_FORMAT,
            "version": CACHE_VERSION,
            "digest": digest,
            "kind": kind,
            "fingerprint": fingerprint,
            "record": record,
        }
        path = self.path_for(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(entry, sort_keys=True)
        atomic_write_text(path, payload)
        self._account_store(digest, len(payload.encode("utf-8")), entry)
        return entry

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Occupancy and eviction counters (for ``GET /v1/stats``)."""
        if self.bounded:
            with self._lock:
                index = self._ensure_index()
                entries = len(index)
                size = sum(index.values())
        else:
            entries = len(self)
            size = 0
            if self.root.exists():
                for path in self.root.glob("??/*.json"):
                    try:
                        size += path.stat().st_size
                    except OSError:
                        continue
        return {
            "entries": entries,
            "bytes": size,
            "max_entries": self.max_entries,
            "max_bytes": self.max_bytes,
            "evictions": self.evictions,
            "memory_entries": len(self._memory),
            "memory_hits": self.memory_hits,
        }

    def __len__(self) -> int:
        """Number of entries currently on disk (a scan, not a counter)."""
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("??/*.json"))
