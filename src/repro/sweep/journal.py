"""Append-only JSONL run journal for sweep campaigns.

A long campaign (hundreds of paper-scale scenarios fanned out over worker
processes) must survive interruption: the :class:`RunJournal` records one
line per *completed* case — kind-tagged, carrying both the case
description and the full measurement record — flushed and fsync'd before
the orchestrator moves on, so a killed run loses at most the cases that
were still in flight.  ``SweepRunner(..., journal=path).run(resume=True)``
reloads the journal, restores the already-measured records verbatim
(including their original ``elapsed_s``), and re-executes only the missing
cases.

The format is deliberately self-describing and analyzable with nothing but
a JSONL reader: every line is an independent JSON object ::

    {"format": "repro-sweep-journal", "version": 1, "case_index": 3,
     "kind": "prr", "case": {...}, "record": {...}}

``case`` is the flattened scenario description (the resume fingerprint —
a journal only resumes the exact grid it was written for), ``record`` the
same flat dictionary the JSON/CSV exports carry.  This module stays
generic over plain dictionaries; :mod:`repro.sweep.runner` owns the
mapping between entries and its case/record dataclasses.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union


class JournalError(Exception):
    """Raised on malformed or foreign journal files."""


#: The ``format`` tag every journal line carries.
JOURNAL_FORMAT = "repro-sweep-journal"
#: The ``format`` tag of the optional first-line header (run metadata:
#: grid size, pending cases, an orchestrator's lease identity, ...).
#: Older headers may also name an execution strategy.  Loaders skip
#: header lines when collecting entries, so journals with and without a
#: header resume identically.
JOURNAL_HEADER_FORMAT = "repro-sweep-journal-header"
#: The journal schema version this module writes.
JOURNAL_VERSION = 1

#: How every entry line this module writes begins (:meth:`JournalEntry.to_line`
#: serialises with ``sort_keys``, so ``"case"`` is always the first key).
#: A torn final write cut at *any* byte is prefix-consistent with this,
#: which is how it is told apart from a foreign file.
_LINE_PREFIX = '{"case"'
#: How a header line begins (``sort_keys`` puts ``"format"`` first).
_HEADER_PREFIX = f'{{"format": "{JOURNAL_HEADER_FORMAT}"'


def _looks_torn(fragment: str) -> bool:
    """True when a decode-failing tail is a plausible torn journal line."""
    for prefix in (_LINE_PREFIX, _HEADER_PREFIX):
        head = fragment[:len(prefix)]
        if head == prefix or prefix.startswith(head):
            return True
    return False


def _is_header_line(line: str) -> bool:
    """True when ``line`` is a journal header (never an entry)."""
    return line.lstrip().startswith(_HEADER_PREFIX)


@dataclass(frozen=True)
class JournalEntry:
    """One completed case as recorded in (or loaded from) a journal.

    ``case_index`` is the case's position in the (possibly sharded) case
    list handed to the runner; ``kind`` the record kind tag
    (``"power"`` / ``"coverage"`` / ``"prr"``); ``case`` and ``record``
    the flat dictionary forms of the scenario and its measurements.
    """

    case_index: int
    kind: str
    case: Dict[str, object]
    record: Dict[str, object]

    def to_line(self) -> str:
        """The entry as one JSONL line (no trailing newline)."""
        return json.dumps({
            "format": JOURNAL_FORMAT,
            "version": JOURNAL_VERSION,
            "case_index": self.case_index,
            "kind": self.kind,
            "case": self.case,
            "record": self.record,
        }, sort_keys=True)

    @classmethod
    def from_line(cls, line: str, lineno: int = 0) -> "JournalEntry":
        """Parse one journal line, validating the format tag."""
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise JournalError(
                f"journal line {lineno} is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict) or \
                payload.get("format") != JOURNAL_FORMAT:
            raise JournalError(
                f"journal line {lineno} is not a {JOURNAL_FORMAT} record")
        if payload.get("version") != JOURNAL_VERSION:
            raise JournalError(
                f"journal line {lineno} has version "
                f"{payload.get('version')!r}; this reader understands "
                f"version {JOURNAL_VERSION}")
        try:
            return cls(case_index=int(payload["case_index"]),
                       kind=str(payload["kind"]),
                       case=dict(payload["case"]),
                       record=dict(payload["record"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise JournalError(
                f"journal line {lineno} is missing fields: {exc}") from exc


class RunJournal:
    """Append-only JSONL writer/loader for campaign run records.

    The write handle opens on :meth:`open` (the orchestrator calls it
    *before* executing any case, so an unwritable path fails while zero
    work has been done, not after the first measurement completes) or
    lazily on the first :meth:`append`, and stays open for the campaign's
    duration; every appended line is flushed and fsync'd so a ``kill -9``
    loses no completed case.  Use as a context manager or call
    :meth:`close` explicitly.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._handle = None

    # ------------------------------------------------------------------
    def open(self) -> "RunJournal":
        """Open the append handle now (probe writability up front)."""
        if self._handle is None:
            self._discard_torn_tail()
            self._handle = self.path.open("a", encoding="utf-8")
        return self

    def _discard_torn_tail(self) -> None:
        """Physically drop a torn (newline-less) final line before appending.

        Appending straight after a torn tail would merge the new entry
        into the fragment, producing one complete-but-corrupt line that
        poisons every later :meth:`load`.  The loader already ignores the
        fragment, so truncating it loses nothing — the interrupted case
        re-runs either way.
        """
        if not self.path.exists():
            return
        data = self.path.read_bytes()
        if not data or data.endswith(b"\n"):
            return
        cut = data.rfind(b"\n") + 1  # 0 when the file is a single fragment
        with self.path.open("rb+") as handle:
            handle.truncate(cut)

    def append(self, entry: JournalEntry) -> None:
        """Durably append one completed case (flush + fsync per line)."""
        self.open()
        self._handle.write(entry.to_line() + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def write_header(self, meta: Dict[str, object]) -> None:
        """Durably write the run-metadata header line.

        Meant for the very start of a fresh journal (the orchestrator
        writes it right after probing writability); carries free-form run
        metadata such as the grid size and a distrib lease's identity.
        Loaders skip it when collecting entries, so resume semantics are
        unchanged.
        """
        self.open()
        self._handle.write(json.dumps({
            "format": JOURNAL_HEADER_FORMAT,
            "version": JOURNAL_VERSION,
            "meta": meta,
        }, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def read_header(self) -> Optional[Dict[str, object]]:
        """The ``meta`` of the journal's header line, or ``None``.

        Scans only the leading lines (headers are written before any
        entry); a malformed *complete* header — bad JSON, or a header
        schema version this reader does not understand — raises
        :class:`JournalError` like any other corrupt line would on
        :meth:`load`.  A torn, newline-less header fragment — the
        artifact of a kill during the very first header write — is "no
        header yet", matching the torn-tail tolerance of :meth:`load` and
        :meth:`open`: all three entry points agree that such a journal is
        empty and restartable.
        """
        if not self.path.exists():
            return None
        text = self.path.read_text(encoding="utf-8")
        lines = text.split("\n")
        complete = lines[:-1]          # every line closed by a newline
        torn_tail = lines[-1]          # "" when the file ends in a newline
        for line in complete:
            if not line.strip():
                continue
            if not _is_header_line(line):
                return None
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise JournalError(
                    f"journal header is not valid JSON: {exc}") from exc
            if payload.get("version") != JOURNAL_VERSION:
                raise JournalError(
                    f"journal header has version "
                    f"{payload.get('version')!r}; this reader understands "
                    f"version {JOURNAL_VERSION}")
            return dict(payload.get("meta") or {})
        if torn_tail.strip() and not _looks_torn(torn_tail):
            # A newline-less fragment that could not be the start of a
            # header or entry line is foreign content, not a torn write.
            raise JournalError(
                f"journal {self.path} holds unrecognised content; "
                "is it a repro-sweep journal?")
        return None

    def close(self) -> None:
        """Close the underlying file (no-op when nothing was appended)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def load(self) -> List[JournalEntry]:
        """Every entry of the journal file, in append order.

        A missing file is an empty journal (a resumed campaign that never
        completed a case).  Blank lines are tolerated; anything else that
        does not parse raises :class:`JournalError` — a corrupt journal
        must fail loudly, not silently re-execute or skip cases.  The one
        exception is a torn *final* line of an otherwise valid journal
        (an unparseable JSON prefix without a trailing newline, the
        classic kill-mid-write artifact), which is dropped so the case
        simply re-runs; a file whose *only* content fails to parse is a
        foreign or corrupt file and raises.
        """
        if not self.path.exists():
            return []
        entries: List[JournalEntry] = []
        text = self.path.read_text(encoding="utf-8")
        lines = text.split("\n")
        complete = lines[:-1]          # every line closed by a newline
        torn_tail = lines[-1]          # "" when the file ends in a newline
        for lineno, line in enumerate(complete, start=1):
            if not line.strip():
                continue
            if _is_header_line(line):
                continue  # run metadata, not a completed case
            entries.append(JournalEntry.from_line(line, lineno=lineno))
        if torn_tail.strip():
            try:
                entries.append(JournalEntry.from_line(
                    torn_tail, lineno=len(lines)))
            except JournalError as exc:
                # Drop only a genuinely torn final write: a JSON *decode*
                # failure at the end of a journal that already holds valid
                # entries, or — for a kill during the very first append —
                # a fragment that is byte-wise the start of a journal
                # line.  A decodable-but-foreign tail, or unrecognisable
                # content with no valid entry, is not a torn journal.
                torn = isinstance(exc.__cause__, json.JSONDecodeError)
                if not (torn and (entries or _looks_torn(torn_tail))):
                    raise
        return entries

    def latest_by_index(self) -> Dict[int, JournalEntry]:
        """The last entry per case index (re-runs append; last one wins)."""
        latest: Dict[int, JournalEntry] = {}
        for entry in self.load():
            latest[entry.case_index] = entry
        return latest


def load_journal(path: Union[str, Path]) -> List[JournalEntry]:
    """Convenience wrapper: every entry of the journal at ``path``."""
    return RunJournal(path).load()
