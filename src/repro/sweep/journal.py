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
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Dict, List, Optional, Tuple, Union

from ..durable import fsync_append, open_log, read_log


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

#: How the lines this module writes begin (``sort_keys`` puts ``"case"``
#: first in an entry and ``"format"`` first in a header): a newline-less
#: tail that could begin one is a torn write (:mod:`repro.durable`).
_HEADER_PREFIX = f'{{"format": "{JOURNAL_HEADER_FORMAT}"'
_STARTS = ('{"case"', _HEADER_PREFIX)


def _is_header_line(line: str) -> bool:
    """True when ``line`` is a journal header (never an entry)."""
    return line.lstrip().startswith(_HEADER_PREFIX)


def header_line(meta: Dict[str, object]) -> str:
    """The header line carrying ``meta`` (no trailing newline)."""
    return json.dumps({
        "format": JOURNAL_HEADER_FORMAT,
        "version": JOURNAL_VERSION,
        "meta": meta,
    }, sort_keys=True)


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
        self._handle: Optional[IO[str]] = None

    # ------------------------------------------------------------------
    def open(self) -> "RunJournal":
        """Open the append handle now (probe writability up front).

        A torn final line is cut first, so the next entry is a line of
        its own; foreign content raises :class:`JournalError`.
        """
        self._log()
        return self

    def _log(self) -> IO[str]:
        if self._handle is None:
            self._handle = open_log(self.path, JournalError, "journal",
                                    _STARTS)
        return self._handle

    def append(self, entry: JournalEntry) -> None:
        """Durably append one completed case (flush + fsync per line)."""
        fsync_append(self._log(), entry.to_line())

    def write_header(self, meta: Dict[str, object]) -> None:
        """Durably write the run-metadata header line.

        Meant for the very start of a fresh journal (the orchestrator
        writes it right after probing writability); carries free-form run
        metadata such as the grid size and a distrib lease's identity.
        Loaders skip it when collecting entries, so resume semantics are
        unchanged.
        """
        fsync_append(self._log(), header_line(meta))

    def _lines(self) -> List[Tuple[int, str]]:
        """The journal's complete lines (:func:`repro.durable.read_log`);
        none for a missing file."""
        if not self.path.exists():
            return []
        return read_log(self.path, JournalError, "journal", _STARTS)

    def read_header(self) -> Optional[Dict[str, object]]:
        """The ``meta`` of the journal's header line, or ``None``.

        Headers are written before any entry, so only the first line is
        judged: a malformed header — bad JSON, or a header schema version
        this reader does not understand — raises :class:`JournalError`
        like any other corrupt line would on :meth:`load`, and any other
        first line means "no header".  A torn header fragment (a kill
        during the very first header write) is no line at all, so such a
        journal reads as empty and restartable here, on :meth:`load` and
        on :meth:`open` alike.
        """
        lines = self._lines()
        if not lines or not _is_header_line(lines[0][1]):
            return None
        try:
            payload = json.loads(lines[0][1])
        except json.JSONDecodeError as exc:
            raise JournalError(
                f"journal header is not valid JSON: {exc}") from exc
        if payload.get("version") != JOURNAL_VERSION:
            raise JournalError(
                f"journal header has version "
                f"{payload.get('version')!r}; this reader understands "
                f"version {JOURNAL_VERSION}")
        return dict(payload.get("meta") or {})

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
        completed a case).  Blank lines are tolerated; any complete line
        that does not parse raises :class:`JournalError` — a corrupt
        journal must fail loudly, not silently re-execute or skip cases.
        A torn final line (the kill-mid-write artifact, even one that
        lost only its newline) is no entry, so its case simply re-runs.
        """
        return [JournalEntry.from_line(line, lineno=lineno)
                for lineno, line in self._lines()
                if not _is_header_line(line)]

    def latest_by_index(self) -> Dict[int, JournalEntry]:
        """The last entry per case index (re-runs append; last one wins)."""
        latest: Dict[int, JournalEntry] = {}
        for entry in self.load():
            latest[entry.case_index] = entry
        return latest


def load_journal(path: Union[str, Path]) -> List[JournalEntry]:
    """Convenience wrapper: every entry of the journal at ``path``."""
    return RunJournal(path).load()
