"""Replayable JSONL workload trace of every served campaign request.

The serving layer appends one line per request — arrival time, content
digest, case kind, the full case fingerprint, how the request was served
(``hit`` / ``miss`` / ``coalesced`` / ``refused`` / ``error``) and its
latency — so a production workload can be studied offline and
*replayed*: the committed synthetic trace under ``benchmarks/data/``
drives the load benchmark, and a recorded trace from a real deployment
drops into the same tooling.

Format: every line is an independent JSON object ::

    {"format": "repro-serve-trace", "version": 1, "seq": 12,
     "arrival_s": 0.0314, "digest": "ab12...", "kind": "power",
     "case": {...}, "outcome": "hit", "latency_ms": 0.21}

``arrival_s`` is seconds since the trace opened (replay-friendly:
relative, monotonic).  A torn final line — the serving process killed
mid-append — is dropped on load, mirroring the run journal's torn-tail
tolerance.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

#: The ``format`` tag every trace line carries.
TRACE_FORMAT = "repro-serve-trace"
#: The trace schema version this module writes.
TRACE_VERSION = 1

#: How every trace line begins (``sort_keys`` puts ``"arrival_s"`` first),
#: used to tell a torn tail from foreign content on load.
_LINE_PREFIX = '{"arrival_s"'


class WorkloadTrace:
    """Append-only JSONL writer for the request log.

    Thread-safe (the service records from concurrent handler tasks and
    executor threads).  Lines are flushed per append; ``fsync=True``
    additionally syncs each line to disk — durable, but the extra
    ~millisecond per request would dominate cached-hit latency, so the
    default trades the tail of the log for speed (a torn or missing tail
    only loses observability, never results).
    """

    def __init__(self, path: Union[str, Path], fsync: bool = False) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self._lock = threading.Lock()
        self._handle = None
        self._seq = 0
        self._opened_at = time.monotonic()

    def record(self, digest: str, kind: str, case: Dict[str, object],
               outcome: str, latency_ms: float,
               arrival_s: Optional[float] = None) -> None:
        """Append one served request to the trace."""
        with self._lock:
            if self._handle is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = self.path.open("a", encoding="utf-8")
            line = json.dumps({
                "format": TRACE_FORMAT,
                "version": TRACE_VERSION,
                "seq": self._seq,
                "arrival_s": round(
                    arrival_s if arrival_s is not None
                    else time.monotonic() - self._opened_at, 6),
                "digest": digest,
                "kind": kind,
                "case": case,
                "outcome": outcome,
                "latency_ms": round(latency_ms, 3),
            }, sort_keys=True)
            self._seq += 1
            self._handle.write(line + "\n")
            self._handle.flush()
            if self.fsync:
                os.fsync(self._handle.fileno())

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "WorkloadTrace":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class TraceError(Exception):
    """Raised on malformed or foreign trace files."""


def load_trace(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Every request line of the trace at ``path``, in append order.

    A torn final line (kill mid-append) is dropped; any other
    unparseable or foreign content raises :class:`TraceError`.
    """
    path = Path(path)
    if not path.exists():
        return []
    text = path.read_text(encoding="utf-8")
    lines = text.split("\n")
    complete, torn_tail = lines[:-1], lines[-1]
    requests: List[Dict[str, object]] = []
    for lineno, line in enumerate(complete, start=1):
        if not line.strip():
            continue
        requests.append(_parse_line(line, lineno))
    if torn_tail.strip():
        head = torn_tail[:len(_LINE_PREFIX)]
        if not (head == _LINE_PREFIX or _LINE_PREFIX.startswith(head)):
            raise TraceError(
                f"trace {path} ends in unrecognised content; "
                f"is it a {TRACE_FORMAT} file?")
        # else: torn final append — the request it described was already
        # answered; only the log line is lost.
    return requests


def _parse_line(line: str, lineno: int) -> Dict[str, object]:
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceError(
            f"trace line {lineno} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != TRACE_FORMAT:
        raise TraceError(f"trace line {lineno} is not a {TRACE_FORMAT} record")
    if payload.get("version") != TRACE_VERSION:
        raise TraceError(
            f"trace line {lineno} has version {payload.get('version')!r}; "
            f"this reader understands version {TRACE_VERSION}")
    return payload


def replay_cases(path: Union[str, Path]) -> Iterator[Dict[str, object]]:
    """The case dictionaries of a trace, in arrival order (for replay)."""
    for request in load_trace(path):
        yield dict(request["case"])
