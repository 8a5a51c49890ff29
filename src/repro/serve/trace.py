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
import threading
import time
from pathlib import Path
from typing import IO, Dict, Iterator, List, Optional, Union

from ..durable import open_log, read_objects

#: The ``format`` tag every trace line carries.
TRACE_FORMAT = "repro-serve-trace"
#: The trace schema version this module writes.
TRACE_VERSION = 1

#: How every trace line begins (``sort_keys`` puts ``"arrival_s"`` first):
#: a newline-less tail that could begin one is a torn append.
_STARTS = ('{"arrival_s"',)


class TraceError(Exception):
    """Raised on malformed or foreign trace files."""


class WorkloadTrace:
    """Append-only JSONL writer for the request log.

    Thread-safe (the service records from concurrent handler tasks and
    executor threads).  Lines are flushed per append but not fsync'd: a
    ~millisecond sync per request would dominate cached-hit latency, and
    a torn or missing tail only loses observability, never results.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._handle: Optional[IO[str]] = None
        self._seq = 0
        self._opened_at = time.monotonic()

    def open(self) -> "WorkloadTrace":
        """Open the append handle now, cutting a torn tail first so the
        next line does not join it; foreign content raises
        :class:`TraceError`."""
        with self._lock:
            self._log()
        return self

    def _log(self) -> IO[str]:
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open_log(self.path, TraceError, "trace", _STARTS)
        return self._handle

    def record(self, digest: str, kind: str, case: Dict[str, object],
               outcome: str, latency_ms: float,
               arrival_s: Optional[float] = None) -> None:
        """Append one served request to the trace."""
        with self._lock:
            handle = self._log()
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
            handle.write(line + "\n")
            handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "WorkloadTrace":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def load_trace(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Every request line of the trace at ``path``, in append order.

    A torn final line (kill mid-append) is dropped; any other
    unparseable or foreign content raises :class:`TraceError`.
    """
    path = Path(path)
    if not path.exists():
        return []
    requests = read_objects(path, TraceError, "trace", _STARTS)
    for number, payload in enumerate(requests, start=1):
        if payload.get("format") != TRACE_FORMAT:
            raise TraceError(
                f"trace {path} request {number} is not a {TRACE_FORMAT} "
                "record")
        if payload.get("version") != TRACE_VERSION:
            raise TraceError(
                f"trace {path} request {number} has version "
                f"{payload.get('version')!r}; this reader understands "
                f"version {TRACE_VERSION}")
    return requests


def replay_cases(path: Union[str, Path]) -> Iterator[Dict[str, object]]:
    """The case dictionaries of a trace, in arrival order (for replay)."""
    for request in load_trace(path):
        yield dict(request["case"])
