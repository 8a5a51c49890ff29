"""The campaign service: asyncio HTTP front, worker-pool execution back.

``CampaignService`` accepts campaign requests — the same flat case
dictionaries the sweep layer serialises (power/Table-1, coverage, PRR;
see :func:`repro.sweep.runner.case_from_dict`) — over a thin JSON/HTTP
protocol and answers each one through three tiers:

1. **cache hit** — the request's :func:`~repro.sweep.runner
   .fingerprint_digest` addresses a stored record in the
   :class:`~repro.serve.cache.ResultCache`; stream it back without
   touching an engine;
2. **coalesced** — an identical-digest request is already executing;
   await its shared future instead of spawning duplicate work;
3. **miss** — park the request in the dispatch backlog.  While an
   executor thread is idle the dispatcher sends the backlog at once;
   while every thread is busy misses pool until a wave finishes, and
   then every distinct parked scenario executes as **one**
   :class:`~repro.engine.grid.BatchedGridEngine` wave on a pool thread
   (the grid engine stacks same-geometry cases into single kernel
   passes).  The stored entries resolve every waiter.  A new distinct
   miss past :data:`MAX_PENDING_PER_WORKER` per executor thread is
   refused with 429 instead of queueing without limit.

Every request is appended to the replayable JSONL workload trace
(:class:`~repro.serve.trace.WorkloadTrace`) with its outcome and
latency, which is both the service's observability story and the input
format of the trace-driven load benchmark.

The protocol (all bodies JSON):

* ``POST /v1/run`` with ``{"case": {...}}`` →
  ``{"kind": ..., "record": {...}, "served": {"digest", "outcome",
  "latency_ms"}}``; malformed cases get 400, execution failures 500,
  and a distinct miss past the pending bound 429 with ``Retry-After``;
* ``GET /v1/stats`` → request/hit/miss/coalesce/refusal/engine-pass/
  memo-hit counters, the count of distinct misses ``pending`` and of
  memoised requests ``memo_entries``;
* ``GET /healthz`` → ``{"status": "ok"}``.

A malformed request line or ``Content-Length``, a request line or
header past the stream reader's 64 KiB line limit, or a body longer than
:data:`MAX_BODY_BYTES`, gets 400 and ``Connection: close``.

A hit is answered from bytes the service already holds.  The exact bytes
of each valid ``POST /v1/run`` body map, in a bounded LRU, to the request
they validated to (case, fingerprint, digest, kind), so a repeated body
is neither parsed nor validated nor hashed again; a malformed body is
never remembered.  The ``"kind"``/``"record"`` part of each cache
entry's reply is encoded once, for that entry object, and every later
reply of the entry appends only its ``served`` block: a reply is the
same bytes ``json.dumps(payload, sort_keys=True)`` writes.

Everything here is stdlib: ``asyncio`` for the front,
``concurrent.futures.ThreadPoolExecutor`` for the engine work (NumPy
kernels release the GIL, so pool threads genuinely overlap), and a
hand-rolled HTTP/1.1 exchange (keep-alive, Content-Length framing) small
enough to audit.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..sweep.runner import (
    AnyCase,
    SweepError,
    _WorkerState,
    case_fingerprint,
    case_from_dict,
    case_kind,
    fingerprint_digest,
)
from .cache import MEMORY_ENTRIES, ResultCache
from .trace import WorkloadTrace


class ServeError(Exception):
    """Raised on serving-layer failures (protocol, execution, client)."""


_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 429: "Too Many Requests",
            500: "Internal Server Error"}

#: Default TCP port (spells "SRV" on a phone keypad, near enough).
DEFAULT_PORT = 8077
#: Distinct misses, queued or running, allowed per executor thread; a new
#: distinct miss past ``MAX_PENDING_PER_WORKER * workers`` is refused.
MAX_PENDING_PER_WORKER = 32
#: Longest request body read, the stream reader's line limit: a longer
#: ``Content-Length`` is refused before any of the body is read.
MAX_BODY_BYTES = 64 * 1024


def _json(payload: Dict[str, object]) -> bytes:
    """The reply body of ``payload``: JSON with sorted keys."""
    return json.dumps(payload, sort_keys=True).encode("utf-8")


class _Request:
    """A validated campaign request: what a ``POST /v1/run`` body means,
    and what the request memo keeps for the body's exact bytes."""

    __slots__ = ("case", "fingerprint", "digest", "kind")

    def __init__(self, case: AnyCase) -> None:
        self.case = case
        self.fingerprint = case_fingerprint(case)
        self.digest = fingerprint_digest(self.fingerprint)
        self.kind = case_kind(case)


class _Pending:
    """One distinct in-flight scenario and the future its waiters share."""

    __slots__ = ("request", "future")

    def __init__(self, request: _Request, future: asyncio.Future) -> None:
        self.request = request
        self.future = future


class CampaignService:
    """Long-running campaign server: cache, coalesce, execute, trace.

    Misses batch naturally: while fewer than ``workers`` waves are in
    flight the dispatcher sends the backlog as soon as it wakes, and
    while every thread is busy misses pool until a finishing wave wakes
    it to send them all as one wave.  ``workers`` bounds the executor
    pool (default: ``min(4, cpu)``); each wave runs under the most
    recently used idle :class:`~repro.sweep.runner._WorkerState`, so
    compiled traces and facades stay warm across waves.
    """

    def __init__(self, cache_dir: Union[str, Path],
                 trace_path: Optional[Union[str, Path]] = None,
                 workers: Optional[int] = None,
                 cache_max_entries: Optional[int] = None,
                 cache_max_bytes: Optional[int] = None) -> None:
        self.cache = ResultCache(cache_dir,
                                 max_entries=cache_max_entries,
                                 max_bytes=cache_max_bytes)
        self.trace = WorkloadTrace(trace_path) \
            if trace_path is not None else None
        self.workers = workers if workers is not None \
            else min(4, os.cpu_count() or 1)
        self.stats: Dict[str, int] = {
            "requests": 0, "hits": 0, "misses": 0, "coalesced": 0,
            "refused": 0, "errors": 0, "engine_passes": 0,
            "executed_cases": 0, "memo_hits": 0,
        }
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._waves: set = set()
        self._connections: set = set()
        self._pending: Dict[str, _Pending] = {}
        self._backlog: List[_Pending] = []
        self._wake: Optional[asyncio.Event] = None
        self._started_at = time.monotonic()
        # Idle worker states, the most recently used last.  A wave takes
        # the warmest one whichever pool thread runs it, so the engine
        # caches (compiled traces, facades) survive across waves and
        # threads, and at most ``workers`` states exist.
        self._idle_states: List[_WorkerState] = []
        # Exact bytes of a valid /v1/run body -> the request it validated
        # to, and digest -> (cache entry, the encoded head of its reply),
        # each least recently used first and at most MEMORY_ENTRIES long.
        # A reply head is reused only for the very entry object it
        # encodes: an entry re-read or re-stored is a new object, and an
        # evicted one is never returned by the cache again.
        self._requests: "OrderedDict[bytes, _Request]" = OrderedDict()
        self._replies: "OrderedDict[str, Tuple[Dict[str, object], bytes]]" \
            = OrderedDict()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1",
                    port: int = DEFAULT_PORT) -> "CampaignService":
        """Bind and start serving.  ``port=0`` picks a free port (read it
        back from :attr:`port`)."""
        if self._server is not None:
            raise ServeError("service already started")
        if self.trace is not None:
            self.trace.open()  # an unusable trace fails before serving
        self._wake = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve")
        self._dispatcher = asyncio.ensure_future(self._dispatch_loop())
        self._server = await asyncio.start_server(self._accept, host, port)
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        self._started_at = time.monotonic()
        return self

    async def stop(self) -> None:
        """Stop accepting, answer every pooled and running miss, close
        every connection, release the pool."""
        server, self._server = self._server, None
        if server is not None:
            # Stop accepting, and let each socket accepted so far attach as
            # a connection, before the listener closes: asyncio's Server
            # refuses to attach one once it is closed, and that socket would
            # never be closed.  (A proactor loop has no readers to remove.)
            loop = asyncio.get_running_loop()
            with suppress(NotImplementedError):
                for sock in server.sockets:
                    loop.remove_reader(sock.fileno())
            await asyncio.sleep(0)
            server.close()
        # The dispatcher still runs, and a finishing wave wakes it to send
        # what is pooled, so this drains the backlog as well as the waves.
        while self._pending or self._waves:
            await asyncio.wait(
                [pending.future for pending in self._pending.values()]
                + list(self._waves))
        # Idle keep-alive connections would otherwise pin their handler
        # tasks, and from Python 3.12 on ``wait_closed`` waits for every
        # connection to close.
        for connection in list(self._connections):
            connection.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        if server is not None:
            await server.wait_closed()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self.trace is not None:
            self.trace.close()

    # ------------------------------------------------------------------
    # HTTP front
    # ------------------------------------------------------------------
    def _accept(self, reader: asyncio.StreamReader,
                writer: asyncio.StreamWriter) -> None:
        """Take hold of a connection as it is made (the stream protocol
        calls this from ``connection_made``): :meth:`stop` cancels its
        handler task, and the transport is closed when that task ends,
        even one cancelled before its first step."""
        task = asyncio.ensure_future(self._handle_connection(reader, writer))
        self._connections.add(task)

        def finished(_: asyncio.Future) -> None:
            self._connections.discard(task)
            writer.close()

        task.add_done_callback(finished)

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request_line, headers = await self._read_head(reader)
                except ValueError:  # a line past the reader's 64 KiB limit
                    await self._respond(
                        writer, 400,
                        _json({"error": "request line or header too long"}),
                        keep_alive=False)
                    await self._linger(reader, writer)
                    break
                if not request_line:
                    break
                try:
                    method, target, _version = \
                        request_line.decode("latin-1").split()
                except ValueError:
                    await self._respond(
                        writer, 400,
                        _json({"error": "malformed request line"}),
                        keep_alive=False)
                    break
                length_field = headers.get("content-length", "0") or "0"
                if not length_field.isdecimal():  # digits only, as HTTP says
                    await self._respond(
                        writer, 400,
                        _json({"error": "malformed Content-Length"}),
                        keep_alive=False)
                    break
                length = int(length_field)
                if length > MAX_BODY_BYTES:
                    await self._respond(writer, 400, _json({
                        "error": f"request body of {length} bytes is past "
                                 f"the {MAX_BODY_BYTES}-byte limit"}),
                        keep_alive=False)
                    await self._linger(reader, writer)
                    break
                body = await reader.readexactly(length) if length else b""
                status, data = await self._route(method, target, body)
                keep_alive = headers.get("connection", "").lower() != "close"
                await self._respond(writer, status, data,
                                    keep_alive=keep_alive)
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # client went away; nothing to answer
        except asyncio.CancelledError:
            pass  # service stopping: drop the idle connection quietly
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    @staticmethod
    async def _read_head(reader: asyncio.StreamReader
                         ) -> Tuple[bytes, Dict[str, str]]:
        """The request line (``b""`` at end of stream) and the headers of
        the next request; ``ValueError`` when a line overruns the
        reader's limit."""
        request_line = await reader.readline()
        headers: Dict[str, str] = {}
        if request_line:
            while (line := await reader.readline()) \
                    not in (b"\r\n", b"\n", b""):
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
        return request_line, headers

    @staticmethod
    async def _linger(reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        """Half-close, then discard what the client still sends until it
        closes too (at most a second): closing on unread bytes would reset
        the connection and could destroy the reply before it is read."""
        async def discard() -> None:
            while await reader.read(65536):
                pass

        writer.write_eof()
        try:
            await asyncio.wait_for(discard(), timeout=1.0)
        except asyncio.TimeoutError:
            pass

    @staticmethod
    async def _respond(writer: asyncio.StreamWriter, status: int,
                       data: bytes, keep_alive: bool) -> None:
        head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(data)}\r\n"
                f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
                + ("Retry-After: 1\r\n" if status == 429 else "")
                + "\r\n")
        writer.write(head.encode("latin-1") + data)
        await writer.drain()

    async def _route(self, method: str, target: str, body: bytes
                     ) -> Tuple[int, bytes]:
        target = target.split("?", 1)[0]
        if target == "/v1/run":
            if method != "POST":
                return 405, _json({"error": "POST only"})
            return await self._run(body)
        if target == "/v1/stats":
            if method != "GET":
                return 405, _json({"error": "GET only"})
            return 200, _json(self.stats_snapshot())
        if target == "/healthz":
            if method != "GET":
                return 405, _json({"error": "GET only"})
            return 200, _json({"status": "ok"})
        return 404, _json({"error": f"unknown path {target!r}"})

    def stats_snapshot(self) -> Dict[str, object]:
        """The service counters plus derived identity/uptime fields."""
        snapshot: Dict[str, object] = dict(self.stats)
        snapshot["pending"] = len(self._pending)
        snapshot["memo_entries"] = len(self._requests)
        snapshot["workers"] = self.workers
        snapshot["uptime_s"] = round(time.monotonic() - self._started_at, 3)
        snapshot["cache"] = self.cache.stats()
        return snapshot

    # ------------------------------------------------------------------
    # Request flow: memo, then hit / coalesced / miss
    # ------------------------------------------------------------------
    async def _run(self, body: bytes) -> Tuple[int, bytes]:
        """Answer one ``POST /v1/run`` body: from the request memo when
        these exact bytes validated before, else parse and validate it,
        remembering it only once its case is built."""
        arrived = time.monotonic()
        request = self._requests.get(body)
        if request is not None:
            self._requests.move_to_end(body)
            self.stats["memo_hits"] += 1
            return await self._submit(request, arrived)
        try:
            data = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return 400, _json({"error": f"request body is not JSON: {exc}"})
        if not isinstance(data, dict) or \
                not isinstance(data.get("case"), dict):
            return 400, _json(
                {"error": 'expected a JSON object {"case": {...}}'})
        try:
            case = case_from_dict(data["case"])
        except (SweepError, ValueError, TypeError) as exc:
            self.stats["requests"] += 1
            self.stats["errors"] += 1
            return 400, _json({"error": str(exc)})
        request = _Request(case)
        self._requests[body] = request
        if len(self._requests) > MEMORY_ENTRIES:
            self._requests.popitem(last=False)
        return await self._submit(request, arrived)

    async def _submit(self, request: _Request, arrived: float
                      ) -> Tuple[int, bytes]:
        arrival_s = arrived - self._started_at
        digest = request.digest
        self.stats["requests"] += 1

        def answer(entry: Dict[str, object], outcome: str
                   ) -> Tuple[int, bytes]:
            latency_ms = (time.monotonic() - arrived) * 1e3
            self._trace_request(request, outcome, latency_ms, arrival_s)
            served = _json({"digest": digest, "outcome": outcome,
                            "latency_ms": round(latency_ms, 3)})
            return 200, self._reply_head(request, entry) + served + b"}"

        def fail(status: int, outcome: str, error: str
                 ) -> Tuple[int, bytes]:
            latency_ms = (time.monotonic() - arrived) * 1e3
            self._trace_request(request, outcome, latency_ms, arrival_s)
            return status, _json({"error": error,
                                  "served": {"digest": digest,
                                             "outcome": outcome}})

        entry = self.cache.get(digest)
        if entry is not None:
            self.stats["hits"] += 1
            return answer(entry, "hit")

        pending = self._pending.get(digest)
        if pending is not None:
            self.stats["coalesced"] += 1
            outcome = "coalesced"
        elif len(self._pending) >= MAX_PENDING_PER_WORKER * self.workers:
            self.stats["refused"] += 1
            return fail(429, "refused", f"{len(self._pending)} distinct "
                        "misses are queued or running; retry later")
        else:
            loop = asyncio.get_running_loop()
            pending = _Pending(request, loop.create_future())
            self._pending[digest] = pending
            self._backlog.append(pending)
            self._wake.set()
            self.stats["misses"] += 1
            outcome = "miss"
        try:
            # shield: a disconnected client must not cancel the shared
            # future other waiters (and the cache store) depend on.
            entry = await asyncio.shield(pending.future)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self.stats["errors"] += 1
            return fail(500, "error", str(exc))
        return answer(entry, outcome)

    def _reply_head(self, request: _Request, entry: Dict[str, object]
                    ) -> bytes:
        """The reply to ``entry`` up to its ``served`` value:
        ``{"kind": ..., "record": {...}, "served": `` — encoded once per
        entry object, so only a new object (a re-read or re-store) is
        encoded again."""
        held = self._replies.get(request.digest)
        if held is not None and held[0] is entry:
            self._replies.move_to_end(request.digest)
            return held[1]
        text = json.dumps({"kind": entry.get("kind", request.kind),
                           "record": entry["record"]}, sort_keys=True)
        head = text[:-1].encode("utf-8") + b', "served": '
        self._replies[request.digest] = (entry, head)
        self._replies.move_to_end(request.digest)
        if len(self._replies) > MEMORY_ENTRIES:
            self._replies.popitem(last=False)
        return head

    def _trace_request(self, request: _Request, outcome: str,
                       latency_ms: float, arrival_s: float) -> None:
        if self.trace is not None:
            self.trace.record(request.digest, request.kind,
                              request.fingerprint, outcome, latency_ms,
                              arrival_s=arrival_s)

    # ------------------------------------------------------------------
    # Dispatch: backlog -> coalesced engine waves
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            # Natural batching: while every thread is busy the backlog
            # pools, and the next finishing wave wakes this loop again.
            if not self._backlog or len(self._waves) >= self.workers:
                continue
            batch, self._backlog = self._backlog, []
            wave = asyncio.ensure_future(self._execute_wave(batch))
            self._waves.add(wave)
            wave.add_done_callback(self._wave_done)

    def _wave_done(self, wave: asyncio.Future) -> None:
        self._waves.discard(wave)
        if self._backlog:
            self._wake.set()

    async def _execute_wave(self, batch: List[_Pending]) -> None:
        loop = asyncio.get_running_loop()
        self.stats["engine_passes"] += 1
        self.stats["executed_cases"] += len(batch)
        try:
            outcomes = await loop.run_in_executor(
                self._executor, self._run_batch, batch)
        except Exception as exc:  # the batch runner itself failed
            outcomes = [exc] * len(batch)
        for pending, outcome in zip(batch, outcomes):
            self._pending.pop(pending.request.digest, None)
            if isinstance(outcome, Exception):
                pending.future.set_exception(
                    ServeError(f"case execution failed: {outcome}"))
            else:
                pending.future.set_result(outcome)

    def _run_batch(self, batch: List[_Pending]) -> List[object]:
        """Execute one wave on a pool thread: stacked first, per-case rescue.

        Returns, per pending, either the stored cache entry dictionary or
        the exception that case raised.  Runs under the most recently used
        idle worker state, so compiled traces survive across waves.
        """
        try:
            state = self._idle_states.pop()
        except IndexError:  # every state is lent to a running wave
            state = _WorkerState()
        cases = [pending.request.case for pending in batch]
        records: List[object] = [None] * len(batch)
        try:
            from ..engine.grid import BatchedGridEngine

            engine = BatchedGridEngine(cases, worker_state=state)
            for position, record in engine.completions():
                records[position] = record
        except Exception:
            # The stacked pass died mid-wave (one poisoned case must not
            # starve its neighbours): rescue the unanswered cases one at
            # a time on the wave's state, capturing failures per case.
            for index, case in enumerate(cases):
                if records[index] is not None:
                    continue
                try:
                    records[index] = case.execute(state)
                except Exception as exc:  # noqa: BLE001 - per-case verdict
                    records[index] = exc
        finally:
            self._idle_states.append(state)
        outcomes: List[object] = []
        for pending, record in zip(batch, records):
            if isinstance(record, Exception) or record is None:
                outcomes.append(record if isinstance(record, Exception)
                                else ServeError("case produced no record"))
                continue
            request = pending.request
            entry = self.cache.store(request.digest, request.fingerprint,
                                     request.kind, record.as_dict())
            outcomes.append(entry)
        return outcomes


# ----------------------------------------------------------------------
# Synchronous harness (tests, benchmarks, CLI embedding)
# ----------------------------------------------------------------------
class ServiceThread:
    """Run a :class:`CampaignService` on a background event-loop thread.

    The synchronous seam tests and benchmarks drive: ``start()`` blocks
    until the socket is bound and returns ``(host, port)``; ``stop()``
    shuts the service down and joins the thread.
    """

    def __init__(self, service: CampaignService,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service
        self._host = host
        self._port = port
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._startup_error: Optional[BaseException] = None

    def start(self) -> Tuple[str, int]:
        self._thread = threading.Thread(target=self._run,
                                        name="repro-serve-loop", daemon=True)
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            self._thread.join()  # its loop is closing: nothing to stop
            self._thread = None
            raise self._startup_error
        return self.service.host, self.service.port

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            await self.service.start(self._host, self._port)
        except BaseException as exc:  # surface bind failures to start()
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        await self._stop.wait()
        await self.service.stop()

    def stop(self) -> None:
        if self._thread is None:
            return
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=60)
        self._thread = None


@contextmanager
def running_service(cache_dir: Union[str, Path],
                    trace_path: Optional[Union[str, Path]] = None,
                    host: str = "127.0.0.1", port: int = 0,
                    **service_kwargs):
    """Context manager: a live service on a free port.

    Yields ``(service, host, port)``; the service is stopped (waves
    drained, trace closed) on exit.
    """
    service = CampaignService(cache_dir, trace_path=trace_path,
                              **service_kwargs)
    thread = ServiceThread(service, host=host, port=port)
    bound_host, bound_port = thread.start()
    try:
        yield service, bound_host, bound_port
    finally:
        thread.stop()
