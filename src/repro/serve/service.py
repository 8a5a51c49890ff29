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
3. **miss** — park the request in the dispatch backlog; after a short
   coalescing window every distinct parked scenario executes as **one**
   :class:`~repro.engine.grid.BatchedGridEngine` wave on a pool thread
   (the grid engine stacks same-geometry cases into single kernel
   passes), and the stored entries resolve every waiter.

Every request is appended to the replayable JSONL workload trace
(:class:`~repro.serve.trace.WorkloadTrace`) with its outcome and
latency, which is both the service's observability story and the input
format of the trace-driven load benchmark.

The protocol (all bodies JSON):

* ``POST /v1/run`` with ``{"case": {...}}`` →
  ``{"kind": ..., "record": {...}, "served": {"digest", "outcome",
  "latency_ms"}}``; malformed cases get 400, execution failures 500;
* ``GET /v1/stats`` → request/hit/miss/coalesce/engine-pass counters;
* ``GET /healthz`` → ``{"status": "ok"}``.

A malformed request line or ``Content-Length``, or a request line or
header past the stream reader's 64 KiB line limit, gets 400 and
``Connection: close``.

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
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..sweep.runner import (
    SweepError,
    _WorkerState,
    case_fingerprint,
    case_from_dict,
    case_kind,
    fingerprint_digest,
)
from .cache import ResultCache
from .trace import WorkloadTrace


class ServeError(Exception):
    """Raised on serving-layer failures (protocol, execution, client)."""


_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 500: "Internal Server Error"}

#: Default TCP port (spells "SRV" on a phone keypad, near enough).
DEFAULT_PORT = 8077


class _Pending:
    """One distinct in-flight scenario and the future its waiters share."""

    __slots__ = ("digest", "kind", "fingerprint", "case", "future")

    def __init__(self, digest: str, kind: str,
                 fingerprint: Dict[str, object], case: object,
                 future: asyncio.Future) -> None:
        self.digest = digest
        self.kind = kind
        self.fingerprint = fingerprint
        self.case = case
        self.future = future


class CampaignService:
    """Long-running campaign server: cache, coalesce, execute, trace.

    ``coalesce_window`` is how long (seconds) the dispatcher lets
    cache-miss requests pool before launching an engine wave: long
    enough for a client burst to land in one stacked pass, short enough
    to be invisible next to engine work.  ``workers`` bounds the
    executor pool (default: ``min(4, cpu)``); each pool thread keeps a
    persistent :class:`~repro.sweep.runner._WorkerState`, so compiled
    traces and facades stay warm across waves.
    """

    def __init__(self, cache_dir: Union[str, Path],
                 trace_path: Optional[Union[str, Path]] = None,
                 trace_fsync: bool = False,
                 workers: Optional[int] = None,
                 coalesce_window: float = 0.005,
                 cache_max_entries: Optional[int] = None,
                 cache_max_bytes: Optional[int] = None) -> None:
        self.cache = ResultCache(cache_dir,
                                 max_entries=cache_max_entries,
                                 max_bytes=cache_max_bytes)
        self.trace = WorkloadTrace(trace_path, fsync=trace_fsync) \
            if trace_path is not None else None
        self.workers = workers if workers is not None \
            else min(4, os.cpu_count() or 1)
        self.coalesce_window = coalesce_window
        self.stats: Dict[str, int] = {
            "requests": 0, "hits": 0, "misses": 0, "coalesced": 0,
            "errors": 0, "engine_passes": 0, "executed_cases": 0,
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
        # One persistent worker state per executor thread: the engine
        # caches (compiled traces, facades) survive across waves.
        self._thread_state = threading.local()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1",
                    port: int = DEFAULT_PORT) -> "CampaignService":
        """Bind and start serving.  ``port=0`` picks a free port (read it
        back from :attr:`port`)."""
        if self._server is not None:
            raise ServeError("service already started")
        self._wake = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve")
        self._dispatcher = asyncio.ensure_future(self._dispatch_loop())
        self._server = await asyncio.start_server(
            self._handle_connection, host, port)
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        self._started_at = time.monotonic()
        return self

    async def stop(self) -> None:
        """Stop accepting, finish in-flight waves, release the pool."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._waves:
            await asyncio.gather(*self._waves, return_exceptions=True)
        # Idle keep-alive connections would otherwise pin their handler
        # tasks (and log cancellation noise at loop teardown).
        for connection in list(self._connections):
            connection.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
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
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    request_line, headers = await self._read_head(reader)
                except ValueError:  # a line past the reader's 64 KiB limit
                    await self._respond(
                        writer, 400,
                        {"error": "request line or header too long"},
                        keep_alive=False)
                    await self._linger(reader, writer)
                    break
                if not request_line:
                    break
                try:
                    method, target, _version = \
                        request_line.decode("latin-1").split()
                except ValueError:
                    await self._respond(writer, 400,
                                        {"error": "malformed request line"},
                                        keep_alive=False)
                    break
                length_field = headers.get("content-length", "0") or "0"
                if not length_field.isdecimal():  # digits only, as HTTP says
                    await self._respond(writer, 400,
                                        {"error": "malformed Content-Length"},
                                        keep_alive=False)
                    break
                length = int(length_field)
                body = await reader.readexactly(length) if length else b""
                status, payload = await self._route(method, target, body)
                keep_alive = headers.get("connection", "").lower() != "close"
                await self._respond(writer, status, payload,
                                    keep_alive=keep_alive)
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # client went away; nothing to answer
        except asyncio.CancelledError:
            pass  # service stopping: drop the idle connection quietly
        finally:
            if task is not None:
                self._connections.discard(task)
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
                       payload: Dict[str, object], keep_alive: bool) -> None:
        data = json.dumps(payload, sort_keys=True).encode("utf-8")
        head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(data)}\r\n"
                f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
                "\r\n")
        writer.write(head.encode("latin-1") + data)
        await writer.drain()

    async def _route(self, method: str, target: str, body: bytes
                     ) -> Tuple[int, Dict[str, object]]:
        target = target.split("?", 1)[0]
        if target == "/v1/run":
            if method != "POST":
                return 405, {"error": "POST only"}
            try:
                request = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                return 400, {"error": f"request body is not JSON: {exc}"}
            if not isinstance(request, dict) or \
                    not isinstance(request.get("case"), dict):
                return 400, {"error": 'expected a JSON object {"case": {...}}'}
            return await self._submit(request["case"])
        if target == "/v1/stats":
            if method != "GET":
                return 405, {"error": "GET only"}
            return 200, self.stats_snapshot()
        if target == "/healthz":
            if method != "GET":
                return 405, {"error": "GET only"}
            return 200, {"status": "ok"}
        return 404, {"error": f"unknown path {target!r}"}

    def stats_snapshot(self) -> Dict[str, object]:
        """The service counters plus derived identity/uptime fields."""
        snapshot: Dict[str, object] = dict(self.stats)
        snapshot["pending"] = len(self._pending)
        snapshot["workers"] = self.workers
        snapshot["uptime_s"] = round(time.monotonic() - self._started_at, 3)
        snapshot["cache"] = self.cache.stats()
        return snapshot

    # ------------------------------------------------------------------
    # Request flow: hit / coalesced / miss
    # ------------------------------------------------------------------
    async def _submit(self, case_data: Dict[str, object]
                      ) -> Tuple[int, Dict[str, object]]:
        arrived = time.monotonic()
        arrival_s = arrived - self._started_at
        try:
            case = case_from_dict(case_data)
        except (SweepError, ValueError, TypeError) as exc:
            self.stats["requests"] += 1
            self.stats["errors"] += 1
            return 400, {"error": str(exc)}
        fingerprint = case_fingerprint(case)
        digest = fingerprint_digest(fingerprint)
        kind = case_kind(case)
        self.stats["requests"] += 1

        def answer(entry: Dict[str, object], outcome: str
                   ) -> Tuple[int, Dict[str, object]]:
            latency_ms = (time.monotonic() - arrived) * 1e3
            self._trace_request(digest, kind, fingerprint, outcome,
                                latency_ms, arrival_s)
            return 200, {
                "kind": entry.get("kind", kind),
                "record": entry["record"],
                "served": {"digest": digest, "outcome": outcome,
                           "latency_ms": round(latency_ms, 3)},
            }

        entry = self.cache.get(digest)
        if entry is not None:
            self.stats["hits"] += 1
            return answer(entry, "hit")

        pending = self._pending.get(digest)
        if pending is not None:
            self.stats["coalesced"] += 1
            outcome = "coalesced"
        else:
            loop = asyncio.get_running_loop()
            pending = _Pending(digest, kind, fingerprint, case,
                               loop.create_future())
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
            latency_ms = (time.monotonic() - arrived) * 1e3
            self._trace_request(digest, kind, fingerprint, "error",
                                latency_ms, arrival_s)
            return 500, {"error": str(exc),
                         "served": {"digest": digest, "outcome": "error"}}
        return answer(entry, outcome)

    def _trace_request(self, digest: str, kind: str,
                       fingerprint: Dict[str, object],
                       outcome: str, latency_ms: float,
                       arrival_s: float) -> None:
        if self.trace is not None:
            self.trace.record(digest, kind, fingerprint, outcome,
                              latency_ms, arrival_s=arrival_s)

    # ------------------------------------------------------------------
    # Dispatch: backlog -> coalesced engine waves
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            if self.coalesce_window > 0:
                # Let a request burst pool up so one wave stacks it all.
                await asyncio.sleep(self.coalesce_window)
            batch, self._backlog = self._backlog, []
            if not batch:
                continue
            wave = asyncio.ensure_future(self._execute_wave(batch))
            self._waves.add(wave)
            wave.add_done_callback(self._waves.discard)

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
            self._pending.pop(pending.digest, None)
            if pending.future.done():  # stop() raced us; nothing to do
                continue
            if isinstance(outcome, Exception):
                pending.future.set_exception(
                    ServeError(f"case execution failed: {outcome}"))
            else:
                pending.future.set_result(outcome)

    def _thread_worker_state(self) -> _WorkerState:
        state = getattr(self._thread_state, "state", None)
        if state is None:
            state = _WorkerState()
            self._thread_state.state = state
        return state

    def _run_batch(self, batch: List[_Pending]) -> List[object]:
        """Execute one wave on a pool thread: stacked first, per-case rescue.

        Returns, per pending, either the stored cache entry dictionary or
        the exception that case raised.  Runs under the thread's
        persistent worker state so compiled traces survive across waves.
        """
        state = self._thread_worker_state()
        cases = [pending.case for pending in batch]
        records: List[object] = [None] * len(batch)
        try:
            from ..engine.grid import BatchedGridEngine

            engine = BatchedGridEngine(cases, worker_state=state)
            for position, record in engine.completions():
                records[position] = record
        except Exception:
            # The stacked pass died mid-wave (one poisoned case must not
            # starve its neighbours): rescue the unanswered cases one at
            # a time on the thread's state, capturing failures per case.
            for index, case in enumerate(cases):
                if records[index] is not None:
                    continue
                try:
                    records[index] = case.execute(state)
                except Exception as exc:  # noqa: BLE001 - per-case verdict
                    records[index] = exc
        outcomes: List[object] = []
        for pending, record in zip(batch, records):
            if isinstance(record, Exception) or record is None:
                outcomes.append(record if isinstance(record, Exception)
                                else ServeError("case produced no record"))
                continue
            entry = self.cache.store(pending.digest, pending.fingerprint,
                                     pending.kind, record.as_dict())
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
