"""Blocking JSON/HTTP client for the campaign service.

:class:`ServeClient` wraps one keep-alive connection; :func:`replay`
drives a whole case list (for example the cases of a recorded workload
trace, see :func:`repro.serve.trace.replay_cases`) through a thread pool
of clients, preserving input order in the returned responses — the
primitive both the load benchmark and the CI smoke burst are built on.

Usage::

    from repro.serve.client import ServeClient

    with ServeClient("127.0.0.1", 8077) as client:
        response = client.submit({"kind": "prr", "rows": 16, "columns": 64,
                                  "algorithm": "MATS+"})
        print(response["record"]["measured_prr"],
              response["served"]["outcome"])
"""

from __future__ import annotations

import json
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import BinaryIO, Dict, List, Optional, Sequence, Tuple

from .service import ServeError

#: Longest status or header line a reply may carry, as in ``http.client``.
_MAX_LINE = 65536


class ServeClient:
    """One keep-alive connection to a campaign service.

    The client speaks the service's own subset of HTTP/1.1 and nothing
    more: each request goes out in one ``sendall`` (head plus JSON body),
    and each reply is read as a status line, headers and exactly
    ``Content-Length`` bytes of body.  After a ``Connection: close``
    reply or any failure the socket is closed, and the next call opens a
    fresh one.
    """

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self.host = host
        self.port = port
        self._timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._reader: Optional[BinaryIO] = None

    # ------------------------------------------------------------------
    def _connect(self) -> Tuple[socket.socket, BinaryIO]:
        if self._sock is None or self._reader is None:
            sock = socket.create_connection((self.host, self.port),
                                            timeout=self._timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock, self._reader = sock, sock.makefile("rb")
        return self._sock, self._reader

    def _exchange(self, method: str, path: str,
                  payload: Optional[Dict[str, object]] = None
                  ) -> Dict[str, object]:
        body = json.dumps(payload).encode("utf-8") \
            if payload is not None else b""
        head = (f"{method} {path} HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n")
        try:
            sock, reader = self._connect()
            sock.sendall(head.encode("latin-1") + body)
            status, keep_alive, data = _read_reply(reader)
        except OSError as exc:
            self.close()  # reconnect lazily on the next exchange
            raise ServeError(
                f"request to {self.host}:{self.port} failed: {exc}") from exc
        if not keep_alive:
            self.close()
        try:
            decoded = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServeError(
                f"service returned a non-JSON body (status "
                f"{status}): {exc}") from exc
        if status != 200:
            raise ServeError(
                f"service returned {status}: "
                f"{decoded.get('error', decoded)}")
        return decoded

    # ------------------------------------------------------------------
    def submit(self, case: Dict[str, object]) -> Dict[str, object]:
        """Run (or fetch) one campaign case; returns the ``/v1/run`` payload.

        ``case`` is the flat kind-tagged dictionary form
        (:func:`repro.sweep.runner.case_fingerprint` shape); the response
        carries ``kind``, the flat ``record``, and a ``served`` block
        naming the digest, outcome (``hit``/``miss``/``coalesced``) and
        server-side latency.
        """
        return self._exchange("POST", "/v1/run", {"case": case})

    def stats(self) -> Dict[str, object]:
        """The service's live counters (``GET /v1/stats``)."""
        return self._exchange("GET", "/v1/stats")

    def health(self) -> Dict[str, object]:
        """Liveness probe (``GET /healthz``)."""
        return self._exchange("GET", "/healthz")

    def close(self) -> None:
        """Close the connection; the next call opens a new one."""
        reader, sock = self._reader, self._sock
        self._reader = self._sock = None
        if reader is not None:
            reader.close()
        if sock is not None:
            sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _read_line(reader: BinaryIO) -> bytes:
    line = reader.readline(_MAX_LINE + 1)
    if not line:
        raise ConnectionError("the service closed the connection")
    if len(line) > _MAX_LINE:
        raise ConnectionError(f"reply line longer than {_MAX_LINE} bytes")
    return line


def _read_reply(reader: BinaryIO) -> Tuple[int, bool, bytes]:
    """Status, keep-alive and body of one reply, framed as the service
    writes it; a closed, truncated or malformed reply raises
    :class:`ConnectionError`."""
    status_line = _read_line(reader)
    parts = status_line.split(None, 2)
    if len(parts) < 2 or not parts[0].startswith(b"HTTP/") \
            or not parts[1].isdigit():
        raise ConnectionError(f"malformed status line {status_line!r}")
    length: Optional[int] = None
    keep_alive = True
    while True:
        line = _read_line(reader)
        if line in (b"\r\n", b"\n"):
            break
        name, _, value = line.partition(b":")
        name, value = name.strip().lower(), value.strip()
        if name == b"content-length":
            if not value.isdigit():
                raise ConnectionError(f"malformed Content-Length {value!r}")
            length = int(value)
        elif name == b"connection":
            keep_alive = value.lower() != b"close"
    if length is None:
        raise ConnectionError("reply without a Content-Length")
    data = reader.read(length)
    if len(data) < length:
        raise ConnectionError(f"reply body truncated: {len(data)} of "
                              f"{length} bytes")
    return int(parts[1]), keep_alive, data


def replay(host: str, port: int, cases: Sequence[Dict[str, object]],
           concurrency: int = 8, timeout: float = 60.0
           ) -> List[Dict[str, object]]:
    """Submit ``cases`` through a pool of clients; responses in input order.

    Each pool thread keeps its own keep-alive connection, so a
    1000-request replay opens ``concurrency`` sockets, not 1000.  An
    individual request failure surfaces as the :class:`ServeError` it
    raised (re-raised when the result list is assembled).
    """
    local = threading.local()

    def client() -> ServeClient:
        if getattr(local, "client", None) is None:
            local.client = ServeClient(host, port, timeout=timeout)
        return local.client

    clients: List[ServeClient] = []
    lock = threading.Lock()

    def submit_one(case: Dict[str, object]) -> Dict[str, object]:
        c = client()
        with lock:
            if c not in clients:
                clients.append(c)
        return c.submit(case)

    try:
        with ThreadPoolExecutor(max_workers=concurrency,
                                thread_name_prefix="repro-replay") as pool:
            return list(pool.map(submit_one, cases))
    finally:
        for c in clients:
            c.close()
