"""The front↔worker control channel: HTTP/1.1 over Unix sockets.

The multi-worker mode (:mod:`repro.serve.workers`) keeps the wire
format of the public API — JSON bodies framed as HTTP/1.1 — but runs it
over per-worker Unix-domain stream sockets, so the front process can
reuse one parser for both planes:

* the **data plane**: query routes (``/v1/subsumes``, ...) proxied
  verbatim to a worker and the worker's response relayed back;
* the **control plane**: worker-only routes under ``/v1/ctl/`` —
  ``ping`` (readiness + version), ``swap`` (apply one shipped edit
  record), ``obs`` (the worker's recorder snapshot for metrics
  aggregation).

:class:`WorkerClient` is the front's side: a small pool of keep-alive
connections per worker, one in-flight request per connection (HTTP/1.1
without pipelining), opened lazily and discarded on any error.  A
request on a connection that fails is *not* retried here — routing owns
retry policy, because only it knows which requests are idempotent and
which other workers are alive.

Counters: ``workers.ctl_requests``, ``workers.ctl_reconnects``,
``workers.ctl_errors``.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Optional

from ..obs import recorder as _obs

__all__ = [
    "WorkerProtocolError",
    "WorkerClient",
    "read_response",
]

#: response head larger than this is a protocol violation, not a slow peer
MAX_RESPONSE_HEAD = 16 * 1024
#: response bodies are JSON documents, same ceiling as the public API
MAX_RESPONSE_BODY = 4 * 1024 * 1024


class WorkerProtocolError(Exception):
    """The worker sent something that is not a well-formed response."""


async def read_response(
    reader: asyncio.StreamReader, max_body: Optional[int] = MAX_RESPONSE_BODY
) -> tuple[int, dict[str, str], bytes]:
    """Read one HTTP/1.1 response: ``(status, headers, body)``.

    A Content-Length above ``max_body`` is a protocol violation; None
    accepts any length.
    Raises :class:`WorkerProtocolError` on malformed framing and
    ``IncompleteReadError``/``ConnectionError`` when the peer vanishes
    mid-response — both mean the connection is poisoned and must be
    discarded.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.LimitOverrunError as exc:
        raise WorkerProtocolError("response head too large") from exc
    if len(head) > MAX_RESPONSE_HEAD:
        raise WorkerProtocolError("response head too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise WorkerProtocolError(f"bad status line: {lines[0]!r}")
    try:
        status = int(parts[1])
    except ValueError as exc:
        raise WorkerProtocolError(f"bad status code: {parts[1]!r}") from exc
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise WorkerProtocolError(f"bad header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError as exc:
        raise WorkerProtocolError("bad Content-Length") from exc
    if length < 0 or (max_body is not None and length > max_body):
        raise WorkerProtocolError(f"unreasonable Content-Length {length}")
    body = await reader.readexactly(length) if length else b""
    return status, headers, body


def _encode_request(method: str, path: str, body: Optional[bytes]) -> bytes:
    payload = body or b""
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: worker\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: keep-alive\r\n"
        f"\r\n"
    )
    return head.encode("latin-1") + payload


class WorkerClient:
    """Pooled keep-alive requests to one worker's Unix socket.

    Not thread-safe; lives on the front's event loop.  ``pool_max``
    bounds how many idle connections are retained — bursts above it
    open short-lived extra connections that close after their request.
    """

    def __init__(
        self,
        socket_path: str,
        *,
        timeout_s: float = 60.0,
        pool_max: int = 8,
    ) -> None:
        self.socket_path = socket_path
        self.timeout_s = timeout_s
        self.pool_max = pool_max
        self._idle: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        self._closed = False

    async def request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        *,
        timeout_s: Optional[float] = None,
    ) -> tuple[int, dict[str, str], bytes]:
        """One request/response exchange; raises on any transport fault.

        A pooled connection that turns out to be stale (the worker
        closed it while idle) is retried once on a fresh connection —
        that retry is safe even for non-idempotent requests because the
        stale close happened *before* the request was received.
        """
        if self._closed:
            raise WorkerProtocolError("client closed")
        timeout = self.timeout_s if timeout_s is None else timeout_s
        _obs.incr("workers.ctl_requests")
        pooled = bool(self._idle)
        reader, writer = (
            self._idle.pop() if pooled else await self._connect(timeout)
        )
        try:
            return await asyncio.wait_for(
                self._exchange(reader, writer, method, path, body), timeout
            )
        except asyncio.TimeoutError:
            # a timeout is not a stale connection — surface it (the
            # worker may be mid-request; the connection is poisoned)
            self._discard(writer)
            _obs.incr("workers.ctl_errors")
            raise
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            self._discard(writer)
            if not pooled:
                _obs.incr("workers.ctl_errors")
                raise
            # stale keep-alive connection: one fresh-connection retry
            _obs.incr("workers.ctl_reconnects")
            reader, writer = await self._connect(timeout)
            try:
                return await asyncio.wait_for(
                    self._exchange(reader, writer, method, path, body), timeout
                )
            except Exception:
                self._discard(writer)
                _obs.incr("workers.ctl_errors")
                raise
        except Exception:
            self._discard(writer)
            _obs.incr("workers.ctl_errors")
            raise

    async def request_json(
        self,
        method: str,
        path: str,
        payload: Optional[dict[str, Any]] = None,
        *,
        timeout_s: Optional[float] = None,
    ) -> tuple[int, dict[str, Any]]:
        """:meth:`request` with JSON encoding/decoding on both sides."""
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        status, _, raw = await self.request(
            method, path, body, timeout_s=timeout_s
        )
        if not raw:
            return status, {}
        try:
            decoded = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise WorkerProtocolError(f"non-JSON body from worker: {exc}")
        if not isinstance(decoded, dict):
            raise WorkerProtocolError("worker body is not a JSON object")
        return status, decoded

    async def _exchange(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        body: Optional[bytes],
    ) -> tuple[int, dict[str, str], bytes]:
        writer.write(_encode_request(method, path, body))
        await writer.drain()
        status, headers, payload = await read_response(reader)
        if (
            self._closed
            or headers.get("connection", "keep-alive").lower() == "close"
            or len(self._idle) >= self.pool_max
        ):
            self._discard(writer)
        else:
            self._idle.append((reader, writer))
        return status, headers, payload

    async def _connect(
        self, timeout: float
    ) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        return await asyncio.wait_for(
            asyncio.open_unix_connection(self.socket_path), timeout
        )

    def _discard(self, writer: asyncio.StreamWriter) -> None:
        try:
            writer.close()
        except Exception:  # pragma: no cover - best-effort close
            pass

    async def close(self) -> None:
        """Close every idle connection; in-flight requests finish alone."""
        self._closed = True
        while self._idle:
            _, writer = self._idle.pop()
            self._discard(writer)
