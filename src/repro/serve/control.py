"""The front↔worker channel: tagged frames over one Unix socket per worker.

The multi-worker mode (:mod:`repro.serve.workers`) carries everything
the front asks of a worker over one connection to that worker's
Unix-domain socket:

* the **data plane**: query routes (``/v1/subsumes``, ...) relayed to a
  worker, whose JSON body the front writes to its client unparsed;
* the **control plane**: worker-only routes under ``/v1/ctl/`` —
  ``ping`` (readiness + version), ``swap`` (apply one shipped edit
  record), ``obs`` (the worker's recorder state for the pooled
  ``/v1/metrics``).

Every message is one length-prefixed frame tagged with a request id::

    frame         = length:u32  rid:u32  head LF body   (big-endian;
                                                         length counts
                                                         head LF body)
    request head  = METHOD SP PATH
    response head = STATUS SP TBOX_VERSION SP RETRY_AFTER  ("-" if absent)

so a channel carries any number of requests at once and the worker
answers each as soon as it is done, out of order.  Both ends read with
:class:`FrameProtocol`, an :class:`asyncio.BufferedProtocol` whose
socket reads land in one reused buffer; a frame is copied out of it
once.  The size bounds are the HTTP ones they replace: a request frame
over :data:`MAX_REQUEST_FRAME` is answered 400 and the worker closes the
channel, and a response frame over :data:`MAX_RESPONSE_FRAME` poisons
the channel at the front.

:class:`WorkerClient` is the front's side: one channel per worker,
opened on first use (concurrent first requests share the connect) and
reopened on the first request after it is lost.  Each request's deadline
is a timer; an answer that arrives after it is dropped.  A lost channel
fails every pending request with :class:`ConnectionError` and is *not*
retried here — routing owns retry policy, because only it knows which
requests are idempotent and which other workers are alive.
:class:`ChannelServer` is the worker's side: each request frame runs the
worker's dispatch as its own task, so the batcher sees concurrent
checks.

Counters: ``workers.ctl_requests``, ``workers.ctl_errors``,
``workers.ctl_late_answers``.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Any, Awaitable, Callable, Optional

from ..obs import recorder as _obs
from .protocol import (
    MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
    HttpRequest,
    encode_body,
    error_body,
)

__all__ = [
    "ChannelServer",
    "FrameProtocol",
    "WorkerClient",
    "WorkerProtocolError",
]

#: a frame's prefix: the length of what follows it, and the request id
HEADER = struct.Struct("!II")
#: response bodies are JSON documents, same ceiling as the public API
MAX_RESPONSE_BODY = 4 * 1024 * 1024
#: the largest frame either end accepts: a head line plus a capped body
MAX_REQUEST_FRAME = MAX_HEADER_BYTES + MAX_BODY_BYTES
MAX_RESPONSE_FRAME = MAX_HEADER_BYTES + MAX_RESPONSE_BODY
#: a channel's first read buffer; a larger frame grows it
INITIAL_BUFFER = 16 * 1024

_RID_MASK = 0xFFFFFFFF


class WorkerProtocolError(Exception):
    """The worker sent something that is not a well-formed answer."""


def encode_frame(rid: int, head: str, body: bytes) -> bytes:
    """One frame: the prefix, the head line, LF, the body."""
    line = head.encode("latin-1")
    return b"".join(
        (HEADER.pack(len(line) + 1 + len(body), rid), line, b"\n", body)
    )


class FrameProtocol(asyncio.BufferedProtocol):
    """Length-prefixed frames read into one reused buffer.

    The transport ``recv_into``s the free tail of the buffer; every
    complete frame is split at its first LF, copied out once and handed
    to :meth:`frame_received`.  A frame larger than the buffer grows it:
    the transport holds a view of the old one while it delivers a read,
    so the pending bytes move to a new buffer instead of resizing in
    place.  A frame longer than ``max_frame`` goes to
    :meth:`frame_too_large` and ends the reading.
    """

    def __init__(self, max_frame: int) -> None:
        self.max_frame = max_frame
        self.transport: Optional[asyncio.Transport] = None
        self._buffer = bytearray(INITIAL_BUFFER)
        self._view = memoryview(self._buffer)
        self._start = 0  # first byte not yet consumed
        self._end = 0  # one past the last byte received

    # -- subclass hooks --------------------------------------------------- #

    def frame_received(self, rid: int, head: bytes, body: bytes) -> None:
        raise NotImplementedError

    def frame_too_large(self, rid: int, length: int) -> None:
        raise NotImplementedError

    # -- asyncio.BufferedProtocol ----------------------------------------- #

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]

    def get_buffer(self, sizehint: int) -> memoryview:
        if self._end == len(self._buffer):
            # full with a partial frame at its tail: move it to the front
            pending = self._end - self._start
            if pending <= self._start:
                self._buffer[:pending] = self._view[self._start:self._end]
            else:
                self._move(len(self._buffer))
            self._start, self._end = 0, pending
        return self._view[self._end:]

    def buffer_updated(self, nbytes: int) -> None:
        self._end += nbytes
        buffer, view = self._buffer, self._view
        while self._end - self._start >= HEADER.size:
            length, rid = HEADER.unpack_from(buffer, self._start)
            if length > self.max_frame:
                self._start = self._end = 0
                self.frame_too_large(rid, length)
                return
            begin = self._start + HEADER.size
            stop = begin + length
            if stop > self._end:
                if HEADER.size + length > len(buffer):
                    self._move(HEADER.size + length)
                break
            newline = buffer.find(b"\n", begin, stop)
            if newline < 0:
                newline = stop
            head = bytes(view[begin:newline])
            body = bytes(view[newline + 1:stop]) if newline < stop else b""
            self._start = stop
            self.frame_received(rid, head, body)
            if self.transport is None or self.transport.is_closing():
                return
        if self._start == self._end:
            self._start = self._end = 0

    def _move(self, need: int) -> None:
        """Copy the pending bytes to the front of a new, large enough buffer."""
        pending = self._end - self._start
        grown = bytearray(max(need, 2 * len(self._buffer)))
        grown[:pending] = self._view[self._start:self._end]
        self._buffer, self._view = grown, memoryview(grown)
        self._start, self._end = 0, pending


# --------------------------------------------------------------------- #
# the front's side
# --------------------------------------------------------------------- #


class _ClientChannel(FrameProtocol):
    """The front's end of one worker channel: request ids to futures."""

    def __init__(self) -> None:
        super().__init__(MAX_RESPONSE_FRAME)
        self._loop = asyncio.get_running_loop()
        self._pending: dict[int, tuple[asyncio.Future, asyncio.TimerHandle]] = {}
        self._next_rid = 0
        self.lost = False

    def call(
        self, method: str, path: str, body: bytes, timeout_s: float
    ) -> asyncio.Future:
        """Send one request; the future resolves to its answer."""
        if self.lost or self.transport is None:
            raise ConnectionError("worker channel closed")
        self._next_rid = rid = (self._next_rid + 1) & _RID_MASK
        future = self._loop.create_future()
        timer = self._loop.call_later(timeout_s, self._expire, rid)
        self._pending[rid] = (future, timer)
        self.transport.write(encode_frame(rid, f"{method} {path}", body))
        return future

    def _expire(self, rid: int) -> None:
        entry = self._pending.pop(rid, None)
        if entry is not None and not entry[0].done():
            entry[0].set_exception(asyncio.TimeoutError())

    def frame_received(self, rid: int, head: bytes, body: bytes) -> None:
        entry = self._pending.pop(rid, None)
        if entry is None:
            # its deadline passed, or its caller went away
            _obs.incr("workers.ctl_late_answers")
            return
        future, timer = entry
        timer.cancel()
        if future.done():
            return
        try:
            status, version, retry = head.split(b" ")
            headers: dict[str, str] = {}
            if version != b"-":
                headers["tbox-version"] = version.decode("ascii")
            if retry != b"-":
                headers["retry-after"] = retry.decode("ascii")
            future.set_result((int(status), headers, body))
        except ValueError:
            future.set_exception(
                WorkerProtocolError(f"bad response head {head[:80]!r}")
            )

    def frame_too_large(self, rid: int, length: int) -> None:
        self._fail_all(
            lambda: WorkerProtocolError(
                f"response frame of {length} bytes exceeds {self.max_frame}"
            )
        )
        self.close()

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        self._fail_all(lambda: ConnectionError("worker channel lost"))

    def close(self) -> None:
        self.lost = True
        if self.transport is not None:
            self.transport.close()

    def _fail_all(self, error: Callable[[], BaseException]) -> None:
        self.lost = True
        pending, self._pending = self._pending, {}
        for future, timer in pending.values():
            timer.cancel()
            if not future.done():
                future.set_exception(error())


class WorkerClient:
    """Requests to one worker over one multiplexed channel.

    Not thread-safe; lives on the front's event loop.
    """

    def __init__(self, socket_path: str, *, timeout_s: float = 60.0) -> None:
        self.socket_path = socket_path
        self.timeout_s = timeout_s
        self._channel: Optional[_ClientChannel] = None
        self._connecting: Optional[asyncio.Task] = None
        self._closed = False

    async def request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        *,
        timeout_s: Optional[float] = None,
    ) -> tuple[int, dict[str, str], bytes]:
        """One exchange: ``(status, headers, body)``; raises on any fault.

        ``headers`` holds ``retry-after`` and ``tbox-version`` when the
        answer carries them.  A lost channel or an expired deadline
        raises; neither is retried here.
        """
        if self._closed:
            raise WorkerProtocolError("client closed")
        timeout = self.timeout_s if timeout_s is None else timeout_s
        _obs.incr("workers.ctl_requests")
        try:
            channel = self._channel
            if channel is None or channel.lost:
                channel = await self._connect(timeout)
            return await channel.call(method, path, body or b"", timeout)
        except Exception:
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

    async def _connect(self, timeout: float) -> _ClientChannel:
        """Open the channel; every caller that comes meanwhile shares it."""
        if self._connecting is None or self._connecting.done():
            self._connecting = asyncio.ensure_future(self._open())
            # a connect every waiter gave up on must not log its error
            self._connecting.add_done_callback(
                lambda task: task.cancelled() or task.exception()
            )
        connecting = self._connecting
        try:
            return await asyncio.wait_for(asyncio.shield(connecting), timeout)
        finally:
            if connecting.done() and self._connecting is connecting:
                self._connecting = None

    async def _open(self) -> _ClientChannel:
        loop = asyncio.get_running_loop()
        _, channel = await loop.create_unix_connection(
            _ClientChannel, self.socket_path
        )
        if self._closed:
            channel.close()
            raise WorkerProtocolError("client closed")
        self._channel = channel
        return channel

    async def close(self) -> None:
        """Close the channel; its pending requests fail with ConnectionError."""
        self._closed = True
        if self._channel is not None:
            self._channel.close()
            self._channel = None


# --------------------------------------------------------------------- #
# the worker's side
# --------------------------------------------------------------------- #

class ChannelServer(FrameProtocol):
    """The worker's end of one channel: one task per request frame.

    ``handler`` answers an :class:`HttpRequest` with ``(status, body,
    extra headers)``, as the server's dispatch does.  The status, the
    body's ``tbox_version`` and any ``Retry-After`` go into the response
    head; the body is encoded as the public listener encodes it, so the
    front relays the bytes.  A lost channel leaves its tasks running (a
    shipped swap still lands); :meth:`close` cancels them.
    """

    def __init__(self, handler: Callable[[HttpRequest], Awaitable[tuple]]) -> None:
        super().__init__(MAX_REQUEST_FRAME)
        self._handler = handler
        self._tasks: set[asyncio.Task] = set()

    def frame_received(self, rid: int, head: bytes, body: bytes) -> None:
        method, _, path = head.decode("latin-1").partition(" ")
        task = asyncio.get_running_loop().create_task(
            self._answer(rid, HttpRequest(method=method, path=path, body=body))
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _answer(self, rid: int, request: HttpRequest) -> None:
        extra = None
        try:
            if not request.path:
                status, body = error_body(
                    400, f"malformed request head {request.method!r}"
                )
            else:
                status, body, extra = await self._handler(request)
            payload = encode_body(body)
        except Exception as exc:  # noqa: BLE001 - the front must hear back
            status, body = error_body(500, f"{type(exc).__name__}: {exc}")
            payload, extra = encode_body(body), None
        version = body.get("tbox_version") if isinstance(body, dict) else None
        retry = (extra or {}).get("Retry-After")
        self._reply(rid, "%d %s %s" % (
            status,
            version if isinstance(version, int) else "-",
            retry or "-",
        ), payload)

    def _reply(self, rid: int, head: str, payload: bytes) -> None:
        if self.transport is not None and not self.transport.is_closing():
            self.transport.write(encode_frame(rid, head, payload))

    def frame_too_large(self, rid: int, length: int) -> None:
        status, body = error_body(
            400, f"request frame of {length} bytes exceeds {self.max_frame}"
        )
        self._reply(rid, f"{status} - -", encode_body(body))
        self.close()

    def close(self) -> None:
        """Stop reading, cancel unanswered requests, close the socket."""
        for task in list(self._tasks):
            task.cancel()
        if self.transport is not None:
            self.transport.close()
