"""Wire protocol for the reasoning service: HTTP/1.1 framing + JSON bodies.

The server speaks a deliberately small slice of HTTP/1.1 over asyncio
streams (stdlib only, no web framework): request line, headers,
``Content-Length`` bodies, keep-alive.  Every response body is JSON,
encoded once by :func:`encode_body`; a body another process already
encoded (a multi-worker front relaying its worker's answer) travels as
:class:`Relayed` and is written verbatim.

Status-code contract (mirrors the CLI exit-code contract — see
``repro --help``):

========  ==============================================================
status    meaning
========  ==============================================================
200       definite answer
206       *partial* answer: a budget or injected fault left the verdict
          ``UNKNOWN`` (the JSON body carries ``verdict`` and ``reason``);
          the CLI analogue is exit code 3
400       malformed request (bad JSON, bad concept syntax, missing field)
404       unknown route
405       method not allowed on this route
409       fencing conflict: a ``/v1/fence`` carried a stale (≤ current)
          epoch — the sender lost a promotion race
429       admission refused: at capacity, retry after ``Retry-After``
500       internal error (the body names the exception type)
503       overloaded, draining, or refusing writes (follower / fenced
          ex-primary; the body's ``primary`` names where writes go)
========  ==============================================================
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Optional, Union

from ..robust import Verdict

#: guard rails on what a client may send, not tunables
MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 4 * 1024 * 1024

_REASONS = {
    200: "OK",
    206: "Partial Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ProtocolError(Exception):
    """Malformed HTTP framing; the connection is closed after reporting."""


class BadRequest(Exception):
    """A well-framed request with an unusable payload (→ 400)."""


@dataclass
class HttpRequest:
    """One parsed request: method, path, headers (lower-cased), JSON body."""

    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> dict[str, Any]:
        """The body parsed as a JSON object (empty body → ``{}``)."""
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise BadRequest(f"invalid JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise BadRequest("JSON body must be an object")
        return payload

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "keep-alive").lower() != "close"


@dataclass(frozen=True)
class Relayed:
    """A JSON response body encoded elsewhere, and the version it reports."""

    raw: bytes
    tbox_version: Optional[int] = None


async def read_request(reader: asyncio.StreamReader) -> Optional[HttpRequest]:
    """Parse one request off the stream; ``None`` on clean EOF.

    Raises :class:`ProtocolError` on malformed framing or oversized
    headers/bodies.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-headers") from exc
    except asyncio.LimitOverrunError as exc:
        raise ProtocolError("headers exceed the stream limit") from exc
    if len(head) > MAX_HEADER_BYTES:
        raise ProtocolError(f"headers exceed {MAX_HEADER_BYTES} bytes")

    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError(f"malformed request line {lines[0]!r}")
    method, target, _version = parts
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()

    raw_length = headers.get("content-length", "0")
    try:
        length = int(raw_length)
    except ValueError as exc:
        raise ProtocolError(f"bad Content-Length {raw_length!r}") from exc
    if length < 0 or length > MAX_BODY_BYTES:
        raise ProtocolError(f"Content-Length {length} out of range")
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise ProtocolError("connection closed mid-body") from exc
    # strip any query string; the API is JSON-bodied
    path = target.split("?", 1)[0]
    return HttpRequest(method=method.upper(), path=path, headers=headers, body=body)


def encode_body(body: Union[dict[str, Any], Relayed]) -> bytes:
    """A response body's bytes: sorted-key JSON, or a relayed body as is."""
    if isinstance(body, Relayed):
        return body.raw
    return json.dumps(body, sort_keys=True).encode("utf-8")


def encode_response(
    status: int,
    body: Union[dict[str, Any], Relayed],
    *,
    keep_alive: bool = True,
    extra_headers: Optional[dict[str, str]] = None,
) -> bytes:
    """Serialize one JSON response with correct framing headers."""
    payload = encode_body(body)
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(payload)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = "\r\n".join(lines) + "\r\n\r\n"
    return head.encode("latin-1") + payload


def verdict_body(verdict: Verdict, **extra: Any) -> tuple[int, dict[str, Any]]:
    """Map a three-valued verdict to ``(status, body)``.

    Definite verdicts are 200 with a boolean ``answer``; UNKNOWN is a
    206 partial response whose body keeps ``answer: null`` and carries
    the budget-exhaustion ``reason`` — the HTTP analogue of CLI exit
    code 3.
    """
    if verdict.is_definite:
        body = {"answer": verdict.as_bool(), "verdict": str(verdict).lower()}
        body.update(extra)
        return 200, body
    body = {"answer": None, "verdict": "unknown", "reason": verdict.reason}
    body.update(extra)
    return 206, body


def error_body(status: int, message: str, **extra: Any) -> tuple[int, dict[str, Any]]:
    body = {"error": _REASONS.get(status, "error").lower(), "message": message}
    body.update(extra)
    return status, body


def require(payload: dict[str, Any], key: str) -> Any:
    """Fetch a required request field or raise :class:`BadRequest`."""
    if key not in payload:
        raise BadRequest(f"missing required field {key!r}")
    return payload[key]
