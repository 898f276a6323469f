"""Warm-standby replication: log shipping, fencing epochs, promotion.

A single crash-durable server (PR 6) still means downtime while a
restart replays the log.  This module keeps a **follower** process hot:
it polls the primary for sealed edit-log records over the existing
JSON-over-HTTP protocol, applies them through the same snapshot swap
path as the primary so its MVCC snapshot chain stays classified and warm,
and can be **promoted** to primary in milliseconds — no cold rebuild.

Topology and protocol::

    writes ──► primary ──POST /v1/tbox──► edit log ──┐
                  ▲                                   │ POST /v1/repl/pull
                  │ POST /v1/fence (after promotion)  │ {"after": N}
                  │                                   ▼
    reads ◄── follower (read-only, X-Replication-Lag-Records header)

* The follower pulls with its last applied version; the primary answers
  with the sealed records that extend it (:meth:`EditLog.read_records`),
  or a **base snapshot** when compaction has moved the log past the
  follower (:meth:`EditLog.base_snapshot`).
* Every fetched batch passes the :func:`deliver_batches` fault gate
  (``repl-drop`` / ``repl-dup`` / ``repl-truncate`` —
  :mod:`repro.robust.faults`), then :func:`apply_shipped` feeds it
  record-by-record into :meth:`EditLog.append_record`: durable before
  visible, duplicates skipped as stale, gaps rejected loudly.  Follower
  state after ANY fault interleaving plus catch-up therefore equals the
  primary's uninterrupted state (property-tested in
  ``tests/serve/test_replication.py``).

**Split-brain safety** rests on a monotone **fencing epoch** persisted
as ``epoch.json`` in the edit-log directory (:class:`EpochStore`).
Promotion — manual ``POST /v1/promote`` or automatic after N failed
pulls — bumps the epoch above every epoch the follower has seen and
persists it *before* the promoted server acks a write.  The new primary
then fences the old one (``POST /v1/fence`` with the new epoch,
retried until acknowledged): a fenced server persists the fence and
refuses writes with 503 + the new primary's location — even after a
restart, so a resurrected ex-primary can never ack a write its
successor does not have.  A fence carrying a stale (≤ current) epoch is
refused with **409 Conflict**.

Counters: ``repl.shipped``, ``repl.applied``, ``repl.lag_records``
(histogram), ``repl.promotions``, ``repl.fenced_writes``,
``repl.batches_dropped/duplicated/truncated``, ``repl.base_installs``,
``repl.base_publish_failures``, ``repl.base_install_retries``,
``repl.poll_errors``, ``repl.fence_attempts``.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from pathlib import Path
from typing import Awaitable, Callable, Optional, Union

from ..obs import recorder as _obs
from ..robust import faults
from ..store import atomic_write_text
from .editlog import EditLog, EditRecord
from .protocol import MAX_HEADER_BYTES

__all__ = [
    "EpochStore",
    "FollowerChannel",
    "ReplicationError",
    "apply_shipped",
    "deliver_batches",
    "post_json",
]

_EPOCH_NAME = "epoch.json"


class ReplicationError(Exception):
    """The replication channel is unusable (bad URL, bad response, ...)."""


# --------------------------------------------------------------------------- #
# fencing epochs
# --------------------------------------------------------------------------- #


class EpochStore:
    """The fencing epoch, durably bound to one edit-log directory.

    The epoch is a monotone integer totally ordering primaries over one
    log lineage: a server acks writes only while it is unfenced, and a
    fence carrying a *higher* epoch is persisted before it is
    acknowledged — so by the time a promoted follower serves its first
    write, the ex-primary either already refuses writes or has never
    acked anything the new primary lacks.  With no directory the store
    is memory-only (an edit-log-less toy server still gets the
    semantics, just not across restarts).
    """

    def __init__(self, directory: Optional[Union[str, Path]] = None) -> None:
        self.path = (
            Path(directory) / _EPOCH_NAME if directory is not None else None
        )
        self.epoch = 1
        self.role = "primary"
        self.fenced = False
        self.fenced_by: Optional[int] = None
        self.primary_url: Optional[str] = None  # where writes should go
        if self.path is not None and self.path.exists():
            self._load()
        elif self.path is not None:
            self.save()  # a fresh lineage starts at a durable epoch 1

    def _load(self) -> None:
        try:
            row = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ReplicationError(f"{self.path}: corrupt epoch file: {exc}")
        self.epoch = int(row.get("epoch", 1))
        self.role = str(row.get("role", "primary"))
        self.fenced = bool(row.get("fenced", False))
        self.fenced_by = row.get("fenced_by")
        self.primary_url = row.get("primary_url")

    def save(self) -> None:
        if self.path is None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(
            self.path,
            json.dumps(
                {
                    "epoch": self.epoch,
                    "role": self.role,
                    "fenced": self.fenced,
                    "fenced_by": self.fenced_by,
                    "primary_url": self.primary_url,
                },
                sort_keys=True,
            ),
        )

    def set_role(self, role: str, primary_url: Optional[str] = None) -> None:
        self.role = role
        if primary_url is not None:
            self.primary_url = primary_url
        self.save()

    def observe(self, seen_epoch: int) -> None:
        """Track the highest primary epoch this follower has seen."""
        if seen_epoch > self.epoch:
            self.epoch = seen_epoch
            self.save()

    def promote(self) -> int:
        """Become primary under a fresh epoch higher than any seen.

        Persisted before returning: a crash immediately after promotion
        restarts as the primary it already claimed to be.
        """
        self.epoch += 1
        self.role = "primary"
        self.fenced = False
        self.fenced_by = None
        self.primary_url = None
        self.save()
        return self.epoch

    def fence(self, by_epoch: int, primary_url: Optional[str] = None) -> bool:
        """Accept a fence from a higher epoch; False when it is stale.

        Accepting persists the fence *before* returning — the refusal
        to ack writes must survive a crash-restart of the fenced server.
        """
        if by_epoch <= self.epoch:
            return False
        self.epoch = by_epoch
        self.fenced = True
        self.fenced_by = by_epoch
        if primary_url is not None:
            self.primary_url = primary_url
        self.save()
        return True

    def as_dict(self) -> dict:
        """JSON-ready state for /v1/health and /v1/metrics."""
        return {
            "role": self.role,
            "epoch": self.epoch,
            "fenced": self.fenced,
            "fenced_by": self.fenced_by,
            "primary_url": self.primary_url,
        }


# --------------------------------------------------------------------------- #
# the shipped-batch apply path (shared by the live channel and the tests)
# --------------------------------------------------------------------------- #


def deliver_batches(records: list[EditRecord]) -> list[list[EditRecord]]:
    """The fault gate every fetched batch passes through.

    Returns the batches that actually "arrive": ``repl-drop`` loses the
    whole response, ``repl-truncate`` cuts it to a prefix (the rest is
    re-requested next poll), ``repl-dup`` delivers it twice.  With no
    plan armed this is the identity — one batch, untouched.
    """
    if not records:
        return []
    if faults.should_fire("repl-drop"):
        _obs.incr("repl.batches_dropped")
        return []
    if faults.should_fire("repl-truncate"):
        records = records[: len(records) // 2]
        _obs.incr("repl.batches_truncated")
        if not records:
            return []
    if faults.should_fire("repl-dup"):
        _obs.incr("repl.batches_duplicated")
        return [records, records]
    return [records]


def apply_shipped(
    editlog: EditLog,
    rows: list,
    *,
    on_record: Optional[Callable[[EditRecord], None]] = None,
) -> list[EditRecord]:
    """Apply one pull response's records through the fault gate.

    Decodes the shipped rows (malformed ones are dropped — the next
    poll re-requests from the durable version, so nothing is lost),
    routes them through :func:`deliver_batches`, and feeds each
    surviving record to :meth:`EditLog.append_record`.  Every record is
    durable on the follower's disk before ``on_record`` (the publication
    hook) sees it.  Returns the records that genuinely applied —
    duplicates and stale generations are skipped, a gap raises
    :class:`~repro.serve.editlog.EditLogError`.
    """
    records = [r for r in map(EditRecord.from_json, rows) if r is not None]
    applied: list[EditRecord] = []
    for batch in deliver_batches(records):
        for record in batch:
            if record.version <= editlog.version:
                # cheap pre-check so a duplicated batch does not even
                # reach the log's lock; the log re-checks under it
                _obs.incr("editlog.stale_records_skipped")
                continue
            if editlog.append_record(record):
                _obs.incr("repl.applied")
                applied.append(record)
                if on_record is not None:
                    on_record(record)
    return applied


# --------------------------------------------------------------------------- #
# a minimal asyncio JSON-over-HTTP client (stdlib only, like the server)
# --------------------------------------------------------------------------- #


def parse_url(url: str) -> tuple[str, int]:
    """``http://host:port`` (or bare ``host:port``) → ``(host, port)``."""
    stripped = url.strip()
    for prefix in ("http://", "https://"):
        if stripped.startswith(prefix):
            stripped = stripped[len(prefix):]
            break
    stripped = stripped.rstrip("/")
    host, sep, port = stripped.rpartition(":")
    if not sep or not port.isdigit():
        raise ReplicationError(f"unusable primary URL {url!r}: need host:port")
    return host or "127.0.0.1", int(port)


def _encode_request(path: str, body: bytes) -> bytes:
    head = (
        f"POST {path} HTTP/1.1\r\n"
        f"Host: peer\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: keep-alive\r\n"
        f"\r\n"
    )
    return head.encode("latin-1") + body


async def _read_response(reader: asyncio.StreamReader) -> tuple[int, bytes]:
    """Read one HTTP/1.1 response: ``(status, body)``.

    The head is capped at ``MAX_HEADER_BYTES``; the body, framed by its
    Content-Length, is not.  Raises :class:`ReplicationError` on
    malformed framing and ``IncompleteReadError`` when the peer closes
    mid-response.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.LimitOverrunError as exc:
        raise ReplicationError("response head too large") from exc
    if len(head) > MAX_HEADER_BYTES:
        raise ReplicationError("response head too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise ReplicationError(f"bad status line: {lines[0]!r}")
    try:
        status = int(parts[1])
    except ValueError as exc:
        raise ReplicationError(f"bad status code: {parts[1]!r}") from exc
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ReplicationError(f"bad header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError as exc:
        raise ReplicationError("bad Content-Length") from exc
    if length < 0:
        raise ReplicationError(f"unreasonable Content-Length {length}")
    body = await reader.readexactly(length) if length else b""
    return status, body


async def post_json(
    url: str, path: str, payload: dict, *, timeout_s: float = 5.0
) -> tuple[int, dict]:
    """One POST against a peer server; returns ``(status, body)``.

    Opens a fresh connection per call: the channel polls at human-scale
    intervals, and a dead peer must fail the *next* poll, not poison a
    kept-alive socket.  The reply is framed by Content-Length with no
    cap on the body: a base ships the whole TBox, and a pull ships up to
    256 records of axiom texts.  A malformed or truncated reply raises
    :class:`ReplicationError`.
    """
    host, port = parse_url(url)

    async def _roundtrip() -> tuple[int, dict]:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(
                _encode_request(path, json.dumps(payload).encode("utf-8"))
            )
            await writer.drain()
            status, raw = await _read_response(reader)
        except ReplicationError as exc:
            raise ReplicationError(f"{url}{path}: {exc}") from exc
        except asyncio.IncompleteReadError as exc:
            raise ReplicationError(f"{url}{path}: {exc}") from exc
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        try:
            parsed = json.loads(raw or b"{}")
        except json.JSONDecodeError as exc:
            raise ReplicationError(f"{url}{path}: non-JSON body: {exc}")
        return status, parsed if isinstance(parsed, dict) else {}

    return await asyncio.wait_for(_roundtrip(), timeout_s)


# --------------------------------------------------------------------------- #
# the follower's polling channel
# --------------------------------------------------------------------------- #


class FollowerChannel:
    """The follower side: poll, apply, track lag, trigger promotion.

    The channel is owned by a follower-mode :class:`ReasoningServer`.
    Each poll doubles as the primary health probe: a successful pull
    resets the failure streak, and ``auto_promote_after`` consecutive
    failures invoke ``on_auto_promote`` (the server's promotion path).
    Applying records — fsync included — runs in a worker thread so the
    event loop keeps answering read queries while catching up.
    """

    def __init__(
        self,
        primary_url: str,
        editlog: EditLog,
        epochs: EpochStore,
        *,
        on_records: Optional[Callable[[list[EditRecord]], Awaitable[None]]] = None,
        on_base: Optional[Callable[[int], Awaitable[None]]] = None,
        on_auto_promote: Optional[Callable[[], Awaitable[None]]] = None,
        served_version: Optional[Callable[[], int]] = None,
        probe_interval_s: float = 0.5,
        auto_promote_after: Optional[int] = None,
        pull_limit: int = 64,
        timeout_s: float = 2.0,
        jitter_seed: Optional[int] = None,
    ) -> None:
        parse_url(primary_url)  # fail fast on an unusable URL
        self.primary_url = primary_url
        self.editlog = editlog
        self.epochs = epochs
        self.on_records = on_records
        self.on_base = on_base
        self.on_auto_promote = on_auto_promote
        #: the version reads are answered from; the applied log runs
        #: ahead of it while a base or a batch is being published
        self.served_version = served_version or (lambda: editlog.version)
        self.probe_interval_s = probe_interval_s
        self.auto_promote_after = auto_promote_after
        self.pull_limit = pull_limit
        self.timeout_s = timeout_s
        self.last_primary_version: Optional[int] = None
        self.consecutive_failures = 0
        self.polls = 0
        self.stopped = False
        # -- pending base publication ----------------------------------- #
        # install_base advances the durable log to the primary's tip, so
        # a failed on_base publication is never re-requested by a later
        # pull — it must be retried locally (with backoff) until the
        # snapshot chain catches up with the log.
        self._pending_base: Optional[int] = None
        self._base_backoff_s = 0.0
        self._base_retry_at = 0.0
        # per-channel jitter source: after a primary restart every
        # follower fails its base publication at the same instant, and
        # without jitter their exponential backoffs stay phase-locked —
        # N followers re-hammer the primary in lockstep forever.
        self._jitter = random.Random(jitter_seed)

    def lag_records(self, version: Optional[int] = None) -> Optional[int]:
        """Records ``version`` trails the last-seen primary tip; None
        before contact.

        ``version`` defaults to the served snapshot's: a read answered
        while an installed base or a shipped batch is still being
        published is as stale as the snapshot it came from, however far
        the applied log has moved.
        """
        if self.last_primary_version is None:
            return None
        if version is None:
            version = self.served_version()
        return max(0, self.last_primary_version - version)

    @property
    def base_publish_pending(self) -> bool:
        """True while an installed base awaits (re)publication."""
        return self._pending_base is not None

    async def _publish_base(self, version: int) -> None:
        """Run the base-publication hook; arm a backoff retry on failure."""
        if self.on_base is None:
            self._pending_base = None
            return
        try:
            await self.on_base(version)
        except Exception:  # noqa: BLE001 - keep the base pending instead
            _obs.incr("repl.base_publish_failures")
            self._pending_base = version
            self._base_backoff_s = (
                min(self._base_backoff_s * 2, 30.0)
                if self._base_backoff_s
                else max(0.01, self.probe_interval_s)
            )
            # jitter the armed delay by x0.5..x1.5 so followers that all
            # failed together do not retry together (stampede herd)
            delay = self._base_backoff_s * (0.5 + self._jitter.random())
            self._base_retry_at = time.monotonic() + delay
        else:
            self._pending_base = None
            self._base_backoff_s = 0.0

    async def poll_once(self) -> str:
        """One pull-and-apply round; returns ``ok`` / ``unreachable`` /
        ``error``."""
        self.polls += 1
        if (
            self._pending_base is not None
            and time.monotonic() >= self._base_retry_at
        ):
            # publication is purely local work — retry it even while the
            # primary is unreachable
            _obs.incr("repl.base_install_retries")
            await self._publish_base(self._pending_base)
        payload = {"after": self.editlog.version, "epoch": self.epochs.epoch}
        try:
            status, body = await post_json(
                self.primary_url,
                "/v1/repl/pull",
                payload,
                timeout_s=self.timeout_s,
            )
        except (OSError, asyncio.TimeoutError, ReplicationError):
            self.consecutive_failures += 1
            return "unreachable"
        if status != 200:
            _obs.incr("repl.poll_errors")
            self.consecutive_failures += 1
            return "error"
        self.consecutive_failures = 0
        if isinstance(body.get("epoch"), int):
            self.epochs.observe(body["epoch"])
        if isinstance(body.get("version"), int):
            self.last_primary_version = body["version"]

        base = body.get("base")
        if isinstance(base, dict) and isinstance(base.get("version"), int):
            version, text = base["version"], base.get("tbox")
            if isinstance(text, str) and version > self.editlog.version:
                await asyncio.to_thread(
                    self.editlog.install_base, version, text
                )
                _obs.incr("repl.base_installs")
                await self._publish_base(version)

        rows = body.get("records")
        if isinstance(rows, list) and rows:
            applied = await asyncio.to_thread(apply_shipped, self.editlog, rows)
            if applied and self.on_records is not None:
                await self.on_records(applied)
        lag = self.lag_records(self.editlog.version)
        if lag is not None:
            _obs.observe("repl.lag_records", float(lag))
        return "ok"

    async def run(self) -> None:
        """The poll loop a follower server runs until promoted/stopped."""
        while not self.stopped:
            try:
                outcome = await self.poll_once()
            except asyncio.CancelledError:
                raise
            except Exception:  # noqa: BLE001 - the channel must survive
                _obs.incr("repl.poll_errors")
                self.consecutive_failures += 1
                outcome = "error"
            if (
                outcome != "ok"
                and self.auto_promote_after is not None
                and self.consecutive_failures >= self.auto_promote_after
                and self.on_auto_promote is not None
            ):
                await self.on_auto_promote()
                return
            # catch up as fast as the primary can ship while the log is
            # behind; probe gently once caught up (a publication retried
            # with backoff must not turn this into a spin)
            lag = self.lag_records(self.editlog.version)
            if outcome == "ok" and lag is not None and lag > 0:
                continue
            await asyncio.sleep(self.probe_interval_s)

    def stop(self) -> None:
        self.stopped = True
