"""The durable append-only TBox edit log with replay-on-start recovery.

A serving process that hot-swaps its TBox must not lose the edit history
when it crashes: an edit the server *acknowledged* has to survive a
``SIGKILL`` landing mid-swap.  The scheme is a classic write-ahead log
split into two artifacts in one directory:

* ``base.json`` — the last persisted **base snapshot**: one JSON object
  ``{"version": N, "tbox": text}`` replaced atomically
  (:func:`repro.store.atomic_write_text`), so it is always a complete,
  parseable TBox;
* ``edits.log`` — an append-only file of **delta records**, one per
  line, each framed as ``<crc32hex> <json>`` where the JSON carries the
  record's version and the axiom texts it added/removed relative to its
  predecessor.  Appends go through
  :func:`repro.store.append_verified_bytes`: written, fsynced, read back
  and verified, with a torn first attempt (the ``torn-write`` fault
  point) truncated and rewritten — counted in
  ``editlog.torn_writes_recovered`` — before :meth:`EditLog.append`
  returns.  An edit is *acknowledged* only after that return, so every
  acknowledged edit is durably and completely on disk.

**Recovery** (:meth:`EditLog.open` on a directory with state) replays
``base.json`` plus the longest valid log prefix: records are checked for
framing, CRC, JSON shape, and a contiguous version chain; the first
record that fails — a half-written tail from a crash mid-append — stops
the replay, the file is truncated back to the last valid record, and
the dropped fragments are counted in ``editlog.torn_records``.  A
half-written delta is therefore never replayed, and the recovered TBox
equals the state an uninterrupted run would have reached over the same
record prefix (property-tested in ``tests/serve/test_editlog.py``).

**Compaction**: the current state is rebased — written as the new base
snapshot, after which the log is truncated — when any configured
trigger fires: ``rebase_limit`` records since the base (the original
count policy), ``rebase_max_bytes`` of log file growth, or
``rebase_max_age_s`` since the base was last written.  Which trigger
fired is counted per reason (``editlog.rebase_reason.records`` /
``.bytes`` / ``.age`` / ``.manual``).  The crash ordering is safe: a
crash between the base replace and the log truncate leaves stale
records (version ≤ base version) that replay simply skips — including
across *two* back-to-back crashed rebases, where the log holds stale
records from several generations.

**Replication**: the log doubles as the primary→follower shipping
substrate (:mod:`repro.serve.replication`).  A primary reads sealed
records back out with :meth:`EditLog.read_records` and ships its base
via :meth:`EditLog.base_snapshot`; a follower applies shipped records
verbatim — primary-assigned versions and all — with
:meth:`EditLog.append_record` (durable before the apply is visible,
stale duplicates skipped) and resynchronizes from a shipped base with
:meth:`EditLog.install_base`.

Counters: ``editlog.appends``, ``editlog.replayed_records``,
``editlog.torn_records``, ``editlog.torn_writes_recovered``,
``editlog.recoveries``, ``editlog.rebases``,
``editlog.rebase_reason.*``, ``editlog.shipped_records``,
``editlog.applied_records``, ``editlog.stale_records_skipped``.
"""

from __future__ import annotations

import json
import os
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from ..dl import ParseError, TBox, parse_axiom, parse_tbox
from ..dl.diff import AxiomDelta, axiom_diff
from ..dl.serialize import to_text
from ..dl.tbox import Subsumption
from ..obs import recorder as _obs
from ..store import append_verified_bytes, atomic_write_text

#: log records beyond this trigger an automatic rebase (compaction)
DEFAULT_REBASE_LIMIT = 1024

_BASE_NAME = "base.json"
_LOG_NAME = "edits.log"


class EditLogError(Exception):
    """The log directory is unusable: missing base, corrupt base, ..."""


@dataclass(frozen=True)
class EditRecord:
    """One logged edit: the delta from version-1 to ``version``.

    ``added``/``removed`` are axiom texts in the parser syntax, sorted,
    so encoding is deterministic for a given delta.
    """

    version: int
    added: tuple[str, ...]
    removed: tuple[str, ...]

    def encode(self) -> bytes:
        payload = json.dumps(
            {"version": self.version, "added": list(self.added),
             "removed": list(self.removed)},
            sort_keys=True,
        )
        crc = zlib.crc32(payload.encode("utf-8"))
        return f"{crc:08x} {payload}\n".encode("utf-8")

    def to_json(self) -> dict:
        """The wire shape replication ships (mirrors the framed payload)."""
        return {
            "version": self.version,
            "added": list(self.added),
            "removed": list(self.removed),
        }

    @classmethod
    def from_json(cls, row: object) -> Optional["EditRecord"]:
        """Decode one shipped record; ``None`` when malformed."""
        if (
            not isinstance(row, dict)
            or not isinstance(row.get("version"), int)
            or not isinstance(row.get("added"), list)
            or not isinstance(row.get("removed"), list)
            or not all(isinstance(a, str) for a in row["added"])
            or not all(isinstance(r, str) for r in row["removed"])
        ):
            return None
        return cls(
            version=row["version"],
            added=tuple(row["added"]),
            removed=tuple(row["removed"]),
        )

    @classmethod
    def from_diff(cls, version: int, delta: AxiomDelta) -> "EditRecord":
        """A record carrying ``delta`` as sorted axiom texts.

        How :meth:`EditLog.append` seals an edit, and how the
        multi-worker front process synthesizes a shippable record for
        publications that did not come from a log append (``/v1/tbox``
        without ``--edit-log``, coalesced publishes, base installs) —
        the workers apply it exactly like a logged record.
        """
        return cls(
            version=version,
            added=tuple(sorted(_axiom_text(axiom) for axiom in delta.added)),
            removed=tuple(sorted(_axiom_text(axiom) for axiom in delta.removed)),
        )

    def apply(self, tbox: TBox) -> TBox:
        """The successor TBox: this record's delta applied to ``tbox``."""
        return _apply(tbox, self)


@dataclass(frozen=True)
class Recovery:
    """What one :meth:`EditLog.open` replay found."""

    version: int        #: the recovered (latest valid) TBox version
    base_version: int   #: the base snapshot's version
    replayed: int       #: delta records replayed on top of the base
    torn: int           #: torn/invalid tail records truncated away
    fresh: bool         #: True when the directory had no prior state


def _axiom_text(axiom) -> str:
    connective = "[=" if isinstance(axiom, Subsumption) else "="
    return f"{to_text(axiom.lhs)} {connective} {to_text(axiom.rhs)}"


def _decode_record(line: bytes) -> Optional[EditRecord]:
    """Parse one framed log line; None when torn or invalid."""
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError:
        return None
    head, sep, payload = text.partition(" ")
    if not sep or len(head) != 8:
        return None
    try:
        crc = int(head, 16)
    except ValueError:
        return None
    if zlib.crc32(payload.encode("utf-8")) != crc:
        return None
    try:
        row = json.loads(payload)
    except json.JSONDecodeError:
        return None
    return EditRecord.from_json(row)


def _apply(tbox: TBox, record: EditRecord) -> TBox:
    """The successor TBox: ``record``'s delta applied to ``tbox``.

    Removed axioms are dropped by (parsed) equality; added axioms are
    appended in the record's (sorted) order.  Replay is therefore a
    deterministic function of the base text and the record sequence.
    """
    try:
        removed = {parse_axiom(text) for text in record.removed}
        added = [parse_axiom(text) for text in record.added]
    except ParseError as exc:  # pragma: no cover - records are self-written
        raise EditLogError(f"record v{record.version}: bad axiom: {exc}") from exc
    axioms = [ax for ax in tbox.axioms if ax not in removed]
    axioms.extend(added)
    return TBox(axioms)


class EditLog:
    """One directory of durable TBox edit history (thread-safe appends).

    Use :meth:`open` rather than constructing directly: it initializes a
    fresh directory or recovers an existing one, and the recovered
    ``(tbox, version)`` pair is what a restarting server must serve.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        *,
        rebase_limit: int = DEFAULT_REBASE_LIMIT,
        rebase_max_bytes: Optional[int] = None,
        rebase_max_age_s: Optional[float] = None,
    ) -> None:
        self.directory = Path(directory)
        self.base_path = self.directory / _BASE_NAME
        self.log_path = self.directory / _LOG_NAME
        self.rebase_limit = rebase_limit
        self.rebase_max_bytes = rebase_max_bytes
        self.rebase_max_age_s = rebase_max_age_s
        self.tbox: TBox = TBox()
        self.version: int = 0
        self.last_recovery: Optional[Recovery] = None
        self._records_since_base = 0
        self._log_bytes = 0
        self._base_written_at = time.monotonic()
        self._lock = threading.Lock()

    # -- opening / recovery --------------------------------------------- #

    @classmethod
    def open(
        cls,
        directory: Union[str, Path],
        *,
        initial: Optional[TBox] = None,
        initial_version: int = 1,
        rebase_limit: int = DEFAULT_REBASE_LIMIT,
        rebase_max_bytes: Optional[int] = None,
        rebase_max_age_s: Optional[float] = None,
    ) -> "EditLog":
        """Open ``directory``, initializing or recovering as needed.

        A directory without a base snapshot is initialized fresh from
        ``initial`` (default: the empty TBox) at ``initial_version``.  A
        directory with state is *recovered*: the base is loaded, the
        valid log prefix replayed, and any torn tail truncated — after
        which :attr:`tbox`/:attr:`version` hold the latest durable
        state, which wins over ``initial``.
        """
        log = cls(
            directory,
            rebase_limit=rebase_limit,
            rebase_max_bytes=rebase_max_bytes,
            rebase_max_age_s=rebase_max_age_s,
        )
        log.directory.mkdir(parents=True, exist_ok=True)
        if not log.base_path.exists():
            if log.log_path.exists() and log.log_path.stat().st_size > 0:
                raise EditLogError(
                    f"{log.directory}: edit log without a base snapshot"
                )
            log.tbox = initial if initial is not None else TBox()
            log.version = initial_version
            log._write_base()
            log.log_path.write_bytes(b"")
            log.last_recovery = Recovery(
                version=log.version,
                base_version=log.version,
                replayed=0,
                torn=0,
                fresh=True,
            )
            return log
        log._recover()
        return log

    def _write_base(self) -> None:
        from ..dl.serialize import tbox_to_text

        atomic_write_text(
            self.base_path,
            json.dumps(
                {"version": self.version, "tbox": tbox_to_text(self.tbox)},
                sort_keys=True,
            ),
        )
        self._base_written_at = time.monotonic()

    def _recover(self) -> None:
        try:
            base = json.loads(self.base_path.read_text(encoding="utf-8"))
            base_version = base["version"]
            tbox = parse_tbox(base["tbox"])
        except (json.JSONDecodeError, KeyError, TypeError, ParseError) as exc:
            raise EditLogError(f"{self.base_path}: corrupt base: {exc}") from exc
        if not isinstance(base_version, int):
            raise EditLogError(f"{self.base_path}: non-integer base version")

        raw = self.log_path.read_bytes() if self.log_path.exists() else b""
        version = base_version
        replayed = 0
        valid_end = 0
        position = 0
        while position < len(raw):
            newline = raw.find(b"\n", position)
            if newline == -1:
                break  # partial line at EOF: a crash mid-append
            record = _decode_record(raw[position:newline])
            if record is None:
                break  # framing/CRC/shape failure: untrustworthy from here
            if record.version <= version:
                # stale record from before a rebase that crashed between
                # the base replace and the log truncate: skip, keep going
                position = valid_end = newline + 1
                continue
            if record.version != version + 1:
                break  # a gap in the chain: the tail is not trustworthy
            tbox = _apply(tbox, record)
            version = record.version
            replayed += 1
            position = valid_end = newline + 1

        torn = 0
        if valid_end < len(raw):
            torn = sum(
                1 for piece in raw[valid_end:].split(b"\n") if piece
            )
            with self.log_path.open("r+b") as handle:
                handle.truncate(valid_end)
                handle.flush()
                os.fsync(handle.fileno())
            _obs.incr("editlog.torn_records", torn)

        self.tbox = tbox
        self.version = version
        self._records_since_base = replayed
        self._log_bytes = valid_end
        self.last_recovery = Recovery(
            version=version,
            base_version=base_version,
            replayed=replayed,
            torn=torn,
            fresh=False,
        )
        _obs.incr("editlog.recoveries")
        _obs.incr("editlog.replayed_records", replayed)

    # -- appending ------------------------------------------------------- #

    def append(self, new_tbox: TBox) -> EditRecord:
        """Durably log the delta from the current state to ``new_tbox``.

        Returns the record (carrying the newly assigned version) only
        after it is fsynced and verified on disk — the caller may then
        acknowledge the edit.  The in-memory state advances to the
        *replayed application* of the delta, so it is byte-for-byte what
        a recovery over the same log would reconstruct.
        """
        with self._lock:
            record = EditRecord.from_diff(
                self.version + 1, axiom_diff(self.tbox, new_tbox)
            )
            self._append_locked(record)
        return record

    def append_record(self, record: EditRecord) -> bool:
        """Durably apply one *sealed* record (replication's append path).

        The record keeps its primary-assigned version: a stale record
        (version ≤ the current one) is skipped and returns ``False`` —
        duplicated delivery is harmless — while a gap in the chain
        raises :class:`EditLogError`, because applying a delta to the
        wrong predecessor would silently corrupt the state.  Returns
        ``True`` after the record is durable and applied.
        """
        with self._lock:
            if record.version <= self.version:
                _obs.incr("editlog.stale_records_skipped")
                return False
            if record.version != self.version + 1:
                raise EditLogError(
                    f"record v{record.version} does not extend v{self.version}: "
                    "the stream has a gap; resynchronize from the base"
                )
            self._append_locked(record)
            _obs.incr("editlog.applied_records")
        return True

    def _append_locked(self, record: EditRecord) -> None:
        if append_verified_bytes(self.log_path, record.encode()):
            _obs.incr("editlog.torn_writes_recovered")
        self.tbox = _apply(self.tbox, record)
        self.version = record.version
        self._records_since_base += 1
        self._log_bytes += len(record.encode())
        _obs.incr("editlog.appends")
        reason = self._rebase_due()
        if reason is not None:
            self._rebase(reason)

    def _rebase_due(self) -> Optional[str]:
        """The first compaction trigger that currently fires, or None."""
        if self.rebase_limit and self._records_since_base >= self.rebase_limit:
            return "records"
        if (
            self.rebase_max_bytes is not None
            and self._log_bytes >= self.rebase_max_bytes
        ):
            return "bytes"
        if (
            self.rebase_max_age_s is not None
            and self._records_since_base > 0
            and time.monotonic() - self._base_written_at >= self.rebase_max_age_s
        ):
            return "age"
        return None

    # -- compaction ------------------------------------------------------ #

    def rebase(self) -> None:
        """Persist the current state as the base and truncate the log."""
        with self._lock:
            self._rebase("manual")

    def _rebase(self, reason: str = "manual") -> None:
        self._write_base()
        # a crash before this truncate leaves records with version <= the
        # new base version, which replay skips as stale
        with self.log_path.open("wb") as handle:
            handle.flush()
            os.fsync(handle.fileno())
        self._records_since_base = 0
        self._log_bytes = 0
        _obs.incr("editlog.rebases")
        _obs.incr(f"editlog.rebase_reason.{reason}")

    # -- replication ----------------------------------------------------- #

    def read_records(
        self, after: int, limit: int = 256
    ) -> tuple[bool, list[EditRecord]]:
        """Sealed records extending version ``after``, oldest first.

        Returns ``(need_base, records)``.  ``need_base`` is True when the
        log alone cannot bridge from ``after`` to the current state —
        the wanted records were compacted into the base, or ``after``
        predates this log's history — in which case the caller must ship
        :meth:`base_snapshot` instead (the live tip, after which the
        follower is fully caught up).  Only complete, CRC-valid lines
        that chain contiguously from ``after`` are shipped; an in-flight
        torn tail is simply not visible yet.
        """
        with self._lock:
            if after >= self.version:
                return False, []
            raw = self.log_path.read_bytes() if self.log_path.exists() else b""
        wanted: list[EditRecord] = []
        next_version = after + 1
        position = 0
        while position < len(raw) and len(wanted) < limit:
            newline = raw.find(b"\n", position)
            if newline == -1:
                break
            record = _decode_record(raw[position:newline])
            if record is None:
                break
            position = newline + 1
            if record.version < next_version:
                continue  # behind the follower, or a stale generation
            if record.version > next_version:
                break  # the bridge record was compacted away
            wanted.append(record)
            next_version += 1
        if not wanted:
            return True, []
        _obs.incr("editlog.shipped_records", len(wanted))
        return False, wanted

    def base_snapshot(self) -> dict:
        """The current base as ``{"version": N, "tbox": text}`` for shipping.

        Ships the *live* state, not the on-disk base file: the follower
        installing this snapshot lands on the shipper's exact version,
        so subsequent records chain without replaying the log remotely.
        """
        from ..dl.serialize import tbox_to_text

        with self._lock:
            return {"version": self.version, "tbox": tbox_to_text(self.tbox)}

    def install_base(self, version: int, tbox_text: str) -> TBox:
        """Resynchronize from a shipped base snapshot (follower side).

        Replaces the local base and truncates the log, so the directory
        recovers to exactly the shipped state.  Returns the parsed TBox.
        """
        try:
            tbox = parse_tbox(tbox_text)
        except ParseError as exc:
            raise EditLogError(f"shipped base v{version}: bad tbox: {exc}") from exc
        with self._lock:
            self.tbox = tbox
            self.version = version
            self._rebase("base-install")
        return tbox

    # -- inspection ------------------------------------------------------ #

    @property
    def records_since_base(self) -> int:
        return self._records_since_base

    def stats(self) -> dict:
        """JSON-ready gauges for /v1/metrics."""
        recovery = self.last_recovery
        return {
            "version": self.version,
            "records_since_base": self._records_since_base,
            "log_bytes": self._log_bytes,
            "rebase_limit": self.rebase_limit,
            "rebase_max_bytes": self.rebase_max_bytes,
            "rebase_max_age_s": self.rebase_max_age_s,
            "recovered": None
            if recovery is None
            else {
                "fresh": recovery.fresh,
                "base_version": recovery.base_version,
                "replayed": recovery.replayed,
                "torn": recovery.torn,
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EditLog({self.directory}, v{self.version}, "
            f"{self._records_since_base} record(s) since base)"
        )
