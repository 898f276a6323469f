"""The asyncio reasoning server: one route table, one publish sequence.

``python -m repro serve`` starts a long-lived JSON-over-HTTP process
exposing the reasoning services over one shared, batched, cached
snapshot instead of re-parsing and re-classifying the TBox per call the
way one-shot CLI invocations do.  The batcher holds checks for a short
window (3 ms by default) and answers each window's checks as one batch
(:mod:`repro.serve.batcher`).  What a snapshot's reasoner learns from
traffic is bounded: it keeps what classification interned and forgets
traffic's concepts and answers once they pass
:data:`repro.dl.reasoner.LEARNED_CAP` concepts; ``/v1/metrics`` reports
the sizes under ``serve.reasoner_caches``.

Routes, by kind (all bodies JSON; :attr:`ReasoningServer.routes`)::

    GET  /v1/health       open   liveness + snapshot version + queue gauges
    GET  /v1/metrics      open   the obs recorder snapshot + serving gauges
    POST /v1/repl/pull    open   {"after": N}    → sealed records / base
    POST /v1/promote      open   {}              → follower becomes primary
    POST /v1/fence        open   {"epoch": E}    → refuse writes (newer primary)
    POST /v1/subsumes     read   {"general": C, "specific": D}   (batched)
    POST /v1/satisfiable  read   {"concept": C}                  (batched)
    POST /v1/classify     read   {}              → groups, parents, version
    POST /v1/instances    read   {"concept": C, "abox": {...}}   (governed)
    POST /v1/critique     read   {"tbox": text?} → the paper's critique report
    POST /v1/tbox         write  {"tbox": text}  → log + prepare + hot-swap

An ``open`` route skips admission, so a drained, overloaded or
write-refusing server can still ship records, be fenced and be
promoted; a ``read`` route checks the client's lag bound, then admits a
read; a ``write`` route admits a write.  The multi-worker roles
(:mod:`repro.serve.workers`) register their routes into the same table.

Degradation contract: budget-exhausted answers are **206** with an
``UNKNOWN`` verdict body (the HTTP analogue of CLI exit code 3);
admission refusals are **429**/**503** with ``Retry-After`` — a
pathological query burns only its own budget slice, never the event
loop.  Concept strings use the text syntax of :mod:`repro.dl.parser`.

Every snapshot publication — an edit, a replicated batch or base, a
worker's shipped record — runs one sequence,
:meth:`ReasoningServer._publish`.

Edit publication is governed separately from query admission: under a
``--min-swap-interval-ms`` throttle (or while a publication is already
in flight) a ``POST /v1/tbox`` is still **durably logged and
acknowledged with 200**, but its body reports ``swap_status:
"deferred"`` — or ``"coalesced"`` when it supersedes an edit already
queued (last-writer-wins; edits are full TBox texts) — and a background
publisher task swaps the newest queued edit in once the throttle
allows.  Swap *frequency* degrades before query latency does.  With
``--edit-log DIR`` every acknowledged edit is persisted via
:mod:`repro.serve.editlog` before the 200 goes out, and a restart
replays the log, so the boot snapshot is the last acknowledged state —
crash included.

With ``--follow PRIMARY_URL`` the process boots as a **warm standby**
(:mod:`repro.serve.replication`): it pulls sealed edit records from the
primary, applies them through the same durable log and publishes them
through the same snapshot swap path, serves read-only traffic tagged
with an ``X-Replication-Lag-Records`` header, refuses writes with 503 +
the primary's location, and is promoted — ``POST /v1/promote``, or
automatically after ``--auto-promote-after`` failed pulls — under a
persisted fencing epoch that the old primary, once fenced (or once its
restart reads the fence back from ``epoch.json``), can never out-write.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Optional, Union

from .. import instdb as _instdb
from ..core import critique
from ..dl import Axiom, ParseError, TBox, parse_concept, parse_tbox
from ..dl.nnf import nnf_cache_size
from ..obs import recorder as _obs
from ..robust import Budget
from .admission import AdmissionController, AdmissionError
from .batcher import KIND_SATISFIABLE, KIND_SUBSUMES, Batcher
from .editlog import DEFAULT_REBASE_LIMIT, EditLog, EditRecord
from .protocol import (
    BadRequest,
    HttpRequest,
    ProtocolError,
    Relayed,
    encode_response,
    error_body,
    read_request,
    require,
    verdict_body,
)
from .replication import EpochStore, FollowerChannel, post_json
from .snapshot import Snapshot, SnapshotManager


@dataclass(frozen=True)
class ServeConfig:
    """Tunables for one serving process (see ``repro serve --help``)."""

    host: str = "127.0.0.1"
    port: int = 8080
    batch_window_ms: float = 3.0
    batch_max: int = 64
    soft_limit: int = 64
    hard_limit: int = 256
    node_allowance: Optional[int] = 250_000
    ms_allowance: Optional[float] = None
    max_nodes: int = 2000
    tbox_store: Optional[str] = None
    edit_log: Optional[str] = None
    min_swap_interval_ms: float = 0.0
    rebase_limit: int = DEFAULT_REBASE_LIMIT
    rebase_max_bytes: Optional[int] = None
    rebase_max_age_s: Optional[float] = None
    follow: Optional[str] = None
    auto_promote_after: Optional[int] = None
    probe_interval_ms: float = 500.0
    #: instance-store backend behind /v1/instances ("memory" | "sqlite");
    #: the env default lets CI rerun whole suites on the sqlite backend
    abox_backend: str = field(
        default_factory=lambda: os.environ.get("REPRO_ABOX_BACKEND", "memory")
    )
    #: sqlite database path; None = a private in-memory database
    abox_db: Optional[str] = None
    # -- multi-worker serving (repro.serve.workers) ------------------- #
    #: 0 = classic single-process server; N >= 1 = a routing front
    #: process plus N worker processes each holding the snapshot
    workers: int = 0
    #: directory for worker control sockets (None = a tempdir)
    worker_dir: Optional[str] = None
    #: whether *this* process materializes the instance store after a
    #: swap; the multi-worker mode elects one refresh owner per shared
    #: sqlite file so N workers don't re-derive the same rows N times
    instdb_refresh: bool = True


@contextlib.contextmanager
def _responsive_gil():
    """Shrink the GIL switch interval while a snapshot prepares.

    Successor classification runs in a worker thread, but on a machine
    where that thread competes with the event loop for the same core,
    the default 5ms switch interval becomes the floor on query latency
    during every swap — each scheduling quantum the preparer holds
    stalls every in-flight response.  1ms quanta cost the preparation a
    few percent and cut the p99 a request pays while racing a swap by
    roughly the same 5x factor (measured on mixed edit+query traffic on
    one core; EXPERIMENTS.md keeps the numbers).  Only one preparation
    runs at a time, so save/restore does not nest.
    """
    previous = sys.getswitchinterval()
    sys.setswitchinterval(min(previous, 0.001))
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


#: a handler's answer: status, JSON body, extra response headers
Response = tuple[int, Union[dict[str, Any], Relayed], Optional[dict[str, str]]]

#: the listener's one read buffer, shared by its connections
READ_BUFFER_BYTES = 64 * 1024
#: a connection's StreamReader limit, as ``asyncio.start_server`` sets it
STREAM_LIMIT = 64 * 1024


class _StreamProtocol(asyncio.StreamReaderProtocol, asyncio.BufferedProtocol):
    """A stream protocol whose socket reads land in its server's one buffer.

    Being a :class:`asyncio.BufferedProtocol`, it makes the selector
    transport ``recv_into`` :meth:`get_buffer` instead of allocating a
    fresh ``bytes`` per read.  Every connection of a server shares the
    buffer: a server runs on one loop thread, and :meth:`buffer_updated`
    copies the received bytes into the connection's reader before it
    returns.
    """

    def __init__(self, buffer: memoryview, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._read_buffer = buffer

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._read_buffer

    def buffer_updated(self, nbytes: int) -> None:
        self.data_received(self._read_buffer[:nbytes])


def _classify_body(snapshot: Snapshot) -> tuple[int, dict[str, Any]]:
    """``/v1/classify``'s status and body for one snapshot."""
    hierarchy = snapshot.hierarchy
    if hierarchy is None:  # pragma: no cover - retired before release
        hierarchy = snapshot.reasoner.classify()
    groups = sorted(sorted(g) for g in hierarchy.groups())
    body = {
        "tbox_version": snapshot.version,
        "groups": groups,
        "parents": {
            group[0]: sorted(hierarchy.parents(group[0])) for group in groups
        },
        "top_equivalents": sorted(hierarchy.top_equivalents()),
        "unsatisfiable": sorted(hierarchy.equivalents("⊥") - {"⊥"}),
    }
    if hierarchy.incomplete:
        body["incomplete"] = sorted(map(list, hierarchy.incomplete))
        return 206, body
    return 200, body


class ReasoningServer:
    """One serving process: snapshot manager + batcher + admission."""

    def __init__(
        self,
        tbox: Optional[TBox] = None,
        config: Optional[ServeConfig] = None,
        *,
        snapshot_manager: Optional[SnapshotManager] = None,
    ) -> None:
        self.config = config or ServeConfig()
        if self.config.follow is not None and self.config.edit_log is None:
            raise ValueError(
                "--follow requires --edit-log: the follower's applied "
                "records and its fencing epoch must both be durable"
            )
        self.editlog: Optional[EditLog] = None
        initial_version = 1
        if self.config.edit_log is not None:
            # recovery-on-start: a directory with prior state wins over
            # the --tbox argument — the boot snapshot must be the last
            # *acknowledged* state, crash or no crash.  A fresh follower
            # starts at version 0 so its first pull (after=0) fetches
            # the primary's base snapshot.
            self.editlog = EditLog.open(
                self.config.edit_log,
                initial=tbox,
                initial_version=0 if self.config.follow is not None else 1,
                rebase_limit=self.config.rebase_limit,
                rebase_max_bytes=self.config.rebase_max_bytes,
                rebase_max_age_s=self.config.rebase_max_age_s,
            )
            tbox = self.editlog.tbox
            initial_version = self.editlog.version
        if snapshot_manager is not None:
            # the multi-worker fork path: a worker process adopts the
            # front's already-classified manager copy-on-write instead
            # of re-classifying at boot
            self.snapshots = snapshot_manager
        else:
            self.snapshots = SnapshotManager(
                tbox,
                max_nodes=self.config.max_nodes,
                store_path=self.config.tbox_store,
                initial_version=initial_version,
            )
        self.batcher = Batcher(
            window_ms=self.config.batch_window_ms, max_batch=self.config.batch_max
        )
        self.admission = AdmissionController(
            soft_limit=self.config.soft_limit,
            hard_limit=self.config.hard_limit,
            node_allowance=self.config.node_allowance,
            ms_allowance=self.config.ms_allowance,
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self.address: Optional[tuple[str, int]] = None
        # -- replication state -------------------------------------------- #
        self.epochs = EpochStore(self.config.edit_log)
        self._channel: Optional[FollowerChannel] = None
        self._channel_task: Optional[asyncio.Task] = None
        self._fence_task: Optional[asyncio.Task] = None
        if self.config.follow is not None:
            self.epochs.set_role("follower", primary_url=self.config.follow)
            self.admission.refuse_writes("a follower", self.config.follow)
            self._channel = FollowerChannel(
                self.config.follow,
                self.editlog,
                self.epochs,
                on_records=self._on_replicated_records,
                on_base=self._on_replicated_base,
                on_auto_promote=self._auto_promote,
                served_version=lambda: self.snapshots.version,
                probe_interval_s=self.config.probe_interval_ms / 1000.0,
                auto_promote_after=self.config.auto_promote_after,
            )
        elif self.epochs.fenced:
            # a resurrected ex-primary: the persisted fence outlives the
            # crash, so it comes back up refusing writes
            self.admission.refuse_writes("fenced", self.epochs.primary_url)
        # -- edit-publication state (all guarded by _swap_lock; the lock
        # is never held across a classification) --------------------- #
        self._swap_lock = asyncio.Lock()
        self._min_interval_s = self.config.min_swap_interval_ms / 1000.0
        self._last_swap = time.monotonic()  # throttle counts from boot
        self._logged_version = self.snapshots.version
        self._pending: Optional[tuple[int, TBox, Optional[EditRecord]]] = None
        self._publishing = False
        self._publisher_task: Optional[asyncio.Task] = None
        self._append_times: dict[int, float] = {}
        #: the axiom lines of the last text ``/v1/tbox`` parsed: a posted
        #: line found here is not parsed again
        self._axiom_lines: dict[str, Axiom] = {}
        # -- instance store (the /v1/instances backend) ---------------- #
        self.instdb = _instdb.open_backend(
            self.config.abox_backend, self.config.abox_db
        )
        #: serializes backend access between the event loop (reads) and
        #: the worker thread a post-swap refresh runs in
        self._instdb_guard = threading.Lock()
        self._instdb_closures: dict[str, frozenset[str]] = {}
        self._instdb_version = 0
        if self.config.instdb_refresh and self.instdb.individual_count():
            # boot-time materialization fails fast: a server that cannot
            # derive over its configured instance store must not come up
            self._instdb_refresh(self.snapshots.current)
        else:
            self._instdb_version = self.snapshots.version
        #: path → (method, kind, handler); an admitted (``read`` or
        #: ``write``) handler also receives its ticket's budget
        self.routes: dict[str, tuple[str, str, Callable[..., Awaitable[Response]]]] = {
            "/v1/health": ("GET", "open", self._health),
            "/v1/metrics": ("GET", "open", self._metrics),
            "/v1/repl/pull": ("POST", "open", self._repl_pull),
            "/v1/promote": ("POST", "open", self._promote),
            "/v1/fence": ("POST", "open", self._fence),
            "/v1/subsumes": ("POST", "read", self._local(self._subsumes)),
            "/v1/satisfiable": ("POST", "read", self._local(self._satisfiable)),
            "/v1/classify": ("POST", "read", self._local(self._classify)),
            "/v1/instances": ("POST", "read", self._local(self._instances)),
            "/v1/critique": ("POST", "read", self._local(self._critique)),
            "/v1/tbox": ("POST", "write", self._swap_tbox),
        }
        #: awaited in every publication (:meth:`_publish`); a hook must
        #: not raise — a failed shipment must not fail a durable ack
        self.publish_hooks: list[Callable[..., Awaitable[None]]] = []
        #: ``/v1/classify``'s (version, status, body) for the newest
        #: snapshot it answered from: a snapshot's hierarchy never changes
        self._classified: Optional[tuple[int, int, dict[str, Any]]] = None

    # -- lifecycle ------------------------------------------------------- #

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the actual (host, port).

        What ``asyncio.start_server`` builds, with :class:`_StreamProtocol`
        in place of its stream protocol.
        """
        loop = asyncio.get_running_loop()
        buffer = memoryview(bytearray(READ_BUFFER_BYTES))

        def connection() -> _StreamProtocol:
            reader = asyncio.StreamReader(limit=STREAM_LIMIT, loop=loop)
            return _StreamProtocol(buffer, reader, self._on_connection, loop=loop)

        self._server = await loop.create_server(
            connection, self.config.host, self.config.port
        )
        sock = self._server.sockets[0].getsockname()
        self.address = (sock[0], sock[1])
        if self._channel is not None:
            self._channel_task = asyncio.create_task(self._channel.run())
        return self.address

    async def stop(self) -> None:
        """Drain admissions, flush the batch queue, close the listener.

        A queued-but-unpublished edit is dropped from memory — it is
        already durable in the edit log, so a restart recovers it.
        """
        self.admission.drain()
        self.batcher.flush_now()
        for attr in ("_channel_task", "_fence_task"):
            task = getattr(self, attr)
            if task is not None and not task.done():
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
            setattr(self, attr, None)
        if self._channel is not None:
            self._channel.stop()
        if self._publisher_task is not None:
            self._publisher_task.cancel()
            try:
                await self._publisher_task
            except asyncio.CancelledError:
                pass
            self._publisher_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        with self._instdb_guard:
            self.instdb.close()

    async def serve_forever(self) -> None:  # pragma: no cover - CLI path
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # -- connection handling --------------------------------------------- #

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except ProtocolError as exc:
                    status, body = error_body(400, str(exc))
                    writer.write(encode_response(status, body, keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                status, body, extra = await self._dispatch(request)
                channel = self._channel
                if channel is not None and not channel.stopped:
                    # the lag of the version the answer reports, if any
                    lag = channel.lag_records(
                        body.tbox_version if isinstance(body, Relayed)
                        else body.get("tbox_version")
                    )
                    if lag is not None:
                        extra = dict(extra or {})
                        extra["X-Replication-Lag-Records"] = str(lag)
                _obs.incr("serve.requests")
                _obs.incr(f"serve.status.{status}")
                writer.write(
                    encode_response(
                        status,
                        body,
                        keep_alive=request.keep_alive,
                        extra_headers=extra,
                    )
                )
                await writer.drain()
                if not request.keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            # shutdown cancellation or a client gone mid-write: fall through
            # to the close below so the handler task ends *uncancelled*
            # (asyncio's stream glue logs tasks that die cancelled)
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    # -- routing --------------------------------------------------------- #

    async def _dispatch(self, request: HttpRequest) -> Response:
        """Route one request through :attr:`routes`; errors become statuses."""
        try:
            route = self.routes.get(request.path)
            if route is None:
                return (*error_body(404, f"no route {request.path}"), None)
            method, kind, handler = route
            if request.method != method:
                return (*error_body(405, f"{request.path} requires {method}"), None)
            if kind == "open":
                return await handler(request)
            if kind == "read":
                self._check_lag_bound(request)
            ticket = self.admission.admit(write=kind == "write")
            try:
                return await handler(request, ticket.budget)
            finally:
                ticket.finish()
        except BadRequest as exc:
            return (*error_body(400, str(exc)), None)
        except ParseError as exc:
            return (*error_body(400, f"concept syntax: {exc}"), None)
        except AdmissionError as exc:
            extra = {} if exc.location is None else {"primary": exc.location}
            status, body = error_body(exc.status, str(exc), **extra)
            return status, body, {"Retry-After": f"{exc.retry_after_s:.3f}"}
        except Exception as exc:  # noqa: BLE001 - the loop must survive anything
            _obs.incr("serve.internal_errors")
            return (*error_body(500, f"{type(exc).__name__}: {exc}"), None)

    def _local(self, answer):
        """A read answered here, from one snapshot pinned for the request."""

        async def handler(request: HttpRequest, budget: Budget) -> Response:
            payload = request.json()
            snapshot = self.snapshots.acquire()
            try:
                return (*await answer(snapshot, payload, budget), None)
            finally:
                snapshot.release()

        return handler

    # -- handlers -------------------------------------------------------- #

    async def _health(self, request: HttpRequest) -> Response:
        snapshot = self.snapshots.current
        return 200, {
            "status": "draining" if self.admission.draining else "ok",
            "role": self.epochs.role,
            "replication": self._replication_block(),
            "tbox_version": snapshot.version,
            "logged_version": self._logged_version,
            "pending_swap": self._pending is not None or self._publishing,
            "axioms": len(snapshot.tbox),
            "classify_algorithm": snapshot.classify_algorithm,
            "inflight": self.admission.inflight,
            "pending_batch": self.batcher.pending,
            "instdb": self._instdb_block(),
        }, None

    async def _metrics(self, request: HttpRequest) -> Response:
        snapshot = self.snapshots.current
        body = {
            "metrics": _obs.get_recorder().snapshot(),
            "serve": {
                "tbox_version": snapshot.version,
                "logged_version": self._logged_version,
                "pending_swap": self._pending is not None or self._publishing,
                "snapshot_chain": self.snapshots.live(),
                "axioms": len(snapshot.tbox),
                "inflight": self.admission.inflight,
                "pending_batch": self.batcher.pending,
                "soft_limit": self.admission.soft_limit,
                "hard_limit": self.admission.hard_limit,
                "reasoner_caches": {
                    **snapshot.reasoner.cache_stats(),
                    "nnf": nnf_cache_size(),
                },
            },
        }
        if self.editlog is not None:
            body["serve"]["editlog"] = self.editlog.stats()
        body["serve"]["replication"] = self._replication_block()
        body["serve"]["instdb"] = self._instdb_block(full=True)
        return 200, body, None

    async def _subsumes(self, snapshot, payload, budget):
        general = parse_concept(str(require(payload, "general")))
        specific = parse_concept(str(require(payload, "specific")))
        return await self._batched(snapshot, KIND_SUBSUMES, (general, specific), budget)

    async def _satisfiable(self, snapshot, payload, budget):
        concept = parse_concept(str(require(payload, "concept")))
        return await self._batched(snapshot, KIND_SATISFIABLE, (concept,), budget)

    async def _batched(self, snapshot, kind, query, budget):
        """One batched check over the pinned snapshot."""
        answer = await self.batcher.submit(kind, snapshot, query, budget)
        return verdict_body(
            answer.verdict, source=answer.source, tbox_version=snapshot.version
        )

    def _instdb_block(self, full: bool = False) -> dict[str, Any]:
        """Instance-store state for /v1/health (cheap) and /v1/metrics."""
        with self._instdb_guard:
            if full:
                block = self.instdb.stats()
            else:
                block = {
                    "backend": self.instdb.kind,
                    "individuals": self.instdb.individual_count(),
                }
        block["materialized_version"] = self._instdb_version
        return block

    def _check_lag_bound(self, request: HttpRequest) -> None:
        """Honor ``X-Max-Replication-Lag-Records``: a client's read floor.

        A follower whose applied log trails the last-seen primary tip by
        more than the client's bound refuses the read with 503 +
        ``Retry-After`` (one probe interval) instead of serving an
        answer staler than the client tolerates.  Before first contact
        the lag is unknown, which also refuses — "unknown" is not
        "fresh".  A primary always passes.
        """
        raw = request.headers.get("x-max-replication-lag-records")
        if raw is None:
            return
        try:
            bound = int(raw.strip())
        except ValueError:
            raise BadRequest(
                "X-Max-Replication-Lag-Records must be an integer, "
                f"got {raw!r}"
            )
        if bound < 0:
            raise BadRequest(
                f"X-Max-Replication-Lag-Records must be >= 0, got {bound}"
            )
        channel = self._channel
        if channel is None or channel.stopped:
            return
        lag = channel.lag_records()
        if lag is None or lag > bound:
            _obs.incr("repl.lag_bounded_rejections")
            raise AdmissionError(
                503,
                f"replication lag {'unknown' if lag is None else lag} "
                f"exceeds client bound {bound} records",
                max(0.001, self.config.probe_interval_ms / 1000.0),
                location=self.epochs.primary_url,
            )

    # -- replication ------------------------------------------------------ #

    @property
    def role(self) -> str:
        return self.epochs.role

    def _own_url(self) -> Optional[str]:
        if self.address is None:
            return None
        return f"http://{self.address[0]}:{self.address[1]}"

    def _replication_block(self) -> dict[str, Any]:
        block = self.epochs.as_dict()
        block["last_applied_version"] = (
            self.editlog.version if self.editlog is not None
            else self.snapshots.version
        )
        channel = self._channel
        if channel is not None and not channel.stopped:
            block["lag_records"] = channel.lag_records()
            block["probe_failures"] = channel.consecutive_failures
        return block

    async def _repl_pull(self, request: HttpRequest) -> Response:
        """Ship sealed records (or the base) to a polling follower."""
        if self.editlog is None:
            return (*error_body(
                503, "replication requires --edit-log on this server"
            ), None)
        after = request.json().get("after", 0)
        if not isinstance(after, int) or after < 0:
            raise BadRequest(f"'after' must be a non-negative integer, got {after!r}")
        need_base, records = await asyncio.to_thread(
            self.editlog.read_records, after
        )
        if records:
            _obs.incr("repl.shipped", len(records))
        body: dict[str, Any] = {
            "role": self.epochs.role,
            "epoch": self.epochs.epoch,
            "fenced": self.epochs.fenced,
            "version": self.editlog.version,
            "records": [record.to_json() for record in records],
        }
        if need_base:
            body["base"] = await asyncio.to_thread(self.editlog.base_snapshot)
        return 200, body, None

    async def _fence(self, request: HttpRequest) -> Response:
        """Accept (or refuse, 409) a fence from a higher-epoch primary."""
        payload = request.json()
        epoch = payload.get("epoch")
        if not isinstance(epoch, int):
            raise BadRequest(f"'epoch' must be an integer, got {epoch!r}")
        primary = payload.get("primary")
        primary = str(primary) if primary is not None else None
        if not self.epochs.fence(epoch, primary):
            return (*error_body(
                409,
                f"stale fence: epoch {epoch} <= current {self.epochs.epoch}",
                epoch=self.epochs.epoch,
            ), None)
        # persisted before this point: even a crash right here leaves a
        # server that restarts read-only
        self.admission.refuse_writes("fenced", primary)
        _obs.incr("repl.fences_accepted")
        return 200, {
            "fenced": True,
            "epoch": self.epochs.epoch,
            "role": self.epochs.role,
        }, None

    async def _promote(self, request: HttpRequest) -> Response:
        """Promote this follower to primary (idempotent on a primary)."""
        if self.epochs.fenced:
            # a fenced server's log may be behind the primary that fenced
            # it; promoting it would fork the lineage
            return (*error_body(
                409,
                f"fenced by epoch {self.epochs.fenced_by}; a fenced server "
                "cannot self-promote",
                epoch=self.epochs.epoch,
            ), None)
        if self.epochs.role == "primary":
            return 200, {
                "promoted": False,
                "role": "primary",
                "epoch": self.epochs.epoch,
                "tbox_version": self.snapshots.version,
            }, None
        epoch = await self._become_primary()
        return 200, {
            "promoted": True,
            "role": "primary",
            "epoch": epoch,
            "tbox_version": self.snapshots.version,
            "logged_version": self._logged_version,
        }, None

    async def _auto_promote(self) -> None:
        """The channel's probe-failure path: promote without an operator."""
        _obs.incr("repl.auto_promotions")
        await self._become_primary()

    async def _become_primary(self) -> int:
        """Stop following, bump + persist the fencing epoch, take writes.

        The epoch is durable *before* the first write can be admitted,
        and the old primary is fenced best-effort (retried in the
        background until it acks or the process exits): a resurrected
        ex-primary either receives the fence or stays unreachable —
        either way it never acks a write this server does not subsume.
        """
        channel, self._channel = self._channel, None
        old_primary = self.epochs.primary_url
        if channel is not None:
            channel.stop()
        task = self._channel_task
        self._channel_task = None
        if task is not None and task is not asyncio.current_task():
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        epoch = self.epochs.promote()
        self.admission.allow_writes()
        if self.editlog is not None:
            self._logged_version = self.editlog.version
        _obs.incr("repl.promotions")
        if old_primary is not None:
            self._fence_task = asyncio.create_task(
                self._fence_old_primary(old_primary, epoch)
            )
        return epoch

    async def _fence_old_primary(self, url: str, epoch: int) -> None:
        """Retry the fence until the ex-primary acks it (or we exit)."""
        interval = max(0.05, self.config.probe_interval_ms / 1000.0)
        while True:
            _obs.incr("repl.fence_attempts")
            try:
                status, _ = await post_json(
                    url,
                    "/v1/fence",
                    {"epoch": epoch, "primary": self._own_url()},
                    timeout_s=2.0,
                )
                # 200 = fenced now; 409 = it already holds a higher
                # epoch (it was promoted past us) — either is final
                if status in (200, 409):
                    return
            except Exception:  # noqa: BLE001 - keep retrying
                pass
            await asyncio.sleep(interval)

    async def _on_replicated_records(self, records: list[EditRecord]) -> None:
        """Publish a just-applied batch so the snapshot chain stays warm.

        One publish per poll batch: a multi-record catch-up batch
        publishes once, at the batch tip.  A failure is counted and
        swallowed, so the channel keeps polling.
        """
        if records:
            with contextlib.suppress(Exception):
                await self._on_replicated_base(
                    records[-1].version, records[-1] if len(records) == 1 else None
                )

    async def _on_replicated_base(
        self, version: int, record: Optional[EditRecord] = None
    ) -> None:
        """Publish the applied log's tip: an installed base or a batch.

        Raises on failure: the installed base already advanced the
        durable log to the primary's tip, so the next pull will never
        re-request it — the channel must keep the publication pending
        and retry it with backoff (``repl.base_install_retries``).
        """
        if self.editlog is None or version <= self.snapshots.version:
            return
        self._logged_version = max(self._logged_version, version)
        try:
            await self._publish(self.editlog.tbox, version, record)
        except Exception:
            _obs.incr("serve.publish_errors")
            raise

    async def _classify(self, snapshot, payload, budget) -> tuple[int, dict[str, Any]]:
        """The hierarchy's groups and parents, built once per snapshot."""
        cached = self._classified
        if cached is None or cached[0] != snapshot.version:
            cached = self._classified = (snapshot.version, *_classify_body(snapshot))
        return cached[1], cached[2]

    async def _instances(
        self, snapshot, payload: dict[str, Any], budget: Budget
    ) -> tuple[int, dict[str, Any]]:
        from ..dl.abox import ABox, ConceptAssertion, RoleAssertion
        from ..dl.syntax import Role

        concept = parse_concept(str(require(payload, "concept")))
        if "abox" not in payload:
            # no inline ABox: answer from the server's instance store —
            # atomic concepts push down to an indexed read, no scan
            return self._instances_from_backend(snapshot, payload, concept)
        raw = payload["abox"]
        if not isinstance(raw, dict):
            raise BadRequest("'abox' must be an object")
        assertions: list = []
        for entry in raw.get("concepts", ()):
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise BadRequest(f"abox concept entry {entry!r} is not [ind, concept]")
            assertions.append(
                ConceptAssertion(str(entry[0]), parse_concept(str(entry[1])))
            )
        for entry in raw.get("roles", ()):
            if not isinstance(entry, (list, tuple)) or len(entry) != 3:
                raise BadRequest(f"abox role entry {entry!r} is not [s, role, o]")
            assertions.append(
                RoleAssertion(str(entry[0]), str(entry[2]), Role(str(entry[1])))
            )
        abox = ABox(assertions)
        members, non_members, unknown = [], [], {}
        for individual in sorted(abox.individuals()):
            verdict = snapshot.reasoner.is_instance_governed(
                abox, individual, concept, budget.child()
            )
            if verdict.is_unknown:
                unknown[individual] = verdict.reason
            elif verdict.as_bool():
                members.append(individual)
            else:
                non_members.append(individual)
        body = {
            "tbox_version": snapshot.version,
            "members": members,
            "non_members": non_members,
        }
        if unknown:
            body["unknown"] = unknown
            return 206, body
        return 200, body

    def _instances_from_backend(
        self, snapshot, payload: dict[str, Any], concept
    ) -> tuple[int, dict[str, Any]]:
        """Retrieval over the server-resident instance store.

        Unlike the inline-ABox path there is no ``non_members``
        enumeration — at instance-store scale the complement is the
        point of the index.  ``materialized_version`` lets a client
        detect a store still catching up with a just-swapped TBox.
        """
        limit = payload.get("limit")
        if limit is not None and (not isinstance(limit, int) or limit < 0):
            raise BadRequest(f"'limit' must be a non-negative integer, got {limit!r}")
        with self._instdb_guard:
            members = snapshot.reasoner.retrieve_indexed(
                self.instdb, concept, limit=limit
            )
            materialized = self._instdb_version
        return 200, {
            "tbox_version": snapshot.version,
            "source": "instdb",
            "backend": self.instdb.kind,
            "materialized_version": materialized,
            "members": members,
        }

    # -- instance-store maintenance --------------------------------------- #

    def _instdb_refresh(self, snapshot) -> None:
        """(Re)derive the instance store against ``snapshot`` (blocking)."""
        with self._instdb_guard:
            hierarchy = snapshot.hierarchy
            if hierarchy is None:  # pragma: no cover - swapped-out snapshot
                hierarchy = snapshot.reasoner.classify()
            if self._instdb_closures:
                result = _instdb.refresh(
                    self.instdb,
                    hierarchy,
                    self._instdb_closures,
                    affected=snapshot.reclassify_affected,
                )
            else:
                result = _instdb.materialize(self.instdb, hierarchy)
            self._instdb_closures = result.closures
            self._instdb_version = snapshot.version

    async def _refresh_instdb(self, snapshot) -> None:
        """Re-derive stored types off the event loop, after a swap."""
        if not self.config.instdb_refresh or (
            self.instdb.individual_count() == 0 and not self._instdb_closures
        ):
            self._instdb_version = snapshot.version
            return
        try:
            await asyncio.to_thread(self._instdb_refresh, snapshot)
        except Exception:  # noqa: BLE001 - publication must survive
            _obs.incr("instdb.refresh_errors")

    async def _publish(
        self, tbox: Optional[TBox], version: int, record: Optional[EditRecord]
    ) -> tuple[Snapshot, Snapshot]:
        """The one publish sequence: prepare, swap, hooks, visibility, refresh.

        The successor is classified in a worker thread from ``tbox``, or
        from the shipped ``record`` alone when ``tbox`` is None, so the
        event loop keeps answering from the current snapshot.  Each of
        :attr:`publish_hooks` gets the retired and installed snapshots
        and ``record`` (None for coalesced publishes, base installs and
        logless swaps).  Swap visibility is credited after the hooks: on
        a multi-worker front the hook is the broadcast, and the workers
        serve every read.  Callers keep their own locking and errors.
        """
        with _responsive_gil():
            if tbox is None:
                prepared = await asyncio.to_thread(
                    self.snapshots.prepare_delta, record
                )
            else:
                prepared = await asyncio.to_thread(
                    self.snapshots.prepare, tbox, version=version
                )
        old = self.snapshots.swap(prepared)
        for hook in self.publish_hooks:
            await hook(old, prepared, record)
        self._observe_visibility(version)
        await self._refresh_instdb(prepared)
        return old, prepared

    async def _critique(
        self, snapshot, payload: dict[str, Any], budget: Budget
    ) -> tuple[int, dict[str, Any]]:
        if "tbox" in payload:
            tbox = parse_tbox(str(payload["tbox"]))
            label = str(payload.get("label", "posted"))
        else:
            tbox = snapshot.tbox
            label = str(payload.get("label", f"tbox-v{snapshot.version}"))
        # the critique builds its own reasoner over a private TBox copy, so
        # it is safe (and worthwhile) to run off the event loop
        report = await asyncio.to_thread(critique, tbox, label=label)
        return 200, {
            "tbox_version": snapshot.version,
            "label": label,
            "defects": len(report.defects()),
            "findings": len(report.findings),
            "report": report.render(),
        }

    async def _swap_tbox(self, request: HttpRequest, budget: Budget) -> Response:
        """Log-then-publish: ack durability first, swap when allowed.

        The edit is appended to the edit log (when configured) *before*
        the 200 goes out — an acknowledged edit survives any crash.
        Publication is synchronous only when no publication is in
        flight, nothing is queued, and the swap-frequency throttle
        allows; otherwise the edit is queued for the background
        publisher and the response says ``deferred`` (first in the
        queue) or ``coalesced`` (it superseded the queued edit).
        """
        lines: dict[str, Axiom] = {}
        tbox = parse_tbox(
            str(require(request.json(), "tbox")), self._axiom_lines, lines=lines
        )
        self._axiom_lines = lines
        record: Optional[EditRecord] = None
        async with self._swap_lock:
            if self.editlog is not None:
                # fsync in a worker thread: the loop keeps serving
                record = await asyncio.to_thread(self.editlog.append, tbox)
                version = record.version
            else:
                version = self._logged_version + 1
            self._logged_version = version
            self._append_times[version] = time.monotonic()
            publish_now = (
                not self._publishing
                and self._pending is None
                and self._throttle_wait() <= 0
            )
            if publish_now:
                self._publishing = True
            else:
                coalesced = self._pending is not None
                self._pending = (version, tbox, record)
        if not publish_now:
            status = "coalesced" if coalesced else "deferred"
            _obs.incr(f"serve.{status}_edits")
            self._kick_publisher()
            return 200, {
                "swap_status": status,
                "tbox_version": version,
                "published_version": self.snapshots.version,
                "axioms": len(tbox),
            }, None
        try:
            # multi-worker front: the record ships while _publishing still
            # holds, so broadcasts reach the workers in version order; an
            # edit that arrives before the refresh is done is deferred
            old, prepared = await self._publish(tbox, version, record)
        finally:
            async with self._swap_lock:
                self._publishing = False
                self._last_swap = time.monotonic()
        self._kick_publisher()  # an edit may have queued during prepare
        return 200, {
            "swap_status": "applied",
            "tbox_version": prepared.version,
            "axioms": len(tbox),
            "retired_version": old.version,
            "retired_refs": old.refs,
            "swap_mode": prepared.swap_mode,
        }, None

    # -- deferred publication -------------------------------------------- #

    def _throttle_wait(self) -> float:
        """Seconds until the swap-frequency throttle allows a publish."""
        return self._min_interval_s - (time.monotonic() - self._last_swap)

    def _observe_visibility(self, published: int) -> None:
        """Credit swap visibility to every edit the publish made live.

        A coalesced edit's own version never publishes, but its content
        is superseded by the version that does — the edit stream is
        visible once the newer version serves, so it is timed against
        that publish.
        """
        now = time.monotonic()
        for version in [v for v in self._append_times if v <= published]:
            elapsed_ms = (now - self._append_times.pop(version)) * 1000.0
            _obs.observe("serve.swap_visibility_ms", elapsed_ms)

    def _kick_publisher(self) -> None:
        if self._pending is None:
            return
        if self._publisher_task is None or self._publisher_task.done():
            self._publisher_task = asyncio.create_task(self._publish_pending())

    async def _publish_pending(self) -> None:
        """Background task: drain the queued edit once the throttle allows."""
        while True:
            async with self._swap_lock:
                if self._pending is None or self._publishing:
                    return
                wait = self._throttle_wait()
                if wait <= 0:
                    version, tbox, record = self._pending
                    self._pending = None
                    self._publishing = True
                else:
                    version = None
            if version is None:
                await asyncio.sleep(wait)
                continue
            try:
                await self._publish(tbox, version, record)
            except Exception:  # noqa: BLE001 - the publisher must survive
                _obs.incr("serve.publish_errors")
            finally:
                async with self._swap_lock:
                    self._publishing = False
                    self._last_swap = time.monotonic()
