"""Multi-worker serving: fork-shared snapshots behind a routing front.

``python -m repro serve --workers N`` starts one **front process** — it
owns the listening TCP socket, the edit log, replication, and admission
— plus N **worker processes** that each hold the pre-classified
snapshot and answer the reasoning routes.  The front holds one framed
channel per worker over the worker's Unix-domain socket
(:mod:`repro.serve.control`): every proxied read and every
``/v1/ctl/*`` request to that worker shares it, answers come back in
whatever order the worker finishes them, and the front writes a
worker's JSON body to its client without decoding it.

**Worker creation.** Workers are forked *after* the front has
classified, so the hierarchy, the interned tables, and the reasoner
caches are shared copy-on-write — a worker boots in milliseconds and
costs no re-classification.  Workers listen on Unix-domain sockets, so
the pool runs only where :func:`os.fork` exists too.  Each worker opens
its **own** sqlite instance-store connection — inherited sqlite handles
are unsafe across ``fork()`` and the backend's pid guard
(:mod:`repro.instdb.sqlite`) would refuse them.

**Roles by registration.** Both roles are a :class:`ReasoningServer`
that registers into its route table and publish hooks instead of
overriding them: a worker adds its control routes (``/v1/ctl/*``) and
answers each channel frame through the server's one dispatch; the
front answers every read route with its proxy, health and metrics with
pool-wide views, and appends its broadcast to the publish hooks.

**Hot swaps** ship edits, not TBoxes: the front appends to the edit
log and publishes its own successor, whose publish hook ships the
sealed edit record to every worker over the control channel; each
worker publishes the record through the same sequence, applying its
axiom texts to its current TBox (:meth:`SnapshotManager.prepare_delta`).
Shipments carry the predecessor version; a worker whose base doesn't
match answers 409 and is restarted (re-forked from the front's
*current* snapshot), so version skew among live workers is bounded by
one pending swap — reported as ``max_version_skew`` in
``/v1/health``.

**Admission and shares.** The front admits against the *unchanged*
server-wide limits, so 429/503 thresholds are identical at N=1 and N>1,
and every worker computes per-request budgets from the same global
``node_allowance``/``soft_limit`` pair, so a query's resource envelope
(and verdict) is N-independent.  The server-wide allowance is split
into per-worker shares (:func:`repro.serve.admission.slice_allowance`)
that the front *enforces in routing*: at most ``share.soft_limit``
requests run on one worker at a time, so one worker can never spend
more than its slice of the allowance concurrently.

**Failure semantics.** A supervisor task reaps dead workers and
restarts them from the current snapshot; in-flight proxied requests
that hit a dying worker are retried on a live sibling (reads only are
proxied, so the retry is safe), and edits are acknowledged only after
the front's durable log append — a worker death loses no acked request
and no acked edit.

Counters: ``workers.started``, ``workers.deaths``, ``workers.restarts``,
``workers.proxied``, ``workers.proxy_retries``,
``workers.proxy_failures``, ``workers.swap_ship_errors``,
``workers.stale_swaps_skipped``, ``workers.forced_resyncs``; the
``workers.swap_broadcast_ms`` histogram times record fan-out.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import os
import signal
import sys
import tempfile
import time
import traceback
import weakref
from typing import Any, Optional

from ..dl.diff import axiom_diff
from ..obs import recorder as _obs
from .admission import WorkerShare, slice_allowance
from .control import ChannelServer, WorkerClient
from .editlog import EditRecord
from .protocol import BadRequest, HttpRequest, Relayed, error_body
from .server import ReasoningServer, Response, ServeConfig
from .snapshot import SnapshotManager

__all__ = [
    "FrontServer",
    "WorkerServer",
    "WorkerSupervisor",
    "WorkerStartError",
]

#: how long the front waits for a routing slot before giving up (503);
#: only reached when every live worker is at its share capacity
SLOT_WAIT_S = 5.0
#: ship timeout per worker per swap — a classification can be slow
SWAP_SHIP_TIMEOUT_S = 300.0
#: supervisor death-check cadence
WATCH_INTERVAL_S = 0.2
#: how long a (re)started worker may take to answer its first ping
READY_TIMEOUT_S = 30.0


class WorkerStartError(Exception):
    """A worker process failed to come up (or come back up)."""


# --------------------------------------------------------------------- #
# the worker side
# --------------------------------------------------------------------- #


class WorkerServer(ReasoningServer):
    """One worker process: the full reasoning server behind a channel.

    Serves the front's channel (:class:`repro.serve.control.ChannelServer`)
    on its Unix socket: each request frame is dispatched as its own task
    through the route table, and counted in ``serve.requests`` and
    ``serve.status.<code>`` as the HTTP listener counts a request.
    Answers every data-plane route from its own snapshot and registers
    the control routes the front drives (``/v1/ctl/ping``,
    ``/v1/ctl/swap``, ``/v1/ctl/obs``) as ``open`` routes.  Has no edit
    log, no replication, and no publisher of its own — edits arrive only
    as shipped records, published through the same sequence.
    """

    def __init__(
        self,
        config: ServeConfig,
        *,
        index: int,
        socket_path: str,
        snapshot_manager: Optional[SnapshotManager] = None,
        tbox=None,
    ) -> None:
        super().__init__(tbox, config, snapshot_manager=snapshot_manager)
        self.index = index
        self.socket_path = socket_path
        self.routes.update({
            "/v1/ctl/ping": ("GET", "open", self._ctl_ping),
            "/v1/ctl/obs": ("GET", "open", self._ctl_obs),
            "/v1/ctl/swap": ("POST", "open", self._ctl_swap),
        })
        self._channels: "weakref.WeakSet[ChannelServer]" = weakref.WeakSet()

    async def start(self) -> tuple[str, int]:
        self._server = await asyncio.get_running_loop().create_unix_server(
            self._open_channel, path=self.socket_path
        )
        self.address = (self.socket_path, 0)
        return self.address

    async def stop(self) -> None:
        await super().stop()
        for channel in list(self._channels):
            channel.close()
        with contextlib.suppress(FileNotFoundError, OSError):
            os.unlink(self.socket_path)

    def _open_channel(self) -> ChannelServer:
        channel = ChannelServer(self._answer)
        self._channels.add(channel)
        return channel

    async def _answer(self, request: HttpRequest) -> Response:
        status, body, extra = await self._dispatch(request)
        _obs.incr("serve.requests")
        _obs.incr(f"serve.status.{status}")
        return status, body, extra

    async def _ctl_ping(self, request: HttpRequest) -> Response:
        return 200, {
            "index": self.index,
            "pid": os.getpid(),
            "version": self.snapshots.version,
            "inflight": self.admission.inflight,
            "axioms": len(self.snapshots.current.tbox),
        }, None

    async def _ctl_obs(self, request: HttpRequest) -> Response:
        """``_ctl_ping`` plus the recorder's state: only here do buckets ship."""
        status, body, extra = await self._ctl_ping(request)
        body["recorder"] = _obs.get_recorder().state()
        return status, body, extra

    async def _ctl_swap(self, request: HttpRequest) -> Response:
        """Apply one shipped edit record and swap its successor in."""
        payload = request.json()
        record = EditRecord.from_json(payload.get("record"))
        if record is None:
            raise BadRequest("swap requires a well-formed record")
        base_version = payload.get("base_version")
        async with self._swap_lock:
            current = self.snapshots.version
            if record.version <= current:
                # a restarted worker forked from the already-new
                # snapshot: the in-flight broadcast is old news
                _obs.incr("workers.stale_swaps_skipped")
                return 200, {
                    "applied": False, "reason": "stale", "version": current,
                }, None
            if isinstance(base_version, int) and base_version != current:
                # the record's delta was computed against a version this
                # worker never held; applying it would corrupt — ask the
                # supervisor for a resync (restart from current) instead
                return 409, {
                    "applied": False, "reason": "out-of-sync",
                    "version": current,
                }, None
            _old, prepared = await self._publish(None, record.version, record)
            self._logged_version = max(self._logged_version, prepared.version)
        return 200, {
            "applied": True,
            "version": prepared.version,
            "swap_mode": prepared.swap_mode,
        }, None


async def _serve_worker(
    config: ServeConfig,
    manager: SnapshotManager,
    socket_path: str,
    index: int,
    parent_pid: int,
) -> None:
    """Run one worker until SIGTERM or the front process disappears."""
    server = WorkerServer(
        config, index=index, socket_path=socket_path, snapshot_manager=manager
    )
    await server.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    with contextlib.suppress(NotImplementedError, RuntimeError, ValueError):
        loop.add_signal_handler(signal.SIGTERM, stop.set)

    async def watch_parent() -> None:
        while not stop.is_set():
            await asyncio.sleep(0.5)
            if os.getppid() != parent_pid:
                # orphaned: the front died without cleaning us up
                stop.set()

    watcher = asyncio.create_task(watch_parent())
    try:
        await stop.wait()
    finally:
        watcher.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await watcher
        await server.stop()


def _run_worker_child(
    config: ServeConfig,
    manager: SnapshotManager,
    socket_path: str,
    index: int,
    parent_pid: int,
) -> None:
    """The forked child's entire life; never returns (``os._exit``).

    Fork hygiene, in order: reset inherited signal dispositions, close
    every inherited descriptor above stderr (the front's listener, its
    sqlite handles, its event-loop plumbing), start a *fresh* recorder
    (the inherited one holds the front's boot counters, which would
    double-count in the metrics merge), and build a brand-new event
    loop — the inherited one is unusable after fork.
    """
    status = 1
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        with contextlib.suppress(ValueError, OSError):
            signal.set_wakeup_fd(-1)
        os.closerange(3, 65536)
        if _obs.get_recorder() is not _obs.NULL:
            _obs.set_recorder(_obs.Recorder())
        with contextlib.suppress(AttributeError):
            # the thread-local "a loop is running" marker survives the
            # fork when the parent forked from inside its loop
            asyncio._set_running_loop(None)  # type: ignore[attr-defined]
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        loop.run_until_complete(
            _serve_worker(
                config, manager.fork_clone(), socket_path, index, parent_pid
            )
        )
        status = 0
    except BaseException:  # noqa: BLE001 - last-chance diagnostics
        with contextlib.suppress(BaseException):
            traceback.print_exc()
    finally:
        os._exit(status)


# --------------------------------------------------------------------- #
# the front side
# --------------------------------------------------------------------- #


@dataclasses.dataclass
class WorkerHandle:
    """The front's view of one worker process."""

    index: int
    share: WorkerShare
    config: ServeConfig
    socket_path: str
    client: WorkerClient
    pid: Optional[int] = None
    state: str = "starting"  # "starting" | "up" | "dead"
    version: int = 0
    inflight: int = 0
    restarts: int = 0


class WorkerSupervisor:
    """Creates, watches, restarts, and routes to the worker pool."""

    def __init__(
        self,
        front: "FrontServer",
        config: ServeConfig,
    ) -> None:
        if config.workers < 1:
            raise ValueError(f"workers must be >= 1, got {config.workers}")
        self.front = front
        self._dir_obj: Optional[tempfile.TemporaryDirectory] = None
        if config.worker_dir is None:
            self._dir_obj = tempfile.TemporaryDirectory(prefix="repro-workers-")
            self.worker_dir = self._dir_obj.name
        else:
            self.worker_dir = config.worker_dir
            os.makedirs(self.worker_dir, exist_ok=True)
        shares = slice_allowance(
            soft_limit=config.soft_limit,
            hard_limit=config.hard_limit,
            node_allowance=config.node_allowance,
            workers=config.workers,
        )
        file_backed_instdb = (
            config.abox_backend == "sqlite" and config.abox_db is not None
        )
        self.handles: list[WorkerHandle] = []
        for index, share in enumerate(shares):
            socket_path = os.path.join(self.worker_dir, f"worker-{index}.sock")
            # budgets and refusal thresholds stay *global* in the worker
            # (parity with N=1: same per-request slice, and its limits
            # are a backstop the front's routing never normally hits);
            # the share bounds concurrency at the routing layer instead.
            # N workers sharing one sqlite file elect index 0 as the
            # refresh owner so a swap re-derives rows once, not N times.
            worker_config = dataclasses.replace(
                config,
                workers=0,
                worker_dir=None,
                edit_log=None,
                follow=None,
                auto_promote_after=None,
                tbox_store=None,
                min_swap_interval_ms=0.0,
                instdb_refresh=config.instdb_refresh
                and (index == 0 or not file_backed_instdb),
            )
            self.handles.append(
                WorkerHandle(
                    index=index,
                    share=share,
                    config=worker_config,
                    socket_path=socket_path,
                    client=WorkerClient(socket_path),
                )
            )
        self._watch_task: Optional[asyncio.Task] = None
        self._stopping = False

    # -- lifecycle ----------------------------------------------------- #

    async def start(self) -> None:
        for handle in self.handles:
            self._launch(handle)
        await asyncio.gather(*(self._wait_ready(h) for h in self.handles))
        self._watch_task = asyncio.create_task(self._watch())

    async def stop(self) -> None:
        self._stopping = True
        if self._watch_task is not None:
            self._watch_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._watch_task
            self._watch_task = None
        for handle in self.handles:
            await handle.client.close()
            handle.state = "dead"
            if handle.pid is not None:
                with contextlib.suppress(ProcessLookupError, OSError):
                    os.kill(handle.pid, signal.SIGTERM)
        deadline = time.monotonic() + 5.0
        for handle in self.handles:
            while self._alive(handle) and time.monotonic() < deadline:
                await asyncio.sleep(0.05)
            if self._alive(handle) and handle.pid is not None:
                with contextlib.suppress(ProcessLookupError, OSError):
                    os.kill(handle.pid, signal.SIGKILL)
                while self._alive(handle):
                    await asyncio.sleep(0.02)
        if self._dir_obj is not None:
            with contextlib.suppress(OSError):
                self._dir_obj.cleanup()
            self._dir_obj = None

    def _launch(self, handle: WorkerHandle) -> None:
        handle.state = "starting"
        with contextlib.suppress(FileNotFoundError, OSError):
            os.unlink(handle.socket_path)
        manager = self.front.snapshots
        parent_pid = os.getpid()
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            _run_worker_child(
                handle.config, manager, handle.socket_path, handle.index,
                parent_pid,
            )
            os._exit(1)  # pragma: no cover - _run_worker_child never returns
        handle.pid = pid
        handle.version = manager.version

    async def _wait_ready(self, handle: WorkerHandle) -> None:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            if not self._alive(handle):
                raise WorkerStartError(
                    f"worker {handle.index} died during startup"
                )
            try:
                status, body = await handle.client.request_json(
                    "GET", "/v1/ctl/ping", timeout_s=2.0
                )
            except Exception:  # noqa: BLE001 - socket not bound yet
                await asyncio.sleep(0.02)
                continue
            if status == 200:
                handle.version = int(body.get("version", handle.version))
                handle.state = "up"
                _obs.incr("workers.started")
                if handle.version < self.front.snapshots.version:
                    # a publication landed while it started (a follower's
                    # boot-time base), and its broadcast skipped a worker
                    # not yet up: restart it from the current snapshot
                    self._force_resync(handle)
                return
            await asyncio.sleep(0.02)
        raise WorkerStartError(
            f"worker {handle.index} not ready after {READY_TIMEOUT_S:.0f}s"
        )

    def _alive(self, handle: WorkerHandle) -> bool:
        if handle.pid is None:
            return False
        try:
            done, _ = os.waitpid(handle.pid, os.WNOHANG)
        except ChildProcessError:
            return False
        return done == 0

    async def _watch(self) -> None:
        """Reap dead workers and restart them from the current snapshot."""
        while not self._stopping:
            await asyncio.sleep(WATCH_INTERVAL_S)
            for handle in self.handles:
                if self._stopping or self._alive(handle):
                    continue
                if handle.state != "dead":
                    _obs.incr("workers.deaths")
                handle.state = "dead"
                handle.restarts += 1
                _obs.incr("workers.restarts")
                try:
                    await handle.client.close()
                    handle.client = WorkerClient(handle.socket_path)
                    self._launch(handle)
                    await self._wait_ready(handle)
                except Exception:  # noqa: BLE001 - retried next tick
                    _obs.incr("workers.restart_failures")
                    handle.state = "dead"

    # -- routing -------------------------------------------------------- #

    async def acquire_slot(
        self, exclude: set[int], timeout_s: float = SLOT_WAIT_S
    ) -> Optional[WorkerHandle]:
        """Reserve a routing slot on the least-loaded eligible worker.

        Enforces the per-worker share: a worker already running
        ``share.soft_limit`` proxied requests is skipped.  When every
        eligible worker is at capacity (e.g. mid worker-restart with the
        survivors saturated) the front briefly *queues* here rather
        than failing the request — the front's own admission has already
        bounded total concurrency at the global limit.
        """
        deadline = time.monotonic() + timeout_s
        while True:
            best: Optional[WorkerHandle] = None
            for handle in self.handles:
                if handle.state != "up" or handle.index in exclude:
                    continue
                if handle.inflight >= handle.share.soft_limit:
                    continue
                if best is None or handle.inflight < best.inflight:
                    best = handle
            if best is not None:
                best.inflight += 1
                return best
            if time.monotonic() >= deadline or self._stopping:
                return None
            await asyncio.sleep(0.002)

    def release_slot(self, handle: WorkerHandle) -> None:
        handle.inflight -= 1

    # -- swap fan-out ---------------------------------------------------- #

    async def broadcast_swap(self, record: EditRecord, base_version: int) -> None:
        """Ship one sealed record to every live worker and await acks.

        Called from inside the front's publish critical section, so
        broadcasts are serialized in version order and a live worker is
        never more than one swap behind.  A worker that fails shipment
        (or reports out-of-sync) is killed and restarted from the
        front's current snapshot — restart *is* resync under fork.
        """
        payload = {"record": record.to_json(), "base_version": base_version}

        async def ship(handle: WorkerHandle) -> None:
            if handle.state != "up":
                return  # its restart will adopt the new snapshot directly
            try:
                status, body = await handle.client.request_json(
                    "POST", "/v1/ctl/swap", payload,
                    timeout_s=SWAP_SHIP_TIMEOUT_S,
                )
            except Exception:  # noqa: BLE001 - death handled by the watcher
                _obs.incr("workers.swap_ship_errors")
                return
            if status == 200 and body.get("applied"):
                handle.version = int(body.get("version", record.version))
            elif status == 200 and body.get("reason") == "stale":
                handle.version = max(
                    handle.version, int(body.get("version", 0))
                )
            else:
                self._force_resync(handle)

        t0 = time.perf_counter()
        await asyncio.gather(*(ship(handle) for handle in self.handles))
        _obs.observe(
            "workers.swap_broadcast_ms", (time.perf_counter() - t0) * 1000.0
        )

    def _force_resync(self, handle: WorkerHandle) -> None:
        _obs.incr("workers.forced_resyncs")
        handle.state = "dead"
        if handle.pid is not None:
            with contextlib.suppress(ProcessLookupError, OSError):
                os.kill(handle.pid, signal.SIGKILL)

    # -- reporting ------------------------------------------------------- #

    def health_block(self) -> dict[str, Any]:
        published = self.front.snapshots.version
        rows = []
        max_skew = 0
        for handle in self.handles:
            if handle.state == "up":
                max_skew = max(max_skew, published - handle.version)
            rows.append(
                {
                    "index": handle.index,
                    "pid": handle.pid,
                    "state": handle.state,
                    "version": handle.version,
                    "inflight": handle.inflight,
                    "restarts": handle.restarts,
                    "soft_share": handle.share.soft_limit,
                    "node_share": handle.share.node_allowance,
                }
            )
        return {
            "count": len(self.handles),
            "up": sum(1 for h in self.handles if h.state == "up"),
            "restarts": sum(h.restarts for h in self.handles),
            "max_version_skew": max_skew,
            "workers": rows,
        }


class FrontServer(ReasoningServer):
    """The routing front: accept, admission, proxy, swap fan-out.

    The whole single-process server — edit log, recovery, replication,
    publisher, epochs — with three registrations instead of overrides:
    every ``read`` route is answered by :meth:`_proxy` on a worker,
    ``/v1/health`` and ``/v1/metrics`` report the pool, and every
    snapshot publication ships its record to the pool
    (:meth:`_broadcast`, a publish hook).
    """

    def __init__(
        self, tbox=None, config: Optional[ServeConfig] = None
    ) -> None:
        config = config or ServeConfig(workers=1)
        if config.workers < 1:
            raise ValueError("FrontServer requires config.workers >= 1")
        # the front never materializes the instance store itself — the
        # elected refresh-owner worker does; its backend handle is only
        # read for the health block
        super().__init__(
            tbox, dataclasses.replace(config, instdb_refresh=False)
        )
        self.supervisor = WorkerSupervisor(self, config)
        # writes and the replication plane stay here, with the log
        self.routes.update({
            path: (method, kind, self._proxy)
            for path, (method, kind, _) in self.routes.items()
            if kind == "read"
        })
        self.routes["/v1/health"] = ("GET", "open", self._pool_health)
        self.routes["/v1/metrics"] = ("GET", "open", self._pool_metrics)
        self.publish_hooks.append(self._broadcast)

    async def start(self) -> tuple[str, int]:
        address = await super().start()
        try:
            await self.supervisor.start()
        except BaseException:
            await self.supervisor.stop()
            await super().stop()
            raise
        return address

    async def stop(self) -> None:
        await self.supervisor.stop()
        await super().stop()

    # -- publication fan-out -------------------------------------------- #

    async def _broadcast(self, old, prepared, record) -> None:
        try:
            rec = record
            if (
                rec is None
                or rec.version != prepared.version
                or rec.version != old.version + 1
            ):
                # no usable log record (logless swap, coalesced publish,
                # catch-up batch, base install): synthesize one that is
                # by construction exactly the old → prepared delta
                rec = EditRecord.from_diff(
                    prepared.version, axiom_diff(old.tbox, prepared.tbox)
                )
            await self.supervisor.broadcast_swap(rec, old.version)
        except Exception:  # noqa: BLE001 - never fail a durable ack
            _obs.incr("workers.publish_ship_errors")

    # -- routing --------------------------------------------------------- #

    async def _proxy(self, request: HttpRequest, budget) -> Response:
        """Relay one read to a worker; retry siblings on transport death.

        Only reads are proxied, so a retry after a mid-request worker
        death is safe — the client sees one answer from whichever
        sibling completed it.  The worker's body is relayed as bytes
        (:class:`Relayed`), with the ``tbox_version`` its frame carries
        for a follower's lag header.  The worker computes the request's
        budget from the same global allowance, so the front's is unused.
        """
        tried: set[int] = set()
        last_error: Optional[BaseException] = None
        for _ in range(len(self.supervisor.handles) + 1):
            handle = await self.supervisor.acquire_slot(tried)
            if handle is None:
                break
            try:
                status, headers, raw = await handle.client.request(
                    request.method, request.path, request.body
                )
            except Exception as exc:  # noqa: BLE001 - retry a sibling
                last_error = exc
                tried.add(handle.index)
                _obs.incr("workers.proxy_retries")
                continue
            finally:
                self.supervisor.release_slot(handle)
            extra = None
            if "retry-after" in headers:
                extra = {"Retry-After": headers["retry-after"]}
            version = headers.get("tbox-version")
            _obs.incr("workers.proxied")
            return status, Relayed(raw, None if version is None else int(version)), extra
        _obs.incr("workers.proxy_failures")
        detail = f": {last_error}" if last_error is not None else ""
        status, body = error_body(503, f"no worker available{detail}")
        return status, body, {"Retry-After": "0.2"}

    # -- aggregation ------------------------------------------------------ #

    async def _pool_health(self, request: HttpRequest) -> Response:
        status, body, extra = await self._health(request)
        body["workers"] = self.supervisor.health_block()
        return status, body, extra

    async def _pool_metrics(self, request: HttpRequest) -> Response:
        """``/v1/metrics`` with the recorder merged across the pool.

        The front's recorder (admission, routing, publication) and each
        worker's recorder (batching, reasoning, instdb) are disjoint
        views of the same service.  ``Recorder.merge`` adds the front's
        state and each live worker's shipped state (``/v1/ctl/obs``)
        bucket by bucket, so pool-wide quantiles are those of one
        recorder that saw every observation, within ``repro.obs.ALPHA``.
        """
        status, body, extra = await self._metrics(request)
        merged = _obs.Recorder()
        merged.merge(_obs.get_recorder().state())
        rows = await asyncio.gather(
            *(self._fetch_obs(handle) for handle in self.handles_up())
        )
        errors = 0
        for row in rows:
            if row is None:
                errors += 1
            else:
                merged.merge(row)
        body["metrics"] = merged.snapshot()
        block = self.supervisor.health_block()
        if errors:
            block["obs_errors"] = errors
        body["serve"]["workers"] = block
        return status, body, extra

    def handles_up(self) -> list[WorkerHandle]:
        return [h for h in self.supervisor.handles if h.state == "up"]

    async def _fetch_obs(
        self, handle: WorkerHandle
    ) -> Optional[dict[str, Any]]:
        try:
            status, body = await handle.client.request_json(
                "GET", "/v1/ctl/obs", timeout_s=5.0
            )
        except Exception:  # noqa: BLE001 - a dying worker just drops out
            return None
        if status != 200:
            return None
        snap = body.get("recorder")
        return snap if isinstance(snap, dict) else None
