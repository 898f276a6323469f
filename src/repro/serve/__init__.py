"""The serving layer: a batched, budget-governed reasoning service.

Composes the substrate the earlier PRs built — obs counters/timers
(:mod:`repro.obs`), the cached revision-guarded :class:`repro.dl.Reasoner`,
and :mod:`repro.robust` budgets with three-valued verdicts — into a
long-lived asyncio process (``python -m repro serve``) instead of
one-shot CLI invocations that re-parse and re-classify per call:

* :mod:`repro.serve.server` — the route table, the one publish
  sequence, lifecycle, degradation contract;
* :mod:`repro.serve.batcher` — coalesces concurrent checks over one
  shared snapshot pass (``serve.batched_hits``);
* :mod:`repro.serve.admission` — 429/503 load shedding and per-request
  budget slices of a server-wide allowance;
* :mod:`repro.serve.snapshot` — the MVCC snapshot chain: refcounted,
  hot-swappable TBox versions (in-flight requests finish on the version
  they started on; retired versions drop caches at their last release;
  a swap classifies the successor with the predecessor's still-valid
  reasoner caches carried over);
* :mod:`repro.serve.editlog` — the durable append-only edit log with
  replay-on-start crash recovery (acknowledged edits survive SIGKILL);
* :mod:`repro.serve.replication` — warm-standby log shipping: a
  follower pulls sealed records, applies them through the same swap
  path, and can be promoted under a persisted fencing
  epoch (split-brain-safe failover);
* :mod:`repro.serve.workers` — the multi-worker mode: a routing
  front process plus N worker processes forked after classification,
  with hot swaps shipped as edit records (``--workers N``); both roles
  register routes into the server's table, and the front adds its
  broadcast as a publish hook;
* :mod:`repro.serve.control` — the front↔worker channel: request-id
  tagged frames, one multiplexed Unix-socket connection per worker;
* :mod:`repro.serve.protocol` — HTTP/1.1 framing and the JSON bodies;
* :mod:`repro.serve.loadgen` — in-process server thread, subprocess
  server, and client for the tests (load generation and the serving
  benchmark live in ``perfbench/``).
"""

from .admission import (
    AdmissionController,
    AdmissionError,
    Ticket,
    WorkerShare,
    slice_allowance,
)
from .batcher import BatchAnswer, Batcher
from .editlog import EditLog, EditLogError, EditRecord, Recovery
from .loadgen import ServeClient, ServeProcess, ServerThread
from .protocol import BadRequest, HttpRequest, ProtocolError
from .replication import (
    EpochStore,
    FollowerChannel,
    ReplicationError,
    apply_shipped,
    deliver_batches,
)
from .control import WorkerClient, WorkerProtocolError
from .server import ReasoningServer, ServeConfig
from .snapshot import Snapshot, SnapshotError, SnapshotManager
from .workers import FrontServer, WorkerServer, WorkerStartError, WorkerSupervisor

__all__ = [
    "ReasoningServer",
    "ServeConfig",
    "Batcher",
    "BatchAnswer",
    "AdmissionController",
    "AdmissionError",
    "Ticket",
    "Snapshot",
    "SnapshotManager",
    "SnapshotError",
    "EditLog",
    "EditLogError",
    "EditRecord",
    "Recovery",
    "HttpRequest",
    "ProtocolError",
    "BadRequest",
    "ServerThread",
    "ServeClient",
    "ServeProcess",
    "EpochStore",
    "FollowerChannel",
    "ReplicationError",
    "apply_shipped",
    "deliver_batches",
    "FrontServer",
    "WorkerServer",
    "WorkerSupervisor",
    "WorkerStartError",
    "WorkerShare",
    "slice_allowance",
    "WorkerClient",
    "WorkerProtocolError",
]
