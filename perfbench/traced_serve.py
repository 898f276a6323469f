"""Run ``repro serve`` with spans around each layer's entry points.

Usage: ``python perfbench/traced_serve.py SPANS_DIR serve [serve args...]``

Before the server starts, each entry point is replaced where the server
looks it up (a module global or a class attribute).  Wrappers installed
here are inherited by forked workers.  An event-loop lag probe runs in
every serving process.  Each process writes its spans to
``SPANS_DIR/spans-<pid>.json`` when it shuts down: the front (or the
single process) on SIGTERM, a worker when its serving coroutine ends.
"""

from __future__ import annotations

import asyncio
import contextvars
import os
import re
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import CURRENT, STORE, RID, traced, traced_async  # noqa: E402

RID_PATTERN = re.compile(rb'\{"rid": (\d+)')
LAG_PERIOD_S = 0.01
#: when the current request finished reading (the start of its handling)
_REQUEST_START = contextvars.ContextVar("perfbench_request_start", default=None)


def install(spans_dir: str) -> None:
    import repro.instdb as instdb
    from repro.dl.hierarchy import ConceptHierarchy
    from repro.dl.reasoner import Reasoner
    from repro.serve import batcher, server, workers
    from repro.serve.admission import AdmissionController, AdmissionError
    from repro.serve.control import WorkerClient
    from repro.serve.editlog import EditLog
    from repro.serve.snapshot import SnapshotManager

    read_request = server.read_request

    async def traced_read(reader):
        # the idle gap before a request's first byte is the client's
        # time, not protocol work
        if not getattr(reader, "_buffer", b"x") and not reader.at_eof():
            await reader._wait_for_data("read_request")
        start = time.perf_counter()
        request = await read_request(reader)
        end = time.perf_counter()
        rid = None
        if request is not None:
            match = RID_PATTERN.match(request.body)
            rid = int(match.group(1)) if match else None
        RID.set(rid)
        _REQUEST_START.set(end)
        STORE.spans.append(
            (next(STORE.ids), CURRENT.get(), "serve.protocol.read", start, end, rid, None)
        )
        return request

    encode = traced(
        server.encode_response,
        "serve.protocol.encode",
        extra=lambda result, error: len(result) if result else 0,
    )

    def traced_encode(*args, **kwargs):
        payload = encode(*args, **kwargs)
        begun = _REQUEST_START.get()
        if begun is not None:
            STORE.spans.append(
                (next(STORE.ids), None, "serve.request", begun,
                 time.perf_counter(), RID.get(), None)
            )
            _REQUEST_START.set(None)
        return payload

    server.read_request = traced_read
    server.encode_response = traced_encode
    server.parse_concept = traced(server.parse_concept, "dl.parser.concept")
    server.parse_tbox = traced(server.parse_tbox, "dl.parser.tbox")

    AdmissionController.admit = traced(
        AdmissionController.admit,
        "serve.admission.admit",
        extra=lambda result, error: isinstance(error, AdmissionError),
    )
    SnapshotManager.acquire = traced(SnapshotManager.acquire, "serve.snapshot.acquire")
    swap_mode = lambda result, error: None if result is None else result.swap_mode  # noqa: E731
    SnapshotManager.prepare = traced(
        SnapshotManager.prepare, "serve.snapshot.prepare", heavy=True, extra=swap_mode
    )
    SnapshotManager.prepare_delta = traced(
        SnapshotManager.prepare_delta, "serve.snapshot.prepare", heavy=True, extra=swap_mode
    )
    SnapshotManager.swap = traced(SnapshotManager.swap, "serve.snapshot.swap")

    flush = batcher.Batcher._flush

    def traced_flush(self):
        pending = len(self._pending)
        if not pending:
            return flush(self)
        # each item's wait runs from the enqueue stamp ``submit`` set
        now = time.perf_counter()
        STORE.waits.extend((item.enqueued_at, now) for item in self._pending)
        # a flush runs in the timer's copied context; it belongs to no request
        span_token, rid_token = CURRENT.set(None), RID.set(None)
        try:
            return traced(flush, "serve.batcher.flush", extra=lambda r, e: pending)(self)
        finally:
            CURRENT.reset(span_token)
            RID.reset(rid_token)

    batcher.Batcher._flush = traced_flush
    batcher.Batcher._answer = traced(
        batcher.Batcher._answer,
        "serve.batcher.answer",
        extra=lambda result, error: None if result is None else result.source,
    )

    unknown = lambda result, error: result is not None and result.is_unknown  # noqa: E731
    Reasoner.subsumes_governed = traced(
        Reasoner.subsumes_governed, "dl.reasoner.governed", extra=unknown
    )
    Reasoner.is_satisfiable_governed = traced(
        Reasoner.is_satisfiable_governed, "dl.reasoner.governed", extra=unknown
    )
    Reasoner.classify = traced(Reasoner.classify, "dl.reasoner.classify", heavy=True)
    Reasoner.retrieve_indexed = traced(Reasoner.retrieve_indexed, "instdb.retrieve")
    ConceptHierarchy.is_subsumed_by = traced(
        ConceptHierarchy.is_subsumed_by, "dl.hierarchy.lookup"
    )
    EditLog.append = traced(
        EditLog.append,
        "serve.editlog.append",
        extra=lambda result, error: None if result is None else len(result.encode()),
    )
    rows = lambda result, error: (  # noqa: E731
        None if result is None else result.derived_rows + result.removed_rows
    )
    instdb.materialize = traced(instdb.materialize, "instdb.materialize", heavy=True, extra=rows)
    instdb.refresh = traced(instdb.refresh, "instdb.refresh", heavy=True, extra=rows)
    WorkerClient.request = traced_async(WorkerClient.request, "serve.control.request")

    start = server.ReasoningServer.start

    async def traced_start(self):
        address = await start(self)
        _start_lag_probe()
        return address

    server.ReasoningServer.start = traced_start

    serve_worker = workers._serve_worker

    async def traced_serve_worker(*args, **kwargs):
        STORE.reset()
        _start_lag_probe()
        try:
            await serve_worker(*args, **kwargs)
        finally:
            STORE.dump(spans_dir, "worker")

    workers._serve_worker = traced_serve_worker

    def on_sigterm(signum, frame):
        STORE.dump(spans_dir, "front")
        os._exit(0)

    signal.signal(signal.SIGTERM, on_sigterm)


_PROBES: list[asyncio.Task] = []


def _start_lag_probe() -> None:
    async def probe() -> None:
        while True:
            due = time.perf_counter() + LAG_PERIOD_S
            await asyncio.sleep(LAG_PERIOD_S)
            STORE.lags.append((due, time.perf_counter() - due))

    _PROBES.append(asyncio.get_running_loop().create_task(probe()))


def main(argv: list[str]) -> int:
    spans_dir, serve_argv = argv[0], argv[1:]
    install(spans_dir)
    from repro.__main__ import main as repro_main

    return repro_main(serve_argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
