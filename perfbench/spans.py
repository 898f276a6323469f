"""Spans: recording inside a traced server, self time and per-layer metrics.

A span is ``(id, parent, name, start, end, rid, extra)``: ``parent`` is
the span that was open in the same context when this one started,
``rid`` the request id the load generator put into the body, ``extra``
a per-layer detail (bytes written, a verdict, a swap mode).  Spans stay
in memory and are written once, when the process shuts down.

A span's self time is its duration minus the part of its interval that
its child spans cover.  This module imports nothing from ``repro``, so
the arithmetic is testable on its own.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import os
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Iterable, Optional

#: the open span of the current context, the request id, and whether an
#: enclosing span (classification, swap preparation) swallows children
CURRENT: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "perfbench_span", default=None
)
RID: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "perfbench_rid", default=None
)
SUPPRESS: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "perfbench_suppress", default=False
)


class SpanStore:
    """The per-process span, batch-wait and loop-lag store."""

    def __init__(self) -> None:
        self.ids = itertools.count(1)
        self.spans: list[tuple] = []
        self.waits: list[tuple[float, float]] = []
        self.lags: list[tuple[float, float]] = []

    def reset(self) -> None:
        """Forget what a forked child inherited from its parent."""
        self.spans, self.waits, self.lags = [], [], []

    def dump(self, directory: str, role: str) -> None:
        payload = {
            "pid": os.getpid(),
            "role": role,
            "spans": list(self.spans),
            "waits": list(self.waits),
            "lags": list(self.lags),
        }
        path = Path(directory) / f"spans-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)


STORE = SpanStore()


def traced(fn, name: str, *, heavy: bool = False, extra=None):
    """Wrap a plain function in a span (``heavy`` swallows child spans)."""

    def wrapper(*args, **kwargs):
        if SUPPRESS.get():
            return fn(*args, **kwargs)
        sid = next(STORE.ids)
        parent = CURRENT.get()
        token = CURRENT.set(sid)
        quiet = SUPPRESS.set(True) if heavy else None
        start = time.perf_counter()
        result = error = None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = exc
            raise
        finally:
            end = time.perf_counter()
            if quiet is not None:
                SUPPRESS.reset(quiet)
            CURRENT.reset(token)
            detail = None if extra is None else extra(result, error)
            STORE.spans.append((sid, parent, name, start, end, RID.get(), detail))

    wrapper.__wrapped__ = fn
    return wrapper


def traced_async(fn, name: str, *, extra=None):
    """Wrap a coroutine function in a span."""

    async def wrapper(*args, **kwargs):
        if SUPPRESS.get():
            return await fn(*args, **kwargs)
        sid = next(STORE.ids)
        parent = CURRENT.get()
        token = CURRENT.set(sid)
        start = time.perf_counter()
        result = error = None
        try:
            result = await fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = exc
            raise
        finally:
            end = time.perf_counter()
            CURRENT.reset(token)
            detail = None if extra is None else extra(result, error)
            STORE.spans.append((sid, parent, name, start, end, RID.get(), detail))

    wrapper.__wrapped__ = fn
    return wrapper


# -- analysis --------------------------------------------------------------- #


def covered(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, a), min(end, b)) for a, b in intervals if b > start and a < end
    )
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: list[tuple]) -> dict[tuple[int, int], float]:
    """Self time per ``(pid, span id)``: duration minus covered children.

    ``spans`` rows are ``(pid, id, parent, name, start, end, rid, extra)``.
    """
    children: dict[tuple[int, int], list[tuple[float, float]]] = defaultdict(list)
    for pid, _sid, parent, _name, start, end, _rid, _extra in spans:
        if parent is not None:
            children[pid, parent].append((start, end))
    return {
        (pid, sid): (end - start) - covered(start, end, children.get((pid, sid), ()))
        for pid, sid, _parent, _name, start, end, _rid, _extra in spans
    }


def load_dumps(directory: Path) -> dict[str, Any]:
    """Every process's dump, flattened (span rows gain a leading pid)."""
    spans, waits, lags, roles = [], [], [], {}
    for path in sorted(directory.glob("spans-*.json")):
        dump = json.loads(path.read_text())
        pid = dump["pid"]
        roles[pid] = dump["role"]
        spans.extend((pid, *row) for row in dump["spans"])
        waits.extend(dump["waits"])
        lags.extend(dump["lags"])
    return {"spans": spans, "waits": waits, "lags": lags, "roles": roles}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


#: (span name, unit scale, unit, which spans count): "window" = spans
#: that start inside the measured read window; "all" = spans anywhere in
#: the run (boot classification, the edits)
TIMED = [
    ("serve.protocol.read", 1e6, "us", "window"),
    ("serve.protocol.encode", 1e6, "us", "window"),
    ("dl.parser.concept", 1e6, "us", "window"),
    ("serve.admission.admit", 1e6, "us", "window"),
    ("dl.hierarchy.lookup", 1e6, "us", "window"),
    ("serve.snapshot.acquire", 1e6, "us", "window"),
    ("dl.reasoner.governed", 1e6, "us", "window"),
    ("dl.reasoner.classify", 1e3, "ms", "all"),
    ("serve.snapshot.prepare", 1e3, "ms", "all"),
    ("serve.snapshot.swap", 1e3, "ms", "all"),
    ("serve.editlog.append", 1e3, "ms", "all"),
    ("dl.parser.tbox", 1e3, "ms", "all"),
    ("instdb.retrieve", 1e6, "us", "window"),
    ("instdb.refresh", 1e3, "ms", "all"),
    ("instdb.materialize", 1e3, "ms", "all"),
    ("serve.control.request", 1e6, "us", "window"),
]


def layer_metrics(
    dumps: dict[str, Any],
    windows: list[tuple[float, float]],
    counters: dict[str, float],
    requests: int,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from span dumps of one traced run.

    ``windows`` bound the measured read windows; ``counters`` is the
    servers' ``/v1/metrics`` counter delta over the drives, and
    ``requests`` the number of requests those drives sent.
    """

    def inside(t: float) -> bool:
        return any(lo <= t < hi for lo, hi in windows)

    rows = dumps["spans"]
    own = self_times(rows)
    by_name: dict[str, list[tuple]] = defaultdict(list)
    for row in rows:
        by_name[row[3]].append(row)

    def pick(name: str, scope: str) -> list[tuple]:
        spans = by_name.get(name, [])
        if scope == "window":
            spans = [r for r in spans if inside(r[4])]
        return spans

    out: dict[str, tuple[float, str]] = {}
    for name, scale, unit, scope in TIMED:
        spans = pick(name, scope)
        out[f"{name}_{unit}"] = (
            _median([own[r[0], r[1]] * scale for r in spans]),
            unit,
        )
        out[f"{name}.calls"] = (float(len(spans)), "count")

    encodes = pick("serve.protocol.encode", "window")
    out["serve.protocol.bytes_out"] = (_median([r[7] for r in encodes]), "bytes")
    admits = pick("serve.admission.admit", "window")
    out["serve.admission.refused_share"] = (
        _share(sum(1 for r in admits if r[7]), len(admits)), "fraction"
    )

    flushes = pick("serve.batcher.flush", "window")
    out["serve.batcher.batch_size"] = (_median([r[7] for r in flushes]), "count")
    waits = [(b - a) * 1e3 for a, b in dumps["waits"] if inside(a)]
    out["serve.batcher.wait_ms"] = (_median(waits), "ms")
    answers = pick("serve.batcher.answer", "window")
    out["serve.batcher.hierarchy_share"] = (
        _share(sum(1 for r in answers if r[7] == "hierarchy"), len(answers)),
        "fraction",
    )

    governed = pick("dl.reasoner.governed", "window")
    out["dl.reasoner.unknown_share"] = (
        _share(sum(1 for r in governed if r[7]), len(governed)), "fraction"
    )
    hits = counters.get("reasoner.sat_cache_hits", 0) + counters.get(
        "reasoner.subs_cache_hits", 0
    )
    misses = counters.get("reasoner.sat_cache_misses", 0) + counters.get(
        "reasoner.subs_cache_misses", 0
    )
    out["dl.reasoner.cache_hit_share"] = (_share(hits, hits + misses), "fraction")
    out["dl.tableau.solves_per_request"] = (
        _share(counters.get("tableau.solve_calls", 0), requests), "count"
    )

    prepares = pick("serve.snapshot.prepare", "all")
    out["serve.snapshot.incremental_share"] = (
        _share(sum(1 for r in prepares if r[7] == "incremental"), len(prepares)),
        "fraction",
    )
    appends = pick("serve.editlog.append", "all")
    out["serve.editlog.bytes_per_edit"] = (_median([r[7] for r in appends]), "bytes")
    refreshes = pick("instdb.refresh", "all")
    out["instdb.rows_per_refresh"] = (_median([r[7] for r in refreshes]), "count")

    lags = [lag * 1e3 for t, lag in dumps["lags"] if inside(t)]
    out["serve.loop.lag_p90_ms"] = (_p90(lags), "ms")

    # the front→worker hop: the front's proxy exchange minus the worker's
    # handling of the same request, matched by request id
    handling = {
        r[6]: r[5] - r[4]
        for r in pick("serve.request", "window")
        if dumps["roles"][r[0]] == "worker" and r[6] is not None
    }
    hops = [
        (r[5] - r[4] - handling[r[6]]) * 1e6
        for r in pick("serve.control.request", "window")
        if r[6] in handling
    ]
    out["serve.workers.hop_us"] = (_median(hops), "us")
    out["serve.workers.retry_share"] = (
        _share(counters.get("workers.proxy_retries", 0), counters.get("workers.proxied", 0)),
        "fraction",
    )
    return out
