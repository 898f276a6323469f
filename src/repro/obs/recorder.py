"""Metrics recording: counters, histograms, and trace spans.

The module keeps one *current* recorder.  The default is a
:class:`NullRecorder` whose hot-path cost is a single global load and an
identity check — instrumented code pays (almost) nothing unless a caller
opts in with :func:`use_recorder`.  Hot paths call the module-level
helpers (:func:`incr`, :func:`observe`, :func:`trace`) rather than
holding a recorder, so one ``with use_recorder(...)`` block captures
everything that happens inside it, across every subsystem.

Every timer and every histogram is one mergeable :class:`Histogram`,
so recorders merge (:meth:`Recorder.merge` over :meth:`Recorder.state`)
across runs and processes with lifetime p50/p99 within :data:`ALPHA`.

Counter names are dotted paths grouped by subsystem
(``tableau.expansions``, ``reasoner.sat_cache_hits``,
``store.index_lookups``, ...); see README "Observability" for the full
catalogue.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

__all__ = [
    "ALPHA",
    "Histogram",
    "Recorder",
    "NullRecorder",
    "NULL",
    "get_recorder",
    "set_recorder",
    "use_recorder",
    "incr",
    "observe",
    "record_timing",
    "trace",
]


#: relative accuracy of every reported quantile (DDSketch's α): a
#: bucket's representative lies within ALPHA of each value it counts
ALPHA = 0.01
_GAMMA = (1 + ALPHA) / (1 - ALPHA)
_LOG_GAMMA = math.log(_GAMMA)


class Histogram:
    """A mergeable log-bucketed histogram (DDSketch: Masson, Rim & Lee, 2019).

    Count, total, min and max are exact.  A value v > 0 counts in bucket
    ``k = ⌈log_γ v⌉`` with γ = (1 + ALPHA)/(1 − ALPHA), which spans
    (γ^(k−1), γ^k]; values ≤ 0 count apart.  Bucket counts add exactly,
    so a merged histogram answers every quantile as one fed all the
    values would, whatever the merge order.
    """

    __slots__ = ("count", "total", "min", "max", "zeros", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.zeros = 0  # observations ≤ 0, which have no log bucket
        self.buckets: dict[int, int] = {}

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value > 0:
            key = math.ceil(math.log(value) / _LOG_GAMMA)
            self.buckets[key] = self.buckets.get(key, 0) + 1
        else:
            self.zeros += 1

    def quantile(self, q: float) -> float:
        """The nearest-rank ``q``-quantile, within :data:`ALPHA`.

        The rank is ``round(q·(count − 1))``; its bucket k reports
        2γ^k/(γ + 1) and the values ≤ 0 report 0, clamped to [min, max].
        """
        rank = round(q * (self.count - 1))
        seen = self.zeros
        value = 0.0
        if rank >= seen:
            for key in sorted(self.buckets):
                seen += self.buckets[key]
                if seen > rank:
                    value = 2 * _GAMMA**key / (_GAMMA + 1)
                    break
        return min(max(value, self.min), self.max)

    def summary(self) -> dict[str, float]:
        """A snapshot cell: ``{count, total, min, max, mean, p50, p99}``."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.total / self.count,
            "p50": self.quantile(0.50),
            "p99": self.quantile(0.99),
        }

    def state(self) -> dict[str, Any]:
        """A JSON-ready copy that :meth:`merge` adds back exactly."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "zeros": self.zeros,
            "buckets": sorted(self.buckets.items()),
        }

    def merge(self, state: dict[str, Any]) -> None:
        """Add a :meth:`state` (possibly shipped as JSON) into this one."""
        self.count += state["count"]
        self.total += state["total"]
        self.min = min(self.min, state["min"])
        self.max = max(self.max, state["max"])
        self.zeros += state["zeros"]
        for key, n in state["buckets"]:
            self.buckets[key] = self.buckets.get(key, 0) + n


class Recorder:
    """Accumulates counters, and one :class:`Histogram` per timer and histogram.

    >>> rec = Recorder()
    >>> rec.incr("tableau.expansions")
    >>> rec.incr("tableau.expansions", 2)
    >>> rec.snapshot()["counters"]["tableau.expansions"]
    3
    """

    __slots__ = ("counters", "_timers", "_histograms")

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        # only recording or merging indexes a name, so no cell is empty
        self._timers: defaultdict[str, Histogram] = defaultdict(Histogram)  # seconds
        self._histograms: defaultdict[str, Histogram] = defaultdict(Histogram)

    # -- recording ------------------------------------------------------ #

    def incr(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the counter ``name`` (created at 0)."""
        self.counters[name] = self.counters.get(name, 0) + n

    def observe(self, name: str, value: float) -> None:
        """Record one observation into the histogram ``name``."""
        self._histograms[name].add(value)

    def record_timing(self, name: str, seconds: float) -> None:
        """Record one elapsed span into the timer ``name``."""
        self._timers[name].add(seconds)

    def merge(self, state: dict[str, Any]) -> None:
        """Add another recorder's :meth:`state` into this one.

        Counters and bucket counts add exactly, so merged quantiles do
        not depend on the merge order.  The bench harness merges a
        per-run recorder in process; the multi-worker front merges each
        worker's state shipped over the control channel.
        """
        for name, n in state.get("counters", {}).items():
            self.incr(name, n)
        for section, cells in self._sections():
            for name, cell_state in state.get(section, {}).items():
                cells[name].merge(cell_state)

    # -- reading -------------------------------------------------------- #

    def state(self) -> dict[str, Any]:
        """A JSON-ready copy of everything recorded, buckets included."""
        return self._view(Histogram.state)

    def snapshot(self) -> dict[str, Any]:
        """A JSON-ready summary of everything recorded so far.

        Each timer (in seconds) and histogram is summarized as
        ``{count, total, min, max, mean, p50, p99}``: count, min and max
        are exact, and the quantiles cover the recorder's whole life
        within :data:`ALPHA`.
        """
        return self._view(Histogram.summary)

    def _sections(self) -> tuple[tuple[str, dict[str, Histogram]], ...]:
        return (("timers", self._timers), ("histograms", self._histograms))

    def _view(self, cell_view: Callable[[Histogram], dict[str, Any]]) -> dict[str, Any]:
        # each name list is copied out before its cells are read, so a
        # thread that records a new name meanwhile cannot break the loop
        view: dict[str, Any] = {"counters": dict(sorted(self.counters.items()))}
        for section, cells in self._sections():
            view[section] = {name: cell_view(cells[name]) for name in sorted(cells)}
        return view

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def reset(self) -> None:
        self.counters.clear()
        self._timers.clear()
        self._histograms.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Recorder({len(self.counters)} counters, "
            f"{len(self._timers)} timers, {len(self._histograms)} histograms)"
        )


class NullRecorder(Recorder):
    """The zero-overhead default: every recording method is a no-op.

    The hot-path helpers below skip even the method call when the current
    recorder is the shared :data:`NULL` instance, so disabled
    instrumentation costs one global load and one identity test.
    """

    __slots__ = ()

    def incr(self, name: str, n: int = 1) -> None:  # pragma: no cover - no-op
        pass

    def observe(self, name: str, value: float) -> None:  # pragma: no cover
        pass

    def record_timing(self, name: str, seconds: float) -> None:  # pragma: no cover
        pass

    def merge(self, state: dict[str, Any]) -> None:
        pass


#: the shared disabled recorder; identity-compared on every hot-path call
NULL = NullRecorder()

_current: Recorder = NULL


def get_recorder() -> Recorder:
    """The recorder currently receiving observations (NULL when disabled)."""
    return _current


def set_recorder(recorder: Optional[Recorder]) -> Recorder:
    """Install ``recorder`` as current (``None`` restores the null default)."""
    global _current
    _current = recorder if recorder is not None else NULL
    return _current


@contextmanager
def use_recorder(recorder: Recorder) -> Iterator[Recorder]:
    """Route all observations inside the block to ``recorder``.

    >>> from repro.obs import Recorder, use_recorder, incr
    >>> rec = Recorder()
    >>> with use_recorder(rec):
    ...     incr("demo.events")
    >>> rec.counters["demo.events"]
    1
    """
    global _current
    previous = _current
    _current = recorder
    try:
        yield recorder
    finally:
        _current = previous


# ---------------------------------------------------------------------- #
# hot-path helpers: what instrumented modules actually call
# ---------------------------------------------------------------------- #


def incr(name: str, n: int = 1) -> None:
    """Increment a counter on the current recorder (no-op when disabled)."""
    rec = _current
    if rec is not NULL:
        rec.incr(name, n)


def observe(name: str, value: float) -> None:
    """Record a histogram observation on the current recorder."""
    rec = _current
    if rec is not NULL:
        rec.observe(name, value)


def record_timing(name: str, seconds: float) -> None:
    """Record an externally-measured span on the current recorder."""
    rec = _current
    if rec is not NULL:
        rec.record_timing(name, seconds)


@contextmanager
def trace(name: str) -> Iterator[None]:
    """A timed span recorded under ``name`` (free when disabled)."""
    rec = _current
    if rec is NULL:
        yield
        return
    t0 = time.perf_counter()
    try:
        yield
    finally:
        rec.record_timing(name, time.perf_counter() - t0)
