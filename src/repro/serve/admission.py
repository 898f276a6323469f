"""Admission control: bounded concurrency and budget-sliced requests.

The server must degrade *before* it wedges.  Admission applies two
limits and one allowance:

* ``soft_limit`` — requests in flight beyond this are refused with
  **429 Too Many Requests** and a ``Retry-After`` hint of
  ``retry_after_s`` (50 ms by default: the client's work is cheap to
  retry; the server is merely momentarily full);
* ``hard_limit`` — beyond this (or while draining for shutdown) the
  refusal escalates to **503 Service Unavailable**: the server is
  shedding load, not queueing it;
* a server-wide **node/ms allowance** divided into per-request
  :class:`repro.robust.Budget` ledgers: ``node_allowance`` completion
  -graph nodes split across ``soft_limit`` concurrent slots, and an
  optional per-request wall-clock deadline.  A query that exhausts its
  slice returns an ``UNKNOWN`` verdict (HTTP 206) instead of stalling
  the event loop.

Replication adds a **write-refusal policy** orthogonal to load: a
follower (or a fenced ex-primary) keeps admitting reads but refuses
``write=True`` admissions with 503 and the current primary's location
(:meth:`AdmissionController.refuse_writes`); promotion lifts the
refusal (:meth:`~AdmissionController.allow_writes`).

Counters: ``serve.admitted``, ``serve.rejected_busy`` (429),
``serve.rejected_overloaded`` (503), ``repl.fenced_writes`` /
``serve.rejected_writes`` (refused writes on a fenced / follower
server); the in-flight high-water mark is observed into the
``serve.inflight`` histogram.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

from ..obs import recorder as _obs
from ..robust import Budget


@dataclass(frozen=True)
class WorkerShare:
    """One worker's slice of the server-wide admission allowance."""

    soft_limit: int
    hard_limit: int
    node_allowance: Optional[int]


def slice_allowance(
    *,
    soft_limit: int,
    hard_limit: int,
    node_allowance: Optional[int],
    workers: int,
) -> list[WorkerShare]:
    """Split the server-wide admission allowance across ``workers``.

    The invariants the multi-worker mode depends on (property-tested in
    ``tests/serve/test_workers.py``):

    * per-worker soft limits sum to exactly
      ``max(soft_limit, workers)`` — the global concurrency cap, except
      that every worker gets at least one slot;
    * per-worker node allowances sum to **≤** the server-wide
      ``node_allowance``;
    * whenever ``workers <= soft_limit``, each worker's *per-request*
      budget slice (``share.node_allowance // share.soft_limit``) equals
      the single-process slice (``node_allowance // soft_limit``), so a
      query's resource envelope — and thus its PROVED/UNKNOWN verdict —
      is identical at N=1 and N>1.

    The 429/503 thresholds themselves are *not* sliced: the front
    process admits against the unchanged server-wide limits before
    routing, so clients see identical threshold behavior at any N; the
    per-worker shares are a backstop against one worker absorbing the
    whole allowance if routing ever skews.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if soft_limit < 1:
        raise ValueError(f"soft_limit must be >= 1, got {soft_limit}")
    if hard_limit < soft_limit:
        raise ValueError(f"hard_limit {hard_limit} < soft_limit {soft_limit}")
    softs = [max(1, n) for n in _split_even(soft_limit, workers)]
    hards = [max(1, n) for n in _split_even(hard_limit, workers)]
    total_soft = sum(softs)
    per_slot = (
        None if node_allowance is None else node_allowance // max(1, total_soft)
    )
    return [
        WorkerShare(
            soft_limit=soft,
            hard_limit=max(soft, hard),
            node_allowance=None if per_slot is None else per_slot * soft,
        )
        for soft, hard in zip(softs, hards)
    ]


def _split_even(total: int, parts: int) -> list[int]:
    """``total`` split into ``parts`` integers differing by at most 1."""
    base, remainder = divmod(total, parts)
    return [base + 1] * remainder + [base] * (parts - remainder)


class AdmissionError(Exception):
    """Raised by :meth:`AdmissionController.admit` when a request is refused."""

    def __init__(
        self,
        status: int,
        message: str,
        retry_after_s: float,
        *,
        location: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after_s = retry_after_s
        #: where the refused work should go instead (the primary's URL
        #: when a follower or fenced server refuses a write)
        self.location = location


@dataclass
class Ticket:
    """One admitted request: its budget and the controller to return to."""

    budget: Budget
    _controller: "AdmissionController"
    _done: bool = False

    def finish(self) -> None:
        if not self._done:
            self._done = True
            self._controller._leave()


class AdmissionController:
    """Caps concurrent reasoning work and slices the resource allowance."""

    def __init__(
        self,
        *,
        soft_limit: int = 64,
        hard_limit: int = 256,
        node_allowance: Optional[int] = 250_000,
        ms_allowance: Optional[float] = None,
        retry_after_s: float = 0.05,
    ) -> None:
        if soft_limit < 1:
            raise ValueError(f"soft_limit must be >= 1, got {soft_limit}")
        if hard_limit < soft_limit:
            raise ValueError(
                f"hard_limit {hard_limit} < soft_limit {soft_limit}"
            )
        self.soft_limit = soft_limit
        self.hard_limit = hard_limit
        self.node_allowance = node_allowance
        self.ms_allowance = ms_allowance
        self.retry_after_s = retry_after_s
        self._inflight = 0
        self._draining = False
        #: (reason, primary location) while writes are refused, else None
        self._writes_refused: Optional[tuple[str, Optional[str]]] = None
        self._lock = threading.Lock()

    # -- the per-request budget slice ------------------------------------ #

    def request_budget(self) -> Budget:
        """A fresh ledger holding this request's slice of the allowance."""
        max_nodes = (
            None
            if self.node_allowance is None
            else max(1, self.node_allowance // self.soft_limit)
        )
        return Budget(max_nodes=max_nodes, max_ms=self.ms_allowance)

    # -- admission ------------------------------------------------------- #

    def admit(self, *, write: bool = False) -> Ticket:
        """Admit one request or raise :class:`AdmissionError` (429/503).

        ``write=True`` marks a state-mutating request, which the
        write-refusal policy (follower mode, fencing) may turn away even
        while reads keep flowing.
        """
        with self._lock:
            if write and self._writes_refused is not None:
                reason, location = self._writes_refused
                _obs.incr(
                    "repl.fenced_writes"
                    if reason == "fenced"
                    else "serve.rejected_writes"
                )
                where = f"; writes go to {location}" if location else ""
                raise AdmissionError(
                    503,
                    f"read-only: this server is {reason}{where}",
                    self.retry_after_s * 4,
                    location=location,
                )
            if self._draining:
                _obs.incr("serve.rejected_overloaded")
                raise AdmissionError(
                    503, "draining for shutdown", self.retry_after_s * 4
                )
            if self._inflight >= self.hard_limit:
                _obs.incr("serve.rejected_overloaded")
                raise AdmissionError(
                    503,
                    f"overloaded: {self._inflight} in flight >= "
                    f"hard limit {self.hard_limit}",
                    self.retry_after_s * 4,
                )
            if self._inflight >= self.soft_limit:
                _obs.incr("serve.rejected_busy")
                raise AdmissionError(
                    429,
                    f"busy: {self._inflight} in flight >= "
                    f"soft limit {self.soft_limit}",
                    self.retry_after_s,
                )
            self._inflight += 1
            inflight = self._inflight
        _obs.incr("serve.admitted")
        _obs.observe("serve.inflight", float(inflight))
        return Ticket(self.request_budget(), self)

    def _leave(self) -> None:
        with self._lock:
            self._inflight -= 1

    # -- lifecycle / inspection ------------------------------------------ #

    def drain(self) -> None:
        """Refuse all further admissions (503) while shutting down."""
        with self._lock:
            self._draining = True

    def refuse_writes(self, reason: str, location: Optional[str] = None) -> None:
        """Refuse ``write=True`` admissions with 503 + ``location``.

        ``reason`` is ``"a follower"`` / ``"fenced"`` — it is spliced
        into the refusal message and picks the rejection counter.
        """
        with self._lock:
            self._writes_refused = (reason, location)

    def allow_writes(self) -> None:
        """Lift the write refusal (promotion to primary)."""
        with self._lock:
            self._writes_refused = None

    @property
    def writes_refused(self) -> bool:
        return self._writes_refused is not None

    @property
    def inflight(self) -> int:
        return self._inflight

    @property
    def draining(self) -> bool:
        return self._draining
