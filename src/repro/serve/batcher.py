"""Request batching: coalesce concurrent checks into one reasoner pass.

Concurrent ``/v1/subsumes`` and ``/v1/satisfiable`` requests are not
independent work: over one TBox snapshot they share a classified
hierarchy, a sat cache, and a subsumption cache.  The batcher holds each
check for a short window (``window_ms``, 3 ms by default, flushed early
at ``max_batch``) and answers the whole batch from one pass over the
shared snapshot:

* **named** questions — both operands atomic names of the snapshot's
  TBox — are answered straight from the pre-classified hierarchy
  (``poset.leq``, zero tableau work): counted in ``serve.batched_hits``;
* duplicate questions inside one batch run once and fan the answer out
  (``serve.dedup_hits``);
* everything else runs governed under the request's budget against the
  snapshot's cached reasoner, whose sat cache is cross-seeded by failed
  subsumption tests exactly as in the one-shot CLI path — so even the
  complex-concept stragglers of a batch help each other.

A batch never mixes snapshot versions: items are grouped by the snapshot
their request acquired at admission, so answers during a hot-swap are
consistent per request (``serve.batch_splits`` counts split flushes).

The window is what paces a closed loop of a few connections.  Flushed
on the next loop tick instead, two connections were paced by the CPU,
and on a shared host two runs of the same code a minute apart served
4,150 and 5,976 named checks per second; held 3 ms, four runs served
523-527.  A 2 ms window still let complex concepts' throughput spread
by a tenth over four runs (EXPERIMENTS.md, "A 3 ms batch window").

Counters/histograms: ``serve.batches``, ``serve.batch_size`` (histogram),
``serve.batched_hits``, ``serve.dedup_hits``, ``serve.batch_splits``,
``serve.batch_wait_ms`` (histogram).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Optional

from ..dl.hierarchy import BOTTOM_NAME
from ..dl.syntax import Atomic, Concept
from ..obs import recorder as _obs
from ..robust import Budget, Verdict
from .snapshot import Snapshot

#: the two batchable kinds; every other endpoint runs unbatched
KIND_SUBSUMES = "subsumes"
KIND_SATISFIABLE = "satisfiable"


@dataclass
class _Item:
    kind: str
    concepts: tuple[Concept, ...]
    snapshot: Snapshot
    budget: Budget
    future: asyncio.Future
    enqueued_at: float = field(default_factory=time.perf_counter)

    @property
    def key(self) -> tuple:
        return (self.kind, self.snapshot.version, self.concepts)


@dataclass(frozen=True)
class BatchAnswer:
    """One resolved check: the verdict plus where the answer came from."""

    verdict: Verdict
    source: str  # "hierarchy" | "tableau"


class Batcher:
    """Time/size-windowed coalescing of subsumption/satisfiability checks."""

    def __init__(self, *, window_ms: float = 3.0, max_batch: int = 64) -> None:
        if window_ms < 0:
            raise ValueError(f"window_ms must be >= 0, got {window_ms}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.window_ms = window_ms
        self.max_batch = max_batch
        self._pending: list[_Item] = []
        self._timer: Optional[asyncio.TimerHandle] = None

    # -- submission ------------------------------------------------------ #

    async def submit(
        self,
        kind: str,
        snapshot: Snapshot,
        concepts: tuple[Concept, ...],
        budget: Budget,
    ) -> BatchAnswer:
        """Enqueue one check; resolves when its batch is flushed."""
        if kind not in (KIND_SUBSUMES, KIND_SATISFIABLE):
            raise ValueError(f"unbatchable kind {kind!r}")
        loop = asyncio.get_running_loop()
        item = _Item(kind, concepts, snapshot, budget, loop.create_future())
        self._pending.append(item)
        if len(self._pending) >= self.max_batch:
            self._flush()
        elif self._timer is None:
            self._timer = loop.call_later(self.window_ms / 1000.0, self._flush)
        return await item.future

    def flush_now(self) -> None:
        """Flush whatever is pending (used at drain/shutdown)."""
        self._flush()

    @property
    def pending(self) -> int:
        return len(self._pending)

    # -- execution ------------------------------------------------------- #

    def _flush(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        _obs.incr("serve.batches")
        _obs.observe("serve.batch_size", float(len(batch)))
        now = time.perf_counter()
        for item in batch:
            _obs.observe("serve.batch_wait_ms", (now - item.enqueued_at) * 1000.0)

        # one snapshot version per execution group: a flush that straddles
        # a hot-swap answers each request from the version it acquired
        groups: dict[int, list[_Item]] = {}
        for item in batch:
            groups.setdefault(item.snapshot.version, []).append(item)
        if len(groups) > 1:
            _obs.incr("serve.batch_splits")
        for group in groups.values():
            self._execute_group(group)

    def _execute_group(self, group: list[_Item]) -> None:
        by_key: dict[tuple, list[_Item]] = {}
        for item in group:
            by_key.setdefault(item.key, []).append(item)
        for items in by_key.values():
            first = items[0]
            _obs.incr("serve.dedup_hits", len(items) - 1)
            try:
                answer = self._answer(first)
            except Exception as exc:  # pragma: no cover - defensive
                for item in items:
                    if not item.future.done():
                        item.future.set_exception(exc)
                continue
            for item in items:
                if not item.future.done():
                    item.future.set_result(answer)

    def _answer(self, item: _Item) -> BatchAnswer:
        snapshot, reasoner = item.snapshot, item.snapshot.reasoner
        hierarchy = snapshot.hierarchy
        names = _atomic_names(item.concepts)
        if (
            hierarchy is not None
            and hierarchy.complete
            and names is not None
            and all(n in hierarchy.group_of for n in names)
        ):
            _obs.incr("serve.batched_hits")
            if item.kind == KIND_SUBSUMES:
                general, specific = names
                answer = hierarchy.is_subsumed_by(specific, general)
            else:
                (name,) = names
                answer = hierarchy.group_of[name] != BOTTOM_NAME
            return BatchAnswer(Verdict.from_bool(answer), "hierarchy")

        if item.kind == KIND_SUBSUMES:
            general, specific = item.concepts
            verdict = reasoner.subsumes_governed(general, specific, item.budget)
        else:
            (concept,) = item.concepts
            verdict = reasoner.is_satisfiable_governed(concept, item.budget)
        return BatchAnswer(verdict, "tableau")


def _atomic_names(concepts: tuple[Concept, ...]) -> Optional[tuple[str, ...]]:
    """The operand names when every operand is atomic, else ``None``."""
    names = []
    for concept in concepts:
        if not isinstance(concept, Atomic):
            return None
        names.append(concept.name)
    return tuple(names)
