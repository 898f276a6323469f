"""Versioned, refcounted TBox snapshots with atomic hot-swap.

A serving process must be able to load a new TBox without dropping
traffic.  The scheme here is the classic immutable-snapshot swap:

* a :class:`Snapshot` pairs one (frozen) TBox version with its own
  cached :class:`repro.dl.Reasoner` and pre-classified hierarchy; it is
  never mutated after :meth:`Snapshot.prepare`;
* every request *acquires* the current snapshot on admission and
  *releases* it when its response is written, so the answer — including
  every item of a coalesced batch — comes from exactly one TBox version;
* ``POST /v1/tbox`` builds and pre-classifies the successor **off the
  serving path**, persists its text crash-safely
  (:func:`repro.store.atomic_write_text`), then swaps the manager's
  ``current`` pointer.  In-flight requests finish against the old
  version; when the last of them releases, the retired snapshot drops
  its reasoner caches (:meth:`repro.dl.Reasoner.release`) so superseded
  sat/subsumption entries do not stay memory-resident.

A swap has one path (:meth:`Snapshot.prepare` with the predecessor):
the successor's reasoner adopts every sat/subsumption cache entry of
the predecessor's that the edit's change-impact set
(:func:`repro.dl.diff.change_impact`) leaves valid, then classifies
with :meth:`repro.dl.Reasoner.classify` — the saturation fast path on
a Horn/EL TBox, one tableau model per name otherwise, where carried
entries settle known-unsatisfiable names and decided subsumption
tests.  An edit whose axiom set equals the predecessor's carries
the hierarchy itself, so that classification is a cache hit and the
successor keeps the predecessor's hierarchy (``swap_mode ==
"reused"``).

The manager is an **MVCC chain**: at any instant several versions can be
live at once — the current snapshot plus retired predecessors still
pinned by in-flight requests.  :meth:`SnapshotManager.live` enumerates
them for observability, and versions need not be consecutive: when the
serving layer coalesces queued edits, :meth:`SnapshotManager.prepare`
accepts the (edit-log-assigned) version of the newest coalesced edit, so
the published chain can legitimately skip numbers that were logged but
never served.

Counters: ``serve.tbox_swaps``, ``serve.snapshots_retired``,
``serve.snapshots_released``.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from ..dl import ConceptHierarchy, Reasoner, TBox, change_impact
from ..dl.serialize import tbox_to_text
from ..obs import recorder as _obs
from ..store import atomic_write_text

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .editlog import EditRecord


class SnapshotError(Exception):
    """Lifecycle misuse: acquiring a dead snapshot, double-release, ..."""


class Snapshot:
    """One immutable TBox version with its reasoner and hierarchy.

    Refcounting is explicit rather than relying on the garbage
    collector because the point is *promptness*: the test suite asserts
    that a retired version's caches are empty the moment its last
    request finishes, not whenever a collection happens to run.
    """

    def __init__(self, tbox: TBox, version: int, *, max_nodes: int = 2000) -> None:
        self.tbox = tbox
        self.version = version
        self.reasoner = Reasoner(tbox, max_nodes=max_nodes)
        self.hierarchy: Optional[ConceptHierarchy] = None
        #: how this snapshot's hierarchy was obtained: "full" when it was
        #: classified, "reused" when the predecessor's was kept
        self.swap_mode: str = "full"
        #: the edit's change-impact set — every name whose ancestry may
        #: differ from the predecessor's; None without a predecessor or
        #: when no locality argument holds.  The instance store's
        #: refresh uses it to skip untouched told concepts.
        self.reclassify_affected: Optional[frozenset[str]] = None
        self._refs = 0
        self._retired = False
        self._released = False
        self._lock = threading.Lock()

    # -- preparation (off the serving path) ----------------------------- #

    def prepare(self, predecessor: Optional["Snapshot"] = None) -> "Snapshot":
        """Classify off the serving path so serving never pays for it.

        With ``predecessor`` (the version being replaced), first adopt
        its reasoner's cache entries that the edit's change-impact set
        leaves valid; an unchanged axiom set carries the hierarchy too,
        and :attr:`swap_mode` reads ``"reused"``.  Reading the
        predecessor is safe while it serves traffic — its hierarchy is
        immutable, and cache adoption reads one reference to its learned
        state, which forgetting traffic replaces rather than cuts.  Safe
        to call from a worker thread: nothing else references this
        snapshot until the manager swaps it in.
        """
        kept = None
        if predecessor is not None:
            kept = predecessor.hierarchy
            with _obs.trace("snapshot.change_impact"):
                self.reclassify_affected = change_impact(
                    predecessor.tbox, self.tbox
                )
            if self.reclassify_affected is not None:
                self.reasoner.adopt_caches(
                    predecessor.reasoner, invalid=self.reclassify_affected
                )
        self.hierarchy = self.reasoner.classify()
        if self.hierarchy is kept:
            self.swap_mode = "reused"
        return self

    # -- refcounting ----------------------------------------------------- #

    def acquire(self) -> "Snapshot":
        with self._lock:
            if self._released:
                raise SnapshotError(
                    f"snapshot v{self.version} already fully released"
                )
            self._refs += 1
        return self

    def release(self) -> None:
        with self._lock:
            if self._refs <= 0:
                raise SnapshotError(f"snapshot v{self.version} over-released")
            self._refs -= 1
            drop = self._retired and self._refs == 0
            if drop:
                self._released = True
        if drop:
            self._drop_caches()

    def retire(self) -> None:
        """Mark superseded; caches drop once the refcount reaches zero."""
        with self._lock:
            if self._retired:
                return
            self._retired = True
            drop = self._refs == 0
            if drop:
                self._released = True
        _obs.incr("serve.snapshots_retired")
        if drop:
            self._drop_caches()

    def _drop_caches(self) -> None:
        self.reasoner.release()
        self.hierarchy = None
        _obs.incr("serve.snapshots_released")

    # -- inspection ------------------------------------------------------ #

    @property
    def classify_algorithm(self) -> Optional[str]:
        """The classification algorithm behind this version's hierarchy
        ("saturation": read off the Horn/EL saturation, completed by one
        tableau model per name on a non-Horn TBox); None once
        released."""
        return None if self.hierarchy is None else self.hierarchy.algorithm

    @property
    def refs(self) -> int:
        return self._refs

    @property
    def retired(self) -> bool:
        return self._retired

    @property
    def released(self) -> bool:
        return self._released

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "released" if self._released else (
            "retired" if self._retired else "active"
        )
        return f"Snapshot(v{self.version}, refs={self._refs}, {state})"


class SnapshotManager:
    """Owns the ``current`` snapshot pointer and the swap discipline."""

    def __init__(
        self,
        tbox: Optional[TBox] = None,
        *,
        max_nodes: int = 2000,
        store_path: Optional[str | Path] = None,
        initial_version: int = 1,
    ) -> None:
        self._max_nodes = max_nodes
        self._store_path = Path(store_path) if store_path is not None else None
        self._lock = threading.Lock()
        self._current = Snapshot(
            tbox if tbox is not None else TBox(),
            initial_version,
            max_nodes=max_nodes,
        ).prepare()
        #: every snapshot whose caches may still be resident: the current
        #: one plus retired predecessors pinned by in-flight requests
        self._chain: list[Snapshot] = [self._current]

    @property
    def current(self) -> Snapshot:
        return self._current

    @property
    def version(self) -> int:
        return self._current.version

    def acquire(self) -> Snapshot:
        """Acquire the current snapshot for one request.

        The manager lock makes pointer-read + refcount-bump atomic with
        respect to :meth:`swap`, so a request can never acquire a
        snapshot that was already retired with zero refs.
        """
        with self._lock:
            return self._current.acquire()

    def prepare(self, tbox: TBox, *, version: Optional[int] = None) -> Snapshot:
        """Build and pre-classify the successor without swapping it in.

        This is the expensive part; the server runs it in a worker
        thread so the event loop keeps serving from the old version.
        The current snapshot is the predecessor :meth:`Snapshot.prepare`
        carries caches (or the whole hierarchy) from.

        ``version`` defaults to the successor of the current version;
        pass an explicit (larger) one to publish a coalesced edit under
        its edit-log-assigned version.
        """
        predecessor = self._current
        if version is None:
            version = predecessor.version + 1
        elif version <= predecessor.version:
            raise SnapshotError(
                f"cannot prepare v{version} on top of v{predecessor.version}"
            )
        successor = Snapshot(tbox, version, max_nodes=self._max_nodes)
        return successor.prepare(predecessor)

    def fork_clone(self) -> "SnapshotManager":
        """A fresh manager serving this manager's current snapshot.

        Built for the just-forked worker of :mod:`repro.serve.workers`:
        the clone's boot snapshot *shares* the parent's prepared
        hierarchy, reasoner (with its warm caches), and interned tables
        — the whole point of forking after classification, the pages
        stay copy-on-write — but none of the lifecycle state.  The
        clone starts with a clean refcount and a one-element chain, so
        pins held by the parent's in-flight requests at fork time don't
        leak into the child, and ``store_path`` is dropped so N workers
        never race the front for the persisted TBox file.
        """
        current = self._current
        boot = Snapshot(current.tbox, current.version, max_nodes=self._max_nodes)
        # adopt the prepared state instead of re-classifying: Reasoner
        # and ConceptHierarchy are immutable-after-prepare, so sharing
        # them across the fork boundary is exactly the CoW contract
        boot.reasoner = current.reasoner
        boot.hierarchy = current.hierarchy
        boot.swap_mode = current.swap_mode
        clone = SnapshotManager.__new__(SnapshotManager)
        clone._max_nodes = self._max_nodes
        clone._store_path = None
        clone._lock = threading.Lock()
        clone._current = boot
        clone._chain = [boot]
        return clone

    def prepare_delta(self, record: "EditRecord") -> Snapshot:
        """Prepare the successor from a shipped edit record alone.

        The multi-worker path: the front ships each worker the sealed
        record whose delta is — by the front's construction — exactly
        current → ``record.version``, so the worker applies the axiom
        texts to its current TBox and prepares the result like any
        other swap.  The record's version may skip numbers (the front
        coalesces); the caller guarantees the record's base is the
        worker's current version (enforced by the control protocol's
        ``base_version`` check).
        """
        tbox = record.apply(self._current.tbox)
        return self.prepare(tbox, version=record.version)

    def swap(self, prepared: Snapshot) -> Snapshot:
        """Atomically install ``prepared``; retire and return the old one."""
        if prepared.hierarchy is None:
            raise SnapshotError("swap target was not prepared")
        # a stale swap must not overwrite the served TBox's persisted text
        self._reject_stale(prepared)
        if self._store_path is not None:
            atomic_write_text(self._store_path, tbox_to_text(prepared.tbox))
        with self._lock:
            self._reject_stale(prepared)
            old, self._current = self._current, prepared
            self._chain.append(prepared)
        old.retire()
        with self._lock:
            self._chain = [s for s in self._chain if not s.released]
        _obs.incr("serve.tbox_swaps")
        return old

    def _reject_stale(self, prepared: Snapshot) -> None:
        if prepared.version <= self._current.version:
            raise SnapshotError(
                f"stale swap: v{prepared.version} <= current "
                f"v{self._current.version}"
            )

    def live(self) -> list[dict]:
        """The MVCC chain: every version whose caches may be resident.

        Pruned of fully released snapshots on each call; the current
        version is always the last entry.
        """
        with self._lock:
            self._chain = [s for s in self._chain if not s.released]
            return [
                {
                    "version": s.version,
                    "refs": s.refs,
                    "retired": s.retired,
                    "algorithm": s.classify_algorithm,
                }
                for s in self._chain
            ]

    def load_and_swap(self, tbox: TBox) -> Snapshot:
        """Convenience: prepare + swap in one (blocking) call."""
        return self.swap(self.prepare(tbox))
