"""Snapshot lifecycle: refcounts, hot-swap, MVCC chain, cache reclamation.

The cache-reclamation tests encode the leak-fix acceptance: a retired
snapshot's sat/subsumption/hierarchy caches must be dropped the moment
its last in-flight request releases it — not at interpreter shutdown,
not at the next GC cycle.  The MVCC stress tests encode the serving
PR's isolation acceptance: a reader pinned to snapshot N can never
observe a partially reclassified snapshot N+1, no matter how the swap
races it, and a chain of swaps releases each retired version exactly
when its last in-flight request finishes.
"""

import threading
import time

import pytest

from repro.dl import Atomic, Reasoner, parse_tbox
from repro.obs import Recorder, use_recorder
from repro.robust import faults
from repro.serve.snapshot import Snapshot, SnapshotError, SnapshotManager


@pytest.fixture(autouse=True)
def quiet_faults():
    with faults.suspended():
        yield


def vehicles():
    return parse_tbox(
        """
        car [= motorvehicle & some size.small
        pickup [= motorvehicle & some size.big
        motorvehicle [= some uses.gasoline
        """
    )


class TestReasonerRelease:
    def test_release_drops_every_cache(self):
        reasoner = Reasoner(vehicles())
        reasoner.subsumes(Atomic("motorvehicle"), Atomic("car"))
        reasoner.is_satisfiable(Atomic("car"))
        reasoner.classify()
        stats = reasoner.cache_stats()
        assert stats["sat"] > 0 and stats["subs"] > 0 and stats["hierarchy"] > 0
        reasoner.release()
        assert reasoner.cache_stats() == {"sat": 0, "subs": 0, "hierarchy": 0}

    def test_release_keeps_reasoner_usable(self):
        reasoner = Reasoner(vehicles())
        assert reasoner.subsumes(Atomic("motorvehicle"), Atomic("car"))
        reasoner.release()
        assert reasoner.subsumes(Atomic("motorvehicle"), Atomic("car"))

    def test_release_is_counted(self):
        recorder = Recorder()
        reasoner = Reasoner(vehicles())
        with use_recorder(recorder):
            reasoner.release()
        assert recorder.counters["reasoner.releases"] == 1


class TestSnapshotRefcount:
    def test_acquire_release_cycle(self):
        snapshot = Snapshot(vehicles(), 1).prepare()
        snapshot.acquire()
        snapshot.acquire()
        assert snapshot.refs == 2
        snapshot.release()
        snapshot.release()
        assert snapshot.refs == 0
        assert not snapshot.released  # never retired: caches stay hot

    def test_over_release_raises(self):
        snapshot = Snapshot(vehicles(), 1).prepare()
        with pytest.raises(SnapshotError):
            snapshot.release()

    def test_retire_with_no_refs_drops_caches_immediately(self):
        snapshot = Snapshot(vehicles(), 1).prepare()
        assert snapshot.reasoner.cache_stats()["hierarchy"] > 0
        snapshot.retire()
        assert snapshot.released
        assert snapshot.hierarchy is None
        assert snapshot.reasoner.cache_stats() == {
            "sat": 0, "subs": 0, "hierarchy": 0,
        }

    def test_retired_snapshot_waits_for_last_inflight_request(self):
        """The leak-fix acceptance test: caches drop at the LAST release."""
        snapshot = Snapshot(vehicles(), 1).prepare()
        snapshot.acquire()
        snapshot.acquire()
        # populate per-request caches beyond the pre-classification
        snapshot.reasoner.subsumes(Atomic("motorvehicle"), Atomic("pickup"))
        snapshot.retire()
        assert snapshot.retired and not snapshot.released
        # still serving: caches must remain available to in-flight work
        assert snapshot.reasoner.cache_stats()["subs"] > 0
        snapshot.release()
        assert not snapshot.released  # one request still holds it
        assert snapshot.reasoner.cache_stats()["subs"] > 0
        snapshot.release()
        assert snapshot.released
        assert snapshot.reasoner.cache_stats() == {
            "sat": 0, "subs": 0, "hierarchy": 0,
        }

    def test_acquire_after_full_release_raises(self):
        snapshot = Snapshot(vehicles(), 1).prepare()
        snapshot.retire()
        with pytest.raises(SnapshotError):
            snapshot.acquire()

    def test_release_counters(self):
        recorder = Recorder()
        with use_recorder(recorder):
            snapshot = Snapshot(vehicles(), 1).prepare()
            snapshot.acquire()
            snapshot.retire()
            assert "serve.snapshots_released" not in recorder.counters
            snapshot.release()
        assert recorder.counters["serve.snapshots_retired"] == 1
        assert recorder.counters["serve.snapshots_released"] == 1


class TestSnapshotManager:
    def test_boot_snapshot_is_preclassified(self):
        manager = SnapshotManager(vehicles())
        assert manager.version == 1
        assert manager.current.hierarchy is not None
        assert manager.current.hierarchy.complete

    def test_swap_retires_old_and_bumps_version(self):
        manager = SnapshotManager(vehicles())
        old = manager.current
        manager.load_and_swap(parse_tbox("dog [= animal"))
        assert manager.version == 2
        assert old.retired and old.released
        assert manager.current.hierarchy is not None
        assert "dog" in manager.current.tbox.atomic_names()

    def test_swap_waits_for_inflight_acquisitions(self):
        manager = SnapshotManager(vehicles())
        held = manager.acquire()
        manager.load_and_swap(parse_tbox("dog [= animal"))
        assert held.retired and not held.released
        # the in-flight request still answers from the old version
        assert held.hierarchy is not None
        assert held.hierarchy.is_subsumed_by("car", "motorvehicle")
        held.release()
        assert held.released and held.hierarchy is None

    def test_unprepared_swap_rejected(self):
        manager = SnapshotManager(vehicles())
        bare = Snapshot(parse_tbox("dog [= animal"), 2)
        with pytest.raises(SnapshotError):
            manager.swap(bare)

    def test_stale_swap_rejected(self, tmp_path):
        store = tmp_path / "active.tbox"
        manager = SnapshotManager(vehicles(), store_path=store)
        first = manager.prepare(parse_tbox("dog [= animal"))
        second = manager.prepare(parse_tbox("cat [= animal"))
        manager.swap(second)
        with pytest.raises(SnapshotError):
            manager.swap(first)
        # the rejected swap left the served TBox's text in the store
        assert manager.current is second
        assert parse_tbox(store.read_text(encoding="utf-8")).atomic_names() == {
            "cat", "animal",
        }

    def test_swap_persists_tbox_text_crash_safely(self, tmp_path):
        store = tmp_path / "active.tbox"
        manager = SnapshotManager(vehicles(), store_path=store)
        manager.load_and_swap(parse_tbox("dog [= animal"))
        text = store.read_text(encoding="utf-8")
        assert "dog" in text and "animal" in text
        # the persisted text round-trips through the parser
        assert "dog" in parse_tbox(text).atomic_names()


class TestIncrementalSwap:
    """Swaps to an edited TBox: one path, classified with carried caches."""

    def _edited(self):
        return parse_tbox(
            """
            car [= motorvehicle & some size.small
            pickup [= motorvehicle & some size.big
            van [= motorvehicle & some size.big
            motorvehicle [= some uses.gasoline
            """
        )

    def test_incremental_swap_answers_match_full(self):
        manager = SnapshotManager(vehicles())
        manager.load_and_swap(self._edited())
        full = Reasoner(self._edited()).classify()
        got = manager.current.hierarchy
        assert got.groups() == full.groups()
        assert got.group_of == full.group_of
        assert got.poset == full.poset

    def test_unrelated_tbox_falls_back_to_full(self):
        # every old name is removed and every new name added: nothing
        # of the predecessor's survives, the successor is classified
        recorder = Recorder()
        manager = SnapshotManager(vehicles())
        with use_recorder(recorder):
            manager.load_and_swap(parse_tbox("dog [= animal"))
        assert manager.current.swap_mode == "full"
        assert recorder.counters["serve.tbox_swaps"] == 1

    def test_boot_snapshot_is_a_full_swap(self):
        manager = SnapshotManager(vehicles())
        assert manager.current.swap_mode == "full"


def edit_chain():
    """Five TBox versions, each adding one vehicle kind to the last."""
    base = (
        "car [= motorvehicle & some size.small\n"
        "pickup [= motorvehicle & some size.big\n"
        "motorvehicle [= some uses.gasoline\n"
    )
    texts = [base]
    for name in ("van", "bus", "truck", "tractor"):
        texts.append(texts[-1] + f"{name} [= motorvehicle\n")
    return [parse_tbox(text) for text in texts]


class TestMvccChain:
    def test_prepare_accepts_skipped_versions(self):
        """Coalesced publication: the chain may jump v1 -> v4."""
        manager = SnapshotManager(vehicles())
        prepared = manager.prepare(parse_tbox("dog [= animal"), version=4)
        manager.swap(prepared)
        assert manager.version == 4

    def test_prepare_rejects_non_advancing_version(self):
        manager = SnapshotManager(vehicles())
        with pytest.raises(SnapshotError):
            manager.prepare(parse_tbox("dog [= animal"), version=1)

    def test_initial_version_carries_through(self):
        """A recovered server boots at the edit log's version."""
        manager = SnapshotManager(vehicles(), initial_version=7)
        assert manager.version == 7
        manager.load_and_swap(parse_tbox("dog [= animal"))
        assert manager.version == 8

    def test_live_lists_current_and_pinned_versions_only(self):
        chain = edit_chain()
        manager = SnapshotManager(chain[0])
        held = manager.acquire()  # pin v1 across two swaps
        manager.load_and_swap(chain[1])
        middle = manager.current
        manager.load_and_swap(chain[2])
        # v2 was retired with no holders: dropped from the chain at once
        assert middle.released
        assert [entry["version"] for entry in manager.live()] == [1, 3]
        held.release()
        assert [entry["version"] for entry in manager.live()] == [3]

    def test_chained_swaps_release_each_version_at_last_inflight(self):
        """The retirement ordering acceptance: a pinned predecessor keeps
        its caches through any number of successor swaps, and loses them
        at exactly its own last release."""
        chain = edit_chain()
        expected_v1 = Reasoner(chain[0]).classify().groups()
        manager = SnapshotManager(chain[0])
        held = manager.acquire()
        for successor in chain[1:]:
            manager.load_and_swap(successor)
        assert held.retired and not held.released
        # the pinned reader still answers from its own version, complete
        assert held.hierarchy is not None and held.hierarchy.complete
        assert held.hierarchy.groups() == expected_v1
        assert held.reasoner.cache_stats()["hierarchy"] > 0
        held.release()
        assert held.released and held.hierarchy is None
        assert held.reasoner.cache_stats() == {
            "sat": 0, "subs": 0, "hierarchy": 0,
        }


class TestMvccStress:
    """Readers racing a swapper loop over a live snapshot chain."""

    def test_readers_never_observe_partial_reclassification(self):
        chain = edit_chain()
        expected = {
            version: Reasoner(tbox).classify().groups()
            for version, tbox in enumerate(chain, start=1)
        }
        manager = SnapshotManager(chain[0])
        stop = threading.Event()
        violations: list[tuple[int, str]] = []
        observed_versions: set[int] = set()
        lock = threading.Lock()

        def reader() -> None:
            while not stop.is_set():
                snapshot = manager.acquire()
                try:
                    hierarchy = snapshot.hierarchy
                    if hierarchy is None:
                        with lock:
                            violations.append(
                                (snapshot.version, "hierarchy gone while held")
                            )
                        return
                    if not hierarchy.complete:
                        with lock:
                            violations.append(
                                (snapshot.version, "incomplete hierarchy served")
                            )
                        return
                    groups = hierarchy.groups()
                    if groups != expected[snapshot.version]:
                        with lock:
                            violations.append(
                                (snapshot.version, "groups of another version")
                            )
                        return
                    with lock:
                        observed_versions.add(snapshot.version)
                finally:
                    snapshot.release()

        readers = [threading.Thread(target=reader) for _ in range(6)]
        for thread in readers:
            thread.start()
        try:
            for successor in chain[1:]:
                # prepare+swap while readers hammer acquire/release; the
                # pause keeps every version on the serving path long
                # enough for readers to actually land on it
                manager.load_and_swap(successor)
                time.sleep(0.02)
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=30)
        assert not violations, violations[:5]
        # the stress actually spanned the chain, first and last included
        assert {1, len(chain)} <= observed_versions
        # once the dust settles nothing holds the final snapshot
        assert manager.current.refs == 0
        assert manager.current.hierarchy is not None
