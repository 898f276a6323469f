"""Multi-worker serving: allowance slicing, delta shipping, the pool.

Three layers, cheapest first:

* **property tests** (Hypothesis) over :func:`slice_allowance` — the
  ISSUE's admission invariants: per-worker shares sum to at most the
  server-wide node/ms allowance, soft limits sum to the global
  concurrency cap, and the per-request budget slice (hence every
  429/503 threshold and PROVED/UNKNOWN verdict) is identical at N=1
  and N>1;
* **unit tests** over the swap-shipping pieces: ``EditRecord.from_diff``
  / ``apply`` round-trips, ``SnapshotManager.prepare_delta`` (stale
  records rejected), ``fork_clone`` sharing the classified hierarchy,
  and ``Recorder.merge`` over wire-shipped ``Recorder.state`` dicts;
* **end-to-end tests** that boot ``python -m repro serve --workers N``
  as a real child process and exercise routing, the aggregated
  ``/v1/metrics``, hot-swap propagation with bounded version skew, and
  worker-death restart.
"""

import json
import os
import signal
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dl import parse_tbox
from repro.dl.diff import axiom_diff
from repro.obs import ALPHA, Recorder
from repro.serve import (
    EditRecord,
    ServeConfig,
    ServeProcess,
    SnapshotError,
    SnapshotManager,
    WorkerShare,
    slice_allowance,
)
from repro.serve.workers import WorkerSupervisor

VEHICLES = """
car [= motorvehicle & some size.small
pickup [= motorvehicle & some size.big
motorvehicle [= some uses.gasoline
"""

VEHICLES_V2 = VEHICLES + "\nvan [= motorvehicle & some size.big\n"


# --------------------------------------------------------------------------- #
# slice_allowance properties (the admission-parity contract)
# --------------------------------------------------------------------------- #

slice_inputs = {
    "soft_limit": st.integers(min_value=1, max_value=256),
    "extra_hard": st.integers(min_value=0, max_value=256),
    "node_allowance": st.one_of(
        st.none(), st.integers(min_value=0, max_value=10_000_000)
    ),
    "workers": st.integers(min_value=1, max_value=64),
}


class TestSliceAllowance:
    @settings(max_examples=200, deadline=None)
    @given(**slice_inputs)
    def test_shares_never_exceed_server_wide_allowance(
        self, soft_limit, extra_hard, node_allowance, workers
    ):
        shares = slice_allowance(
            soft_limit=soft_limit,
            hard_limit=soft_limit + extra_hard,
            node_allowance=node_allowance,
            workers=workers,
        )
        assert len(shares) == workers
        if node_allowance is None:
            assert all(s.node_allowance is None for s in shares)
        else:
            assert sum(s.node_allowance for s in shares) <= node_allowance

    @settings(max_examples=200, deadline=None)
    @given(**slice_inputs)
    def test_soft_limits_cover_the_global_cap(
        self, soft_limit, extra_hard, node_allowance, workers
    ):
        shares = slice_allowance(
            soft_limit=soft_limit,
            hard_limit=soft_limit + extra_hard,
            node_allowance=node_allowance,
            workers=workers,
        )
        # every worker can take at least one request, and the pool-wide
        # concurrency bound is the global soft limit (or one per worker
        # when there are more workers than slots)
        assert all(s.soft_limit >= 1 for s in shares)
        assert sum(s.soft_limit for s in shares) == max(soft_limit, workers)
        assert all(s.soft_limit <= s.hard_limit for s in shares)

    @settings(max_examples=200, deadline=None)
    @given(**slice_inputs)
    def test_per_request_slice_matches_single_process(
        self, soft_limit, extra_hard, node_allowance, workers
    ):
        """The N=1 vs N>1 verdict-parity invariant.

        Whenever workers fit inside the soft limit, each worker's
        per-request budget slice equals the single-process slice — so a
        query admitted under ``--workers N`` gets the same node/ms
        envelope (and the same 429/503 thresholds, which are enforced
        unsliced at the front) as under ``--workers 0``.
        """
        if workers > soft_limit or node_allowance is None:
            return
        shares = slice_allowance(
            soft_limit=soft_limit,
            hard_limit=soft_limit + extra_hard,
            node_allowance=node_allowance,
            workers=workers,
        )
        single = node_allowance // soft_limit
        for share in shares:
            assert share.node_allowance // share.soft_limit == single

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            slice_allowance(
                soft_limit=4, hard_limit=8, node_allowance=None, workers=0
            )
        with pytest.raises(ValueError):
            slice_allowance(
                soft_limit=0, hard_limit=8, node_allowance=None, workers=1
            )
        with pytest.raises(ValueError):
            slice_allowance(
                soft_limit=8, hard_limit=4, node_allowance=None, workers=1
            )

    def test_exact_example(self):
        shares = slice_allowance(
            soft_limit=5, hard_limit=9, node_allowance=1000, workers=2
        )
        assert shares == [
            WorkerShare(soft_limit=3, hard_limit=5, node_allowance=600),
            WorkerShare(soft_limit=2, hard_limit=4, node_allowance=400),
        ]


class TestThresholdParity:
    def test_worker_configs_keep_global_admission_thresholds(self):
        """Parity by construction: the 429/503 thresholds and the
        per-request budget slice a worker enforces are the *global*
        ones, regardless of N — the sliced shares only bound routing."""
        config = ServeConfig(
            port=0, workers=3, soft_limit=8, hard_limit=32, node_allowance=9000
        )

        class _FrontStub:
            pass

        supervisor = WorkerSupervisor(_FrontStub(), config)
        try:
            assert len(supervisor.handles) == 3
            for handle in supervisor.handles:
                worker_config = handle.config
                assert worker_config.soft_limit == config.soft_limit
                assert worker_config.hard_limit == config.hard_limit
                assert worker_config.node_allowance == config.node_allowance
                # and no worker runs its own pool / log / replication
                assert worker_config.workers == 0
                assert worker_config.edit_log is None
                assert worker_config.follow is None
            assert sum(
                h.share.soft_limit for h in supervisor.handles
            ) == config.soft_limit
        finally:
            if supervisor._dir_obj is not None:
                supervisor._dir_obj.cleanup()


# --------------------------------------------------------------------------- #
# swap shipping units
# --------------------------------------------------------------------------- #


class TestEditRecordShipping:
    def test_from_diff_apply_round_trip(self):
        old = parse_tbox(VEHICLES)
        new = parse_tbox(VEHICLES_V2)
        record = EditRecord.from_diff(2, axiom_diff(old, new))
        assert record.version == 2
        assert record.added and not record.removed
        applied = record.apply(old)
        assert frozenset(applied.axioms) == frozenset(new.axioms)

    def test_from_diff_survives_json_round_trip(self):
        old = parse_tbox(VEHICLES)
        new = parse_tbox("car [= motorvehicle")
        record = EditRecord.from_diff(2, axiom_diff(old, new))
        back = EditRecord.from_json(json.loads(json.dumps(record.to_json())))
        assert back == record
        assert frozenset(back.apply(old).axioms) == frozenset(new.axioms)

    def test_prepare_delta_applies_the_record(self):
        manager = SnapshotManager(parse_tbox(VEHICLES))
        record = EditRecord.from_diff(
            2, axiom_diff(parse_tbox(VEHICLES), parse_tbox(VEHICLES_V2))
        )
        prepared = manager.prepare_delta(record)
        assert prepared.version == 2
        assert frozenset(prepared.tbox.axioms) == frozenset(
            parse_tbox(VEHICLES_V2).axioms
        )
        manager.swap(prepared)
        assert manager.current.hierarchy.is_subsumed_by("van", "motorvehicle")

    def test_prepare_delta_rejects_stale_record(self):
        manager = SnapshotManager(parse_tbox(VEHICLES))
        stale = EditRecord.from_diff(
            1, axiom_diff(parse_tbox(VEHICLES), parse_tbox(VEHICLES_V2))
        )
        with pytest.raises(SnapshotError):
            manager.prepare_delta(stale)

    def test_fork_clone_shares_classified_state(self):
        manager = SnapshotManager(parse_tbox(VEHICLES))
        snapshot = manager.current
        clone = manager.fork_clone()
        assert clone.version == manager.version
        # the CoW point: the clone's boot snapshot reuses the parent's
        # classified hierarchy and reasoner objects, not copies
        assert clone.current.hierarchy is snapshot.hierarchy
        assert clone.current.reasoner is snapshot.reasoner
        # and stays independently swappable
        record = EditRecord.from_diff(
            2, axiom_diff(parse_tbox(VEHICLES), parse_tbox(VEHICLES_V2))
        )
        clone.swap(clone.prepare_delta(record))
        assert clone.version == 2
        assert manager.version == 1


class TestRecorderMerge:
    def test_merge_folds_counters_timers_and_histograms(self):
        worker = Recorder()
        worker.incr("serve.requests", 3)
        worker.observe("serve.latency_ms", 5.0)
        worker.observe("serve.latency_ms", 7.0)
        worker.record_timing("tableau.solve", 0.25)
        worker.observe("repl.lag_records", 0.0)  # values ≤ 0 count apart
        wire = json.loads(json.dumps(worker.state()))

        merged = Recorder()
        merged.incr("serve.requests", 1)
        merged.observe("serve.latency_ms", 100.0)
        merged.record_timing("tableau.solve", 0.5)
        merged.merge(wire)

        snap = merged.snapshot()
        assert snap["counters"]["serve.requests"] == 4
        hist = snap["histograms"]["serve.latency_ms"]
        assert hist["count"] == 3
        assert hist["min"] == 5.0 and hist["max"] == 100.0
        # pool-wide percentiles come from the merged buckets: the
        # worker's 5/7ms observations must survive the wire round-trip
        assert hist["p50"] == pytest.approx(7.0, rel=ALPHA)
        assert hist["p99"] == pytest.approx(100.0, rel=ALPHA)
        timer = snap["timers"]["tableau.solve"]
        assert (timer["count"], timer["total"]) == (2, 0.75)
        assert snap["histograms"]["repl.lag_records"]["p99"] == 0.0

    def test_merge_tolerates_missing_sections(self):
        merged = Recorder()
        merged.merge({})
        merged.merge({"counters": {"x": 2}})
        assert merged.snapshot()["counters"]["x"] == 2


# --------------------------------------------------------------------------- #
# end-to-end: a real --workers N child process
# --------------------------------------------------------------------------- #


def _tbox_file(directory: str, text: str) -> str:
    path = os.path.join(directory, "boot.tbox")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def _wait_for(predicate, what: str, timeout_s: float = 20.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.05)
    raise AssertionError(f"timed out waiting for {what}")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="fork-only test")
class TestMultiWorkerEndToEnd:
    def test_fork_pool_routes_swaps_and_restarts(self):
        with tempfile.TemporaryDirectory() as work_dir:
            boot = _tbox_file(work_dir, VEHICLES)
            server = ServeProcess(
                ["--tbox", boot, "--workers", "2"], startup_timeout_s=120.0
            ).start()
            try:
                # ---- routing: queries answered through the pool ------- #
                status, body = server.request(
                    "POST",
                    "/v1/subsumes",
                    {"general": "motorvehicle", "specific": "car"},
                )
                assert (status, body["answer"]) == (200, True)
                assert body["tbox_version"] == 1

                status, health = server.request("GET", "/v1/health")
                assert status == 200
                block = health["workers"]
                assert block["count"] == 2
                assert block["up"] == 2
                assert block["max_version_skew"] == 0
                # each worker booted at the front's published version
                assert {w["version"] for w in block["workers"]} == {1}

                # ---- hot swap: shipped once, applied by every worker -- #
                status, body = server.request(
                    "POST", "/v1/tbox", {"tbox": VEHICLES_V2}
                )
                assert (status, body["swap_status"]) == (200, "applied")
                assert body["tbox_version"] == 2
                # the swap ack implies propagation: skew stays bounded
                status, health = server.request("GET", "/v1/health")
                assert health["workers"]["max_version_skew"] <= 1
                _wait_for(
                    lambda: server.request("GET", "/v1/health")[1]["workers"][
                        "max_version_skew"
                    ]
                    == 0,
                    "swap propagation to every worker",
                )
                status, body = server.request(
                    "POST",
                    "/v1/subsumes",
                    {"general": "motorvehicle", "specific": "van"},
                )
                assert (status, body["answer"]) == (200, True)
                assert body["tbox_version"] == 2

                # ---- metrics: merged across the pool ------------------ #
                status, metrics = server.request("GET", "/v1/metrics")
                assert status == 200
                counters = metrics["metrics"]["counters"]
                assert counters.get("workers.proxied", 0) >= 2
                # the front and both workers each swapped once: the
                # merge folds every worker's recorder into the front's
                assert counters.get("serve.tbox_swaps", 0) >= 3
                assert metrics["serve"]["workers"]["count"] == 2

                # ---- worker death: restarted, no failed request ------- #
                victim_pid = health["workers"]["workers"][0]["pid"]
                os.kill(victim_pid, signal.SIGKILL)
                status, body = server.request(
                    "POST",
                    "/v1/subsumes",
                    {"general": "motorvehicle", "specific": "van"},
                )
                assert (status, body["answer"]) == (200, True)
                restarted = _wait_for(
                    lambda: (
                        lambda b: b["up"] == 2
                        and b["restarts"] >= 1
                        and b["max_version_skew"] == 0
                    )(server.request("GET", "/v1/health")[1]["workers"]),
                    "worker restart",
                )
                assert restarted
                status, health = server.request("GET", "/v1/health")
                pids = {w["pid"] for w in health["workers"]["workers"]}
                assert victim_pid not in pids
            finally:
                server.kill()
