"""Warm-standby replication: shipping, fencing, promotion, failover.

The acceptance tests for the replication PR:

* **the catch-up equivalence property** (Hypothesis): a follower that
  pulls the primary's sealed records through the ``repl-drop`` /
  ``repl-dup`` / ``repl-truncate`` fault gate — with compaction racing
  the stream and a follower crash-restart mid-apply — ends at exactly
  the TBox (and hierarchy) of the primary's uninterrupted run;
* **split-brain safety** end-to-end over real sockets: a follower
  refuses writes with 503 + the primary's location, promotion bumps a
  durable fencing epoch, a stale fence is refused with 409, and a
  fenced server stays read-only across a restart and cannot
  self-promote.
"""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpora.generators import random_tbox, random_tbox_edit
from repro.dl import Reasoner, parse_tbox
from repro.obs import Recorder, use_recorder
from repro.robust import faults
from repro.serve import ServeConfig, ServerThread
from repro.serve.editlog import EditLog, EditLogError, EditRecord
from repro.serve.replication import (
    EpochStore,
    FollowerChannel,
    ReplicationError,
    apply_shipped,
    deliver_batches,
    parse_url,
)


@pytest.fixture(autouse=True)
def quiet_faults():
    with faults.suspended():
        yield


def vehicles_text():
    return "car [= motorvehicle\npickup [= motorvehicle\n"


def _hierarchy_key(tbox):
    hierarchy = Reasoner(tbox).classify()
    return hierarchy.groups(), hierarchy.poset


def _wait_until(predicate, timeout_s=15.0, interval_s=0.02):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return False


# --------------------------------------------------------------------------- #
# fencing epochs
# --------------------------------------------------------------------------- #


class TestEpochStore:
    def test_fresh_store_persists_epoch_one(self, tmp_path):
        store = EpochStore(tmp_path)
        assert (store.epoch, store.role, store.fenced) == (1, "primary", False)
        assert (tmp_path / "epoch.json").exists()
        reloaded = EpochStore(tmp_path)
        assert reloaded.as_dict() == store.as_dict()

    def test_promote_bumps_and_persists(self, tmp_path):
        store = EpochStore(tmp_path)
        store.set_role("follower", primary_url="http://127.0.0.1:1")
        assert store.promote() == 2
        reloaded = EpochStore(tmp_path)
        assert reloaded.epoch == 2
        assert reloaded.role == "primary"
        assert reloaded.fenced is False
        assert reloaded.primary_url is None

    def test_fence_accepts_higher_epoch_and_survives_restart(self, tmp_path):
        store = EpochStore(tmp_path)
        assert store.fence(3, "http://127.0.0.1:9") is True
        reloaded = EpochStore(tmp_path)
        assert reloaded.fenced is True
        assert reloaded.fenced_by == 3
        assert reloaded.epoch == 3
        assert reloaded.primary_url == "http://127.0.0.1:9"

    def test_stale_fence_is_refused_and_not_persisted(self, tmp_path):
        store = EpochStore(tmp_path)
        store.promote()  # epoch 2
        assert store.fence(2) is False
        assert store.fence(1) is False
        assert EpochStore(tmp_path).fenced is False

    def test_observe_tracks_highest_seen(self, tmp_path):
        store = EpochStore(tmp_path)
        store.observe(5)
        store.observe(3)  # lower: ignored
        assert store.epoch == 5
        assert EpochStore(tmp_path).epoch == 5
        # a later promotion must clear any epoch the follower saw
        assert store.promote() == 6

    def test_memory_only_store_has_the_semantics(self):
        store = EpochStore(None)
        assert store.promote() == 2
        assert store.fence(5) is True
        assert store.fenced_by == 5

    def test_corrupt_epoch_file_is_rejected(self, tmp_path):
        (tmp_path / "epoch.json").write_text("not json", encoding="utf-8")
        with pytest.raises(ReplicationError, match="corrupt epoch"):
            EpochStore(tmp_path)


class TestParseUrl:
    def test_accepted_shapes(self):
        assert parse_url("http://10.0.0.2:8080") == ("10.0.0.2", 8080)
        assert parse_url("localhost:9/") == ("localhost", 9)
        assert parse_url("https://h:1") == ("h", 1)

    def test_rejected_shapes(self):
        for bad in ("http://nohost", "onlyhost", "h:notaport"):
            with pytest.raises(ReplicationError, match="unusable primary URL"):
                parse_url(bad)


# --------------------------------------------------------------------------- #
# the fault gate and the apply path
# --------------------------------------------------------------------------- #


def _records(*versions):
    return [EditRecord(version=v, added=(f"c{v} [= d",), removed=()) for v in versions]


class TestDeliverBatches:
    def test_unarmed_is_identity(self):
        records = _records(2, 3)
        assert deliver_batches(records) == [records]
        assert deliver_batches([]) == []

    def test_drop_loses_the_batch(self):
        recorder = Recorder()
        with use_recorder(recorder):
            with faults.use_faults(faults.FaultPlan.always("repl-drop")):
                assert deliver_batches(_records(2, 3)) == []
        assert recorder.counters["repl.batches_dropped"] == 1

    def test_dup_delivers_twice(self):
        recorder = Recorder()
        records = _records(2, 3)
        with use_recorder(recorder):
            with faults.use_faults(faults.FaultPlan.always("repl-dup")):
                assert deliver_batches(records) == [records, records]
        assert recorder.counters["repl.batches_duplicated"] == 1

    def test_truncate_cuts_to_a_prefix(self):
        recorder = Recorder()
        with use_recorder(recorder):
            with faults.use_faults(faults.FaultPlan.always("repl-truncate")):
                assert deliver_batches(_records(2, 3, 4, 5)) == [_records(2, 3)]
                # a single-record batch truncates to nothing at all
                assert deliver_batches(_records(2)) == []
        assert recorder.counters["repl.batches_truncated"] == 2


class TestApplyShipped:
    def _logs(self, tmp_path):
        primary = EditLog.open(tmp_path / "p", initial=parse_tbox(vehicles_text()))
        primary.append(parse_tbox(vehicles_text() + "van [= motorvehicle"))
        primary.append(parse_tbox("dog [= animal"))
        follower = EditLog.open(tmp_path / "f", initial=parse_tbox(vehicles_text()))
        return primary, follower

    def test_applies_in_order_and_reports(self, tmp_path):
        primary, follower = self._logs(tmp_path)
        _, records = primary.read_records(after=1)
        seen = []
        applied = apply_shipped(
            follower,
            [r.to_json() for r in records],
            on_record=seen.append,
        )
        assert [r.version for r in applied] == [2, 3]
        assert seen == applied
        assert follower.version == 3
        assert _hierarchy_key(follower.tbox) == _hierarchy_key(primary.tbox)

    def test_duplicate_delivery_is_idempotent(self, tmp_path):
        primary, follower = self._logs(tmp_path)
        _, records = primary.read_records(after=1)
        rows = [r.to_json() for r in records]
        apply_shipped(follower, rows)
        recorder = Recorder()
        with use_recorder(recorder):
            assert apply_shipped(follower, rows) == []
        assert recorder.counters["editlog.stale_records_skipped"] == 2
        assert follower.version == 3

    def test_gap_is_rejected_loudly(self, tmp_path):
        primary, follower = self._logs(tmp_path)
        _, records = primary.read_records(after=1)
        with pytest.raises(EditLogError, match="resynchronize"):
            apply_shipped(follower, [records[-1].to_json()])

    def test_malformed_rows_are_dropped(self, tmp_path):
        _, follower = self._logs(tmp_path)
        rows = ["junk", {"version": "2"}, {"version": 2, "added": [1], "removed": []}]
        assert apply_shipped(follower, rows) == []
        assert follower.version == 1

    def test_armed_dup_plan_still_applies_each_record_once(self, tmp_path):
        primary, follower = self._logs(tmp_path)
        _, records = primary.read_records(after=1)
        with faults.use_faults(faults.FaultPlan.always("repl-dup")):
            applied = apply_shipped(follower, [r.to_json() for r in records])
        assert [r.version for r in applied] == [2, 3]
        assert follower.version == 3


class TestReadRecordsAndBase:
    def test_caught_up_follower_gets_nothing(self, tmp_path):
        log = EditLog.open(tmp_path, initial=parse_tbox(vehicles_text()))
        assert log.read_records(after=1) == (False, [])

    def test_limit_paginates_the_stream(self, tmp_path):
        log = EditLog.open(tmp_path, initial=parse_tbox(vehicles_text()))
        tbox = parse_tbox(vehicles_text())
        for i in range(4):
            tbox = parse_tbox(vehicles_text() + f"x{i} [= motorvehicle")
            log.append(tbox)
        need_base, first = log.read_records(after=1, limit=2)
        assert not need_base and [r.version for r in first] == [2, 3]
        need_base, rest = log.read_records(after=3, limit=2)
        assert not need_base and [r.version for r in rest] == [4, 5]

    def test_compaction_forces_a_base_resync_that_chains(self, tmp_path):
        primary = EditLog.open(
            tmp_path / "p", initial=parse_tbox(vehicles_text()), rebase_limit=2
        )
        primary.append(parse_tbox("a [= b"))
        primary.append(parse_tbox("a [= b\nb [= c"))  # triggers the rebase
        need_base, records = primary.read_records(after=1)
        assert (need_base, records) == (True, [])
        follower = EditLog.open(tmp_path / "f", initial_version=0)
        base = primary.base_snapshot()
        follower.install_base(base["version"], base["tbox"])
        assert follower.version == primary.version == 3
        assert _hierarchy_key(follower.tbox) == _hierarchy_key(primary.tbox)
        # the shipped base is the live tip: later records chain directly
        primary.append(parse_tbox("a [= b\nb [= c\nc [= d"))
        _, more = primary.read_records(after=follower.version)
        assert [r.version for r in more] == [4]
        apply_shipped(follower, [r.to_json() for r in more])
        assert follower.version == 4


# --------------------------------------------------------------------------- #
# the catch-up equivalence property
# --------------------------------------------------------------------------- #

_PLANS = [
    (),
    ("repl-drop",),
    ("repl-dup",),
    ("repl-truncate",),
    ("repl-drop", "repl-dup", "repl-truncate"),
]


class TestCatchUpEquivalence:
    """Follower state after ANY fault interleaving + catch-up equals the
    primary's uninterrupted state."""

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        seed=st.integers(min_value=0, max_value=300),
        plan_kinds=st.sampled_from(_PLANS),
        compact=st.booleans(),
        crash=st.booleans(),
    )
    def test_catch_up_equals_uninterrupted_primary(
        self, tmp_path_factory, seed, plan_kinds, compact, crash
    ):
        with faults.suspended():
            primary_dir = tmp_path_factory.mktemp("primary")
            follower_dir = tmp_path_factory.mktemp("follower")
            tbox = random_tbox(seed, n_defined=6, n_primitive=4, n_roles=2)
            # rebase_limit=3 races compaction against the shipping stream,
            # forcing base resyncs mid-catch-up; 0 disables compaction
            primary = EditLog.open(
                primary_dir, initial=tbox, rebase_limit=3 if compact else 0
            )
            rng = random.Random(seed)
            for _ in range(8):
                tbox = random_tbox_edit(rng, tbox)
                primary.append(tbox)
            follower = EditLog.open(follower_dir, initial_version=0)

            plan = (
                faults.FaultPlan(plan_kinds, period=2, seed=seed)
                if plan_kinds
                else faults.NULL_PLAN
            )
            pulls = 0
            with faults.use_faults(plan):
                while follower.version < primary.version:
                    pulls += 1
                    assert pulls < 200, "catch-up livelocked"
                    need_base, records = primary.read_records(
                        follower.version, limit=3
                    )
                    if need_base:
                        base = primary.base_snapshot()
                        follower.install_base(base["version"], base["tbox"])
                        continue
                    apply_shipped(follower, [r.to_json() for r in records])
                    if crash and pulls == 2:
                        # kill -9 mid-catch-up: reopen from disk (recovery)
                        follower = EditLog.open(follower_dir, initial_version=0)

            assert follower.version == primary.version
            assert _hierarchy_key(follower.tbox) == _hierarchy_key(primary.tbox)
            # and what landed is durable: a restart recovers the same state
            recovered = EditLog.open(follower_dir)
            assert recovered.version == primary.version
            assert _hierarchy_key(recovered.tbox) == _hierarchy_key(primary.tbox)


# --------------------------------------------------------------------------- #
# end-to-end over real sockets
# --------------------------------------------------------------------------- #

VEHICLES = parse_tbox(
    "car [= motorvehicle & some size.small\npickup [= motorvehicle"
)


def _primary_config(tmp_path):
    return ServeConfig(port=0, edit_log=str(tmp_path / "primary-log"))


def _follower_config(tmp_path, primary_url, **overrides):
    return ServeConfig(
        port=0,
        edit_log=str(tmp_path / "follower-log"),
        follow=primary_url,
        probe_interval_ms=overrides.pop("probe_interval_ms", 40.0),
        **overrides,
    )


def _url(server):
    host, port = server.address
    return f"http://{host}:{port}"


def _edit_text(n):
    return f"car [= motorvehicle\npickup [= motorvehicle\nedit{n} [= car\n"


class TestServerReplication:
    def test_follower_catches_up_serves_reads_and_refuses_writes(self, tmp_path):
        with ServerThread(VEHICLES, _primary_config(tmp_path)) as primary:
            status, body = primary.request(
                "POST", "/v1/tbox", {"tbox": _edit_text(1)}
            )
            assert status == 200
            assert body["swap_mode"] == "full"
            with ServerThread(
                None, _follower_config(tmp_path, _url(primary))
            ) as follower:
                assert _wait_until(
                    lambda: follower.request("GET", "/v1/health")[1][
                        "tbox_version"
                    ] == 2
                ), "follower never caught up"
                status, health = follower.request("GET", "/v1/health")
                assert health["role"] == "follower"
                repl = health["replication"]
                assert repl["role"] == "follower"
                assert repl["last_applied_version"] == 2
                assert repl["lag_records"] == 0
                assert repl["primary_url"] == _url(primary)
                # reads work at the replicated version
                status, answer = follower.request(
                    "POST",
                    "/v1/subsumes",
                    {"general": "car", "specific": "edit1"},
                )
                assert (status, answer["answer"]) == (200, True)
                # writes are refused with the primary's location
                status, refused = follower.request(
                    "POST", "/v1/tbox", {"tbox": "dog [= animal"}
                )
                assert status == 503
                assert refused["primary"] == _url(primary)
                assert "read-only" in refused["message"]
                # /v1/metrics exposes the same replication block
                _, metrics = follower.request("GET", "/v1/metrics")
                assert metrics["serve"]["replication"]["role"] == "follower"

    def test_lag_header_on_follower_responses(self, tmp_path):
        import http.client

        with ServerThread(VEHICLES, _primary_config(tmp_path)) as primary:
            with ServerThread(
                None, _follower_config(tmp_path, _url(primary))
            ) as follower:
                assert _wait_until(
                    lambda: follower.request("GET", "/v1/health")[1][
                        "tbox_version"
                    ] == 1
                )
                host, port = follower.address
                conn = http.client.HTTPConnection(host, port, timeout=10)
                try:
                    conn.request("GET", "/v1/health")
                    response = conn.getresponse()
                    response.read()
                    assert response.getheader(
                        "X-Replication-Lag-Records"
                    ) == "0"
                finally:
                    conn.close()

    def test_promotion_takes_writes_under_a_fresh_epoch(self, tmp_path):
        with ServerThread(VEHICLES, _primary_config(tmp_path)) as primary:
            primary.request("POST", "/v1/tbox", {"tbox": _edit_text(1)})
            with ServerThread(
                None, _follower_config(tmp_path, _url(primary))
            ) as follower:
                assert _wait_until(
                    lambda: follower.request("GET", "/v1/health")[1][
                        "tbox_version"
                    ] == 2
                )
                status, body = follower.request("POST", "/v1/promote", {})
                assert (status, body["promoted"]) == (200, True)
                assert body["epoch"] == 2
                # idempotent on a primary
                status, again = follower.request("POST", "/v1/promote", {})
                assert (status, again["promoted"]) == (200, False)
                # the promoted server acks writes on top of replicated state
                status, swap = follower.request(
                    "POST", "/v1/tbox", {"tbox": _edit_text(2)}
                )
                assert status == 200
                assert swap["tbox_version"] == 3
                _, health = follower.request("GET", "/v1/health")
                assert health["role"] == "primary"
                assert health["replication"]["epoch"] == 2

    def test_auto_promotion_when_the_primary_dies(self, tmp_path):
        primary = ServerThread(VEHICLES, _primary_config(tmp_path)).start()
        primary_url = _url(primary)
        recorder = Recorder()
        with use_recorder(recorder):
            with ServerThread(
                None,
                _follower_config(
                    tmp_path, primary_url, auto_promote_after=2
                ),
            ) as follower:
                assert _wait_until(
                    lambda: follower.request("GET", "/v1/health")[1][
                        "tbox_version"
                    ] == 1
                )
                primary.stop()  # the primary drops off the network
                assert _wait_until(
                    lambda: follower.request("GET", "/v1/health")[1]["role"]
                    == "primary"
                ), "follower never auto-promoted"
                status, swap = follower.request(
                    "POST", "/v1/tbox", {"tbox": _edit_text(1)}
                )
                assert status == 200
        assert recorder.counters["repl.auto_promotions"] == 1
        assert recorder.counters["repl.promotions"] == 1

    def test_fencing_refuses_stale_epochs_and_survives_restart(self, tmp_path):
        config = _primary_config(tmp_path)
        with ServerThread(VEHICLES, config) as server:
            # a stale fence (epoch <= current) is a 409
            status, body = server.request("POST", "/v1/fence", {"epoch": 1})
            assert status == 409
            assert "stale fence" in body["message"]
            # a higher epoch lands and flips the server read-only
            status, body = server.request(
                "POST",
                "/v1/fence",
                {"epoch": 4, "primary": "http://127.0.0.1:1"},
            )
            assert (status, body["fenced"]) == (200, True)
            status, refused = server.request(
                "POST", "/v1/tbox", {"tbox": "dog [= animal"}
            )
            assert status == 503
            assert refused["primary"] == "http://127.0.0.1:1"
            # a fenced server cannot self-promote (lineage fork)
            status, body = server.request("POST", "/v1/promote", {})
            assert status == 409
            assert "cannot self-promote" in body["message"]
        # the fence is durable: a restarted server is still read-only
        with ServerThread(VEHICLES, config) as restarted:
            _, health = restarted.request("GET", "/v1/health")
            assert health["replication"]["fenced"] is True
            assert health["replication"]["epoch"] == 4
            status, _ = restarted.request(
                "POST", "/v1/tbox", {"tbox": "dog [= animal"}
            )
            assert status == 503

    def test_repl_pull_ships_records_and_bases(self, tmp_path):
        with ServerThread(VEHICLES, _primary_config(tmp_path)) as primary:
            primary.request("POST", "/v1/tbox", {"tbox": _edit_text(1)})
            status, body = primary.request(
                "POST", "/v1/repl/pull", {"after": 1}
            )
            assert status == 200
            assert body["role"] == "primary"
            assert body["version"] == 2
            assert [r["version"] for r in body["records"]] == [2]
            # a follower from before this log's history needs the base
            status, body = primary.request(
                "POST", "/v1/repl/pull", {"after": 0}
            )
            assert status == 200
            assert body["records"] == []
            assert body["base"]["version"] == 2
            # validation
            status, _ = primary.request(
                "POST", "/v1/repl/pull", {"after": "x"}
            )
            assert status == 400

    def test_pull_against_a_logless_server_is_503(self):
        with ServerThread(VEHICLES) as server:
            status, body = server.request(
                "POST", "/v1/repl/pull", {"after": 0}
            )
            assert status == 503
            assert "--edit-log" in body["message"]

    def test_follower_requires_an_edit_log(self):
        from repro.serve import ReasoningServer

        with pytest.raises(ValueError, match="--edit-log"):
            ReasoningServer(
                VEHICLES, ServeConfig(port=0, follow="http://127.0.0.1:1")
            )


class TestFollowerChannelUnit:
    def test_unreachable_primary_counts_failures(self, tmp_path):
        import asyncio

        editlog = EditLog.open(tmp_path, initial_version=0)
        channel = FollowerChannel(
            "http://127.0.0.1:1",  # nothing listens on port 1
            editlog,
            EpochStore(tmp_path),
            timeout_s=0.2,
        )
        assert channel.lag_records() is None  # no contact yet
        outcome = asyncio.run(channel.poll_once())
        assert outcome == "unreachable"
        assert channel.consecutive_failures == 1

    def test_bad_url_fails_fast(self, tmp_path):
        editlog = EditLog.open(tmp_path, initial_version=0)
        with pytest.raises(ReplicationError):
            FollowerChannel("nonsense", editlog, EpochStore(tmp_path))


# --------------------------------------------------------------------------- #
# base-install publication retry
# --------------------------------------------------------------------------- #


class TestBasePublicationRetry:
    """install_base advances the durable log, so a failed ``on_base``
    publication is never re-requested by a later pull — the channel must
    retry it locally until the snapshot chain catches up."""

    def _channel(self, tmp_path, on_base, **overrides):
        editlog = EditLog.open(tmp_path, initial_version=0)
        return FollowerChannel(
            "http://127.0.0.1:1",  # nothing listens: every pull fails
            editlog,
            EpochStore(tmp_path),
            on_base=on_base,
            probe_interval_s=overrides.pop("probe_interval_s", 0.01),
            timeout_s=0.2,
            **overrides,
        )

    def test_failed_publication_is_retried_until_it_lands(self, tmp_path):
        import asyncio

        calls = []

        async def flaky(version):
            calls.append(version)
            if len(calls) < 3:
                raise RuntimeError("snapshot publication failed")

        recorder = Recorder()

        async def scenario():
            channel = self._channel(tmp_path, flaky)
            await channel._publish_base(4)
            assert channel.base_publish_pending
            rounds = 0
            while channel.base_publish_pending:
                rounds += 1
                assert rounds < 100, "retry never landed"
                await asyncio.sleep(0.015)
                # the retry fires even though the primary is unreachable:
                # publication is purely local work
                assert await channel.poll_once() == "unreachable"
            return channel

        with use_recorder(recorder):
            channel = asyncio.run(scenario())
        assert calls == [4, 4, 4]
        assert not channel.base_publish_pending
        assert recorder.counters["repl.base_publish_failures"] == 2
        assert recorder.counters["repl.base_install_retries"] == 2

    def test_no_retry_before_the_backoff_elapses(self, tmp_path):
        import asyncio

        calls = []

        async def always_down(version):
            calls.append(version)
            raise RuntimeError("still down")

        async def scenario():
            # a long probe interval seeds a long backoff: an immediate
            # poll must NOT burn a retry attempt
            channel = self._channel(tmp_path, always_down, probe_interval_s=30.0)
            await channel._publish_base(7)
            assert len(calls) == 1
            await channel.poll_once()
            assert len(calls) == 1  # backoff still pending
            assert channel.base_publish_pending

        asyncio.run(scenario())

    def test_retry_delay_is_jittered_against_stampedes(self, tmp_path):
        """N followers that all failed at the same instant must not all
        retry at the same instant: the armed delay is the exponential
        backoff scaled by a per-channel x0.5..x1.5 jitter factor."""
        import asyncio

        async def always_down(version):
            raise RuntimeError("still down")

        async def scenario(seed):
            sub_dir = tmp_path / f"seed-{seed}"
            sub_dir.mkdir(exist_ok=True)
            editlog = EditLog.open(sub_dir, initial_version=0)
            channel = FollowerChannel(
                "http://127.0.0.1:1",
                editlog,
                EpochStore(sub_dir),
                on_base=always_down,
                probe_interval_s=1.0,
                timeout_s=0.2,
                jitter_seed=seed,
            )
            armed_at = time.monotonic()
            await channel._publish_base(3)
            # backoff seeds at probe_interval_s=1.0; the armed delay
            # must land inside the jitter window around it
            delay = channel._base_retry_at - armed_at
            assert channel._base_backoff_s == 1.0
            assert 0.5 <= delay <= 1.51
            # deterministic per-channel phase: the seed fixes the factor
            expected = 1.0 * (0.5 + random.Random(seed).random())
            assert abs(delay - expected) < 0.05
            return delay

        delays = {
            round(asyncio.run(scenario(seed)), 3) for seed in range(6)
        }
        # six deterministic seeds, six distinct phases — lockstep broken
        assert len(delays) == 6

    def test_successful_publication_arms_nothing(self, tmp_path):
        import asyncio

        calls = []

        async def healthy(version):
            calls.append(version)

        recorder = Recorder()
        with use_recorder(recorder):

            async def scenario():
                channel = self._channel(tmp_path, healthy)
                await channel._publish_base(2)
                assert not channel.base_publish_pending
                await channel.poll_once()

            asyncio.run(scenario())
        assert calls == [2]
        assert "repl.base_install_retries" not in recorder.counters


# --------------------------------------------------------------------------- #
# lag-bounded reads
# --------------------------------------------------------------------------- #


class TestLagBoundedReads:
    """``X-Max-Replication-Lag-Records`` is a client's read floor: a
    follower lagging past it refuses the read with 503 + Retry-After
    instead of serving a staler answer than the client tolerates."""

    HEADER = "X-Max-Replication-Lag-Records"

    def test_primary_ignores_the_bound(self, tmp_path):
        with ServerThread(VEHICLES, _primary_config(tmp_path)) as primary:
            status, body = primary.request(
                "POST",
                "/v1/subsumes",
                {"general": "motorvehicle", "specific": "car"},
                headers={self.HEADER: "0"},
            )
            assert (status, body["answer"]) == (200, True)

    def test_malformed_bound_is_400(self, tmp_path):
        with ServerThread(VEHICLES, _primary_config(tmp_path)) as primary:
            for bad in ("zero", "-1"):
                status, body = primary.request(
                    "POST",
                    "/v1/subsumes",
                    {"general": "motorvehicle", "specific": "car"},
                    headers={self.HEADER: bad},
                )
                assert status == 400, bad
                assert "X-Max-Replication-Lag-Records" in body["message"]

    def test_follower_within_bound_serves_the_read(self, tmp_path):
        with ServerThread(VEHICLES, _primary_config(tmp_path)) as primary:
            with ServerThread(
                None, _follower_config(tmp_path, _url(primary))
            ) as follower:
                assert _wait_until(
                    lambda: follower.server._channel is not None
                    and follower.server._channel.lag_records() == 0
                )
                status, body = follower.request(
                    "POST",
                    "/v1/subsumes",
                    {"general": "motorvehicle", "specific": "car"},
                    headers={self.HEADER: "0"},
                )
                assert (status, body["answer"]) == (200, True)

    def test_lagging_follower_refuses_with_retry_after(self, tmp_path):
        import http.client

        recorder = Recorder()
        with use_recorder(recorder):
            with ServerThread(VEHICLES, _primary_config(tmp_path)) as primary:
                with ServerThread(
                    None, _follower_config(tmp_path, _url(primary))
                ) as follower:
                    channel = follower.server._channel
                    assert _wait_until(
                        lambda: channel.lag_records() is not None
                    )
                    # pretend the last pull saw a primary far ahead; the
                    # next poll would reset this, but the request races in
                    # first thanks to the raw connection below
                    channel.last_primary_version = (
                        follower.server.editlog.version + 10
                    )
                    host, port = follower.address
                    conn = http.client.HTTPConnection(host, port, timeout=10)
                    try:
                        conn.request(
                            "POST",
                            "/v1/subsumes",
                            body='{"general": "motorvehicle", "specific": "car"}',
                            headers={
                                "Content-Type": "application/json",
                                self.HEADER: "5",
                            },
                        )
                        response = conn.getresponse()
                        body = response.read()
                        assert response.status == 503
                        assert response.getheader("Retry-After") is not None
                        assert b"exceeds client bound 5" in body
                        assert _url(primary).encode() in body
                    finally:
                        conn.close()
        assert recorder.counters["repl.lag_bounded_rejections"] >= 1

    def test_unknown_lag_refuses_the_bound(self, tmp_path):
        with ServerThread(VEHICLES, _primary_config(tmp_path)) as primary:
            with ServerThread(
                None, _follower_config(tmp_path, _url(primary))
            ) as follower:
                channel = follower.server._channel
                # before first contact the lag is unknown — not "fresh"
                channel.last_primary_version = None
                status, body = follower.request(
                    "POST",
                    "/v1/subsumes",
                    {"general": "motorvehicle", "specific": "car"},
                    headers={self.HEADER: "100"},
                )
                if status == 503:
                    assert "unknown" in body["message"]
                else:
                    # the poll loop may re-establish contact first; the
                    # read is then legitimately within bound
                    assert status == 200
