"""End-to-end serving tests over a real TCP socket.

Each test boots a :class:`ServerThread` on an ephemeral port and talks
real HTTP through ``http.client``.  The degradation and hot-swap tests
encode this PR's acceptance criteria directly:

* an undersized budget yields **206 + UNKNOWN body** and the server
  stays healthy afterwards;
* requests racing a ``POST /v1/tbox`` hot-swap each get an answer
  consistent with exactly one snapshot version — the one they report.
"""

import asyncio
import http.client
import random
import threading
import time

import pytest

from repro.corpora.generators import random_tbox, random_tbox_edit
from repro.dl import classify, parse_tbox
from repro.dl.hierarchy import ConceptHierarchy
from repro.dl.serialize import tbox_to_text
from repro.obs import Recorder, use_recorder
from repro.robust import faults
from repro.serve import ServeConfig, ServerThread


@pytest.fixture(autouse=True)
def quiet_faults():
    with faults.suspended():
        yield

VEHICLES = """
car [= motorvehicle & some size.small
pickup [= motorvehicle & some size.big
motorvehicle [= some uses.gasoline
"""


@pytest.fixture()
def server():
    with ServerThread(parse_tbox(VEHICLES)) as live:
        yield live


def wait_for_drain(server, timeout_s: float = 30.0) -> None:
    """Poll /v1/health until every acknowledged edit is published."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        _status, health = server.request("GET", "/v1/health")
        if (
            health["tbox_version"] == health["logged_version"]
            and not health["pending_swap"]
        ):
            return
        time.sleep(0.02)
    raise AssertionError(f"pending swap never drained: {health}")


class TestEndpoints:
    def test_health(self, server):
        status, body = server.request("GET", "/v1/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["tbox_version"] == 1
        assert body["axioms"] == 3

    def test_subsumes_and_satisfiable(self, server):
        with server.client() as client:
            status, body = client.request(
                "POST",
                "/v1/subsumes",
                {"general": "motorvehicle", "specific": "car"},
            )
            assert (status, body["answer"]) == (200, True)
            assert body["source"] == "hierarchy"
            status, body = client.request(
                "POST", "/v1/satisfiable", {"concept": "car & ~car"}
            )
            assert (status, body["answer"]) == (200, False)
            assert body["source"] == "tableau"

    def test_classify(self, server):
        status, body = server.request("POST", "/v1/classify", {})
        assert status == 200
        groups = {name for group in body["groups"] for name in group}
        assert {"car", "pickup", "motorvehicle"} <= groups
        assert "motorvehicle" in body["parents"]["car"]
        assert body["unsatisfiable"] == []

    def test_instances(self, server):
        status, body = server.request(
            "POST",
            "/v1/instances",
            {
                "concept": "motorvehicle",
                "abox": {
                    "concepts": [["herbie", "car"], ["rex", "pickup"]],
                    "roles": [["herbie", "uses", "fuel1"]],
                },
            },
        )
        assert status == 200
        assert body["members"] == ["herbie", "rex"]
        assert "fuel1" in body["non_members"]

    def test_critique(self, server):
        status, body = server.request(
            "POST", "/v1/critique", {"tbox": "dog [= cat\ncat [= dog"}
        )
        assert status == 200
        assert body["findings"] > 0
        assert isinstance(body["report"], str) and body["report"]

    def test_metrics_exposes_serving_counters(self, server):
        recorder = Recorder()
        with use_recorder(recorder):
            server.request(
                "POST", "/v1/satisfiable", {"concept": "car"}
            )
            status, body = server.request("GET", "/v1/metrics")
        assert status == 200
        counters = body["metrics"]["counters"]
        assert counters["serve.requests"] >= 1
        assert counters["serve.admitted"] >= 1
        assert body["serve"]["tbox_version"] == 1
        assert body["serve"]["reasoner_caches"]["hierarchy"] > 0


class TestClassifyBody:
    """``/v1/classify`` builds its body once per snapshot."""

    TBOX = VEHICLES + "auto = car\nwreck [= car & ~car\n"

    def test_body_bytes_are_stable(self):
        with ServerThread(parse_tbox(self.TBOX)) as live:
            conn = http.client.HTTPConnection(*live.address)
            try:
                conn.request("POST", "/v1/classify", body="{}")
                response = conn.getresponse()
                raw = response.read()
            finally:
                conn.close()
        assert response.status == 200
        assert raw == (
            b'{"groups": [["auto", "car"], ["big"], ["gasoline"], '
            b'["motorvehicle"], ["pickup"], ["small"]], "parents": '
            b'{"auto": ["motorvehicle"], "big": ["\\u22a4"], '
            b'"gasoline": ["\\u22a4"], "motorvehicle": ["\\u22a4"], '
            b'"pickup": ["motorvehicle"], "small": ["\\u22a4"]}, '
            b'"tbox_version": 1, "top_equivalents": [], '
            b'"unsatisfiable": ["wreck"]}'
        )

    def test_one_build_per_snapshot(self, monkeypatch):
        calls = []
        groups = ConceptHierarchy.groups

        def counted(self):
            calls.append(self)
            return groups(self)

        monkeypatch.setattr(ConceptHierarchy, "groups", counted)
        with ServerThread(parse_tbox(self.TBOX)) as live:
            first = live.request("POST", "/v1/classify", {})
            built = len(calls)
            assert built >= 1
            second = live.request("POST", "/v1/classify", {})
            assert len(calls) == built
            assert second == first
            status, ack = live.request(
                "POST", "/v1/tbox", {"tbox": self.TBOX + "van [= motorvehicle\n"}
            )
            assert (status, ack["swap_status"]) == (200, "applied")
            status, body = live.request("POST", "/v1/classify", {})
        assert len(calls) > built
        assert status == 200
        assert body["tbox_version"] == 2
        assert ["van"] in body["groups"]
        assert body["parents"]["van"] == ["motorvehicle"]


class TestErrorPaths:
    def test_unknown_route_is_404(self, server):
        status, body = server.request("GET", "/v1/nope")
        assert status == 404
        assert "no route" in body["message"]

    def test_wrong_method_is_405(self, server):
        status, _ = server.request("GET", "/v1/subsumes")
        assert status == 405

    def test_wrong_method_on_an_open_route_is_405(self, server):
        status, body = server.request("POST", "/v1/health", {})
        assert status == 405
        assert "requires GET" in body["message"]

    def test_missing_field_is_400(self, server):
        status, body = server.request("POST", "/v1/subsumes", {"general": "car"})
        assert status == 400
        assert "specific" in body["message"]

    def test_concept_syntax_error_is_400(self, server):
        status, body = server.request(
            "POST", "/v1/satisfiable", {"concept": "some ("}
        )
        assert status == 400
        assert "syntax" in body["message"]

    def test_error_does_not_leak_admission_slot(self, server):
        for _ in range(3):
            server.request("POST", "/v1/subsumes", {"general": "car"})
        status, body = server.request("GET", "/v1/health")
        assert (status, body["inflight"]) == (200, 0)


class TestDegradation:
    """Acceptance: undersized budgets degrade to 206, never to failure."""

    def test_undersized_budget_returns_206_unknown(self):
        config = ServeConfig(port=0, node_allowance=5, soft_limit=1, hard_limit=4)
        with ServerThread(parse_tbox(VEHICLES), config) as server:
            status, body = server.request(
                "POST", "/v1/satisfiable", {"concept": ">= 12 uses.gasoline"}
            )
            assert status == 206
            assert body["answer"] is None
            assert body["verdict"] == "unknown"
            assert "max_nodes=5" in body["reason"]
            # the contract's second half: the server survives the refusal
            status, body = server.request("GET", "/v1/health")
            assert (status, body["status"]) == (200, "ok")
            # named queries still answer definitively from the hierarchy,
            # which never consults a budget
            status, body = server.request(
                "POST", "/v1/satisfiable", {"concept": "car"}
            )
            assert (status, body["answer"]) == (200, True)

    def test_unsatisfiable_instances_degrade_per_individual(self):
        config = ServeConfig(port=0, node_allowance=5, soft_limit=1, hard_limit=4)
        with ServerThread(parse_tbox(VEHICLES), config) as server:
            status, body = server.request(
                "POST",
                "/v1/instances",
                {
                    "concept": "<= 1 uses.gasoline",
                    "abox": {
                        "concepts": [["herbie", ">= 12 uses.gasoline"]],
                    },
                },
            )
            assert status == 206
            assert "herbie" in body["unknown"]
            assert "max_nodes" in body["unknown"]["herbie"]


    def test_soft_limit_answers_429_with_its_own_retry_after(self):
        import http.client

        config = ServeConfig(port=0, soft_limit=1, hard_limit=4)
        with ServerThread(parse_tbox(VEHICLES), config) as server:
            held = server.server.admission.admit()  # the one soft slot
            try:
                conn = http.client.HTTPConnection(*server.address, timeout=30)
                conn.request("POST", "/v1/satisfiable", body='{"concept": "car"}')
                response = conn.getresponse()
                response.read()
                conn.close()
            finally:
                held.finish()
            assert response.status == 429
            # admission's own hint, not one derived from batching
            assert response.getheader("Retry-After") == "0.050"
            status, body = server.request(
                "POST", "/v1/satisfiable", {"concept": "car"}
            )
            assert (status, body["answer"]) == (200, True)


class TestLearnedStateBound:
    """A snapshot forgets what traffic taught it past ``LEARNED_CAP``."""

    def test_table_stays_within_the_cap_past_the_watermark(self, monkeypatch):
        from repro.dl import reasoner as reasoner_mod

        cap = 48
        monkeypatch.setattr(reasoner_mod, "LEARNED_CAP", cap)
        names = ["car", "pickup", "motorvehicle", "gasoline", "small", "big"]
        roles = ["uses", "size"]
        with ServerThread(parse_tbox(VEHICLES)) as server, server.client() as client:
            _status, body = client.request("GET", "/v1/metrics")
            # an EL snapshot classifies without a tableau; the first
            # complex query builds one and pins its table as it stands
            assert body["serve"]["reasoner_caches"]["table"] == 0
            pinned = None
            for i in range(4 * cap):
                a, b = names[i % 6], names[i // 6 % 6]
                role = roles[i // 36 % 2]
                concept = f"{a} & some {role}.({b} & >= {1 + i // 72} {role}.{a})"
                status, body = client.request(
                    "POST", "/v1/satisfiable", {"concept": concept}
                )
                assert status in (200, 206), body
                _status, body = client.request("GET", "/v1/metrics")
                caches = body["serve"]["reasoner_caches"]
                pinned = pinned or caches["pinned"]
                assert caches["pinned"] == pinned > 0
                assert caches["table"] - caches["pinned"] <= cap, caches
        assert caches["resets"] > 0
        assert caches["nnf"] > 0


class TestHotSwap:
    def test_swap_changes_answers_and_version(self, server):
        with server.client() as client:
            status, body = client.request(
                "POST", "/v1/tbox", {"tbox": "car [= toy"}
            )
            assert status == 200
            assert body["tbox_version"] == 2
            assert body["retired_version"] == 1
            status, body = client.request(
                "POST",
                "/v1/subsumes",
                {"general": "motorvehicle", "specific": "car"},
            )
            assert (status, body["answer"], body["tbox_version"]) == (200, False, 2)
            status, body = client.request("GET", "/v1/health")
            assert body["tbox_version"] == 2

    def test_lone_edit_pins_no_snapshot(self, server):
        # a write acquires no snapshot: with no read in flight, nothing
        # holds the retired version when the swap releases it
        status, body = server.request("POST", "/v1/tbox", {"tbox": "car [= toy"})
        assert (status, body["swap_status"]) == (200, "applied")
        assert body["retired_refs"] == 0

    def test_swap_reports_mode(self, server):
        with server.client() as client:
            # an edit classifies the successor
            edited = VEHICLES + "van [= motorvehicle"
            status, body = client.request("POST", "/v1/tbox", {"tbox": edited})
            assert (status, body["swap_mode"]) == (200, "full")
            # re-posting the same axioms keeps the served hierarchy
            status, body = client.request("POST", "/v1/tbox", {"tbox": edited})
            assert (status, body["swap_mode"]) == (200, "reused")
            assert body["tbox_version"] == 3

    def test_swap_rejects_unparseable_tbox(self, server):
        status, _ = server.request("POST", "/v1/tbox", {"tbox": "car [= ("})
        assert status == 400
        status, body = server.request("GET", "/v1/health")
        assert body["tbox_version"] == 1  # still serving the old snapshot

    def test_concurrent_requests_see_exactly_one_version(self, server):
        """Acceptance: answers racing a hot-swap are version-consistent.

        v1 proves car [= motorvehicle; v2 (``car [= toy``) disproves it.
        Whatever version each racing request lands on, its answer must
        match that version — no torn reads across the swap.
        """
        results = []
        errors = []
        start = threading.Event()

        def prober():
            with server.client() as client:
                start.wait()
                for _ in range(20):
                    try:
                        status, body = client.request(
                            "POST",
                            "/v1/subsumes",
                            {"general": "motorvehicle", "specific": "car"},
                        )
                    except Exception as exc:  # noqa: BLE001
                        errors.append(repr(exc))
                        return
                    results.append((status, body["tbox_version"], body["answer"]))

        def swapper():
            start.wait()
            status, _ = server.request("POST", "/v1/tbox", {"tbox": "car [= toy"})
            results.append(("swap", status))

        threads = [threading.Thread(target=prober) for _ in range(4)]
        threads.append(threading.Thread(target=swapper))
        for thread in threads:
            thread.start()
        start.set()
        for thread in threads:
            thread.join()

        assert not errors
        probes = [r for r in results if r[0] != "swap"]
        assert ("swap", 200) in results
        assert len(probes) == 80
        versions = {version for _, version, _ in probes}
        assert versions <= {1, 2}
        for status, version, answer in probes:
            assert status == 200
            # the answer must agree with the version that produced it
            assert answer is (version == 1)
        # the swap retires v1: once drained, its caches are gone and v2 serves
        status, body = server.request("GET", "/v1/health")
        assert (status, body["tbox_version"]) == (200, 2)

    def test_snapshots_are_released_after_swap(self, server):
        recorder = Recorder()
        with use_recorder(recorder):
            server.request("POST", "/v1/tbox", {"tbox": "car [= toy"})
            server.request(
                "POST",
                "/v1/subsumes",
                {"general": "toy", "specific": "car"},
            )
        assert recorder.counters["serve.tbox_swaps"] == 1
        assert recorder.counters["serve.snapshots_retired"] == 1
        assert recorder.counters["serve.snapshots_released"] == 1


class TestLineMap:
    """``/v1/tbox`` parses only the posted lines it has not parsed before."""

    def test_repost_and_edit_parse_only_unseen_lines(self, server, monkeypatch):
        from repro.dl import parse_axiom, parser

        parsed = []
        monkeypatch.setattr(
            parser,
            "parse_axiom",
            lambda line: parsed.append(line) or parse_axiom(line),
        )

        def post(text: str) -> list[str]:
            parsed.clear()
            status, body = server.request("POST", "/v1/tbox", {"tbox": text})
            assert status == 200, body
            return list(parsed)

        # the map starts empty: the first post parses every line
        assert len(post(VEHICLES)) == 3
        # a re-post of the served TBox parses no line
        assert post(VEHICLES) == []
        assert post("# a comment\n" + VEHICLES.replace("\n", "  \n")) == []
        # a one-line edit parses that line alone
        assert post(VEHICLES + "van [= motorvehicle\n") == ["van [= motorvehicle"]
        status, body = server.request(
            "POST", "/v1/subsumes", {"general": "motorvehicle", "specific": "van"}
        )
        assert (status, body["answer"]) == (200, True)
        # the map holds the last posted text's lines, and no others
        other = "car [= toy\ntoy [= thing\n"
        assert post(other) == ["car [= toy", "toy [= thing"]
        assert set(server.server._axiom_lines) == {"car [= toy", "toy [= thing"}
        assert post(VEHICLES) == [line.strip() for line in VEHICLES.strip().splitlines()]

    def test_unparseable_post_keeps_the_map(self, server):
        server.request("POST", "/v1/tbox", {"tbox": VEHICLES})
        lines = dict(server.server._axiom_lines)
        status, _ = server.request("POST", "/v1/tbox", {"tbox": VEHICLES + "van [= ("})
        assert status == 400
        assert server.server._axiom_lines == lines


class TestEditPublicationContract:
    """Swap-frequency degradation: explicit statuses, query semantics kept.

    The edit-side analogue of the 206/429/503 degradation contract: a
    throttled POST /v1/tbox is still acknowledged 200 — durably, when an
    edit log is configured — but says so explicitly (``deferred`` /
    ``coalesced``), and every query route keeps serving the published
    version with unchanged semantics while edits queue.
    """

    def test_throttled_edits_report_deferred_then_coalesced(self):
        config = ServeConfig(port=0, min_swap_interval_ms=600_000)
        with ServerThread(parse_tbox(VEHICLES), config) as server:
            status, body = server.request(
                "POST", "/v1/tbox", {"tbox": VEHICLES + "van [= motorvehicle"}
            )
            assert status == 200
            assert body["swap_status"] == "deferred"
            assert body["tbox_version"] == 2  # acknowledged (logged) version
            assert body["published_version"] == 1  # still serving v1
            status, body = server.request(
                "POST", "/v1/tbox", {"tbox": VEHICLES + "bus [= motorvehicle"}
            )
            assert status == 200
            assert body["swap_status"] == "coalesced"  # replaced the queued edit
            assert body["tbox_version"] == 3
            assert body["published_version"] == 1
            # queries keep answering 200 from the published version
            status, body = server.request(
                "POST",
                "/v1/subsumes",
                {"general": "motorvehicle", "specific": "car"},
            )
            assert (status, body["answer"], body["tbox_version"]) == (200, True, 1)
            status, body = server.request("GET", "/v1/health")
            assert body["tbox_version"] == 1
            assert body["logged_version"] == 3
            assert body["pending_swap"] is True

    def test_unthrottled_edit_reports_applied(self, server):
        status, body = server.request("POST", "/v1/tbox", {"tbox": "car [= toy"})
        assert status == 200
        assert body["swap_status"] == "applied"
        assert body["tbox_version"] == 2 and body["retired_version"] == 1

    def test_edit_during_a_held_refresh_is_deferred(self, server):
        # the instance-store refresh closes the publication: an edit that
        # arrives while it runs queues behind it, as during the prepare
        held, release = threading.Event(), threading.Event()
        refresh = server.server._refresh_instdb

        async def held_refresh(snapshot):
            held.set()
            await asyncio.to_thread(release.wait, 30.0)
            await refresh(snapshot)

        server.server._refresh_instdb = held_refresh
        first = []
        edit = threading.Thread(
            target=lambda: first.append(
                server.request("POST", "/v1/tbox", {"tbox": "car [= toy"})
            )
        )
        edit.start()
        try:
            assert held.wait(30.0), "the first edit never reached its refresh"
            status, body = server.request(
                "POST", "/v1/tbox", {"tbox": "car [= truck"}
            )
            assert (status, body["swap_status"]) == (200, "deferred")
            assert (body["tbox_version"], body["published_version"]) == (3, 2)
            assert first == []  # the first ack waits for its refresh
        finally:
            release.set()
            edit.join(30.0)
        assert not edit.is_alive()
        status, body = first[0]
        assert (status, body["swap_status"]) == (200, "applied")
        wait_for_drain(server)
        _status, health = server.request("GET", "/v1/health")
        assert health["tbox_version"] == 3

    def test_deferral_is_published_once_the_throttle_allows(self):
        config = ServeConfig(port=0, min_swap_interval_ms=150.0)
        with ServerThread(parse_tbox(VEHICLES), config) as server:
            status, body = server.request(
                "POST", "/v1/tbox", {"tbox": VEHICLES + "van [= motorvehicle"}
            )
            assert (status, body["swap_status"]) == (200, "deferred")
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                _status, health = server.request("GET", "/v1/health")
                if health["tbox_version"] == 2:
                    break
                time.sleep(0.02)
            assert health["tbox_version"] == 2 and not health["pending_swap"]
            status, body = server.request(
                "POST", "/v1/subsumes", {"general": "motorvehicle", "specific": "van"}
            )
            assert (status, body["answer"], body["tbox_version"]) == (200, True, 2)

    def test_budget_degradation_unchanged_while_edits_queue(self):
        """206/UNKNOWN and 200-definite semantics survive a pending swap."""
        config = ServeConfig(
            port=0,
            node_allowance=5,
            soft_limit=1,
            hard_limit=4,
            min_swap_interval_ms=600_000,
        )
        with ServerThread(parse_tbox(VEHICLES), config) as server:
            status, body = server.request(
                "POST", "/v1/tbox", {"tbox": VEHICLES + "van [= motorvehicle"}
            )
            assert (status, body["swap_status"]) == (200, "deferred")
            status, body = server.request(
                "POST", "/v1/satisfiable", {"concept": ">= 12 uses.gasoline"}
            )
            assert status == 206
            assert body["verdict"] == "unknown"
            status, body = server.request(
                "POST", "/v1/satisfiable", {"concept": "car"}
            )
            assert (status, body["answer"]) == (200, True)

    def test_deferred_and_coalesced_edits_are_counted(self):
        recorder = Recorder()
        config = ServeConfig(port=0, min_swap_interval_ms=600_000)
        with use_recorder(recorder):
            with ServerThread(parse_tbox(VEHICLES), config) as server:
                server.request("POST", "/v1/tbox", {"tbox": "a [= b"})
                server.request("POST", "/v1/tbox", {"tbox": "a [= c"})
                server.request("POST", "/v1/tbox", {"tbox": "a [= d"})
        assert recorder.counters["serve.deferred_edits"] == 1
        assert recorder.counters["serve.coalesced_edits"] == 2


class TestEditLogRecovery:
    """Crash recovery through the whole server, not just the log."""

    def test_restart_serves_last_acknowledged_edit(self, tmp_path):
        from repro.dl import Reasoner

        log_dir = tmp_path / "editlog"
        # the huge throttle means the acknowledged edits are never
        # published before "the crash" (ServerThread teardown drops the
        # pending edit from memory; the log is its only trace)
        config = ServeConfig(
            port=0, edit_log=str(log_dir), min_swap_interval_ms=600_000
        )
        final = VEHICLES + "van [= motorvehicle\nbus [= motorvehicle\n"
        with ServerThread(parse_tbox(VEHICLES), config) as server:
            status, body = server.request(
                "POST", "/v1/tbox", {"tbox": VEHICLES + "van [= motorvehicle"}
            )
            assert (status, body["swap_status"]) == (200, "deferred")
            status, body = server.request("POST", "/v1/tbox", {"tbox": final})
            assert (status, body["swap_status"]) == (200, "coalesced")
            assert body["tbox_version"] == 3
            _status, health = server.request("GET", "/v1/health")
            assert health["tbox_version"] == 1  # nothing published pre-crash

        restarted = ServeConfig(port=0, edit_log=str(log_dir))
        with ServerThread(parse_tbox(VEHICLES), restarted) as server:
            _status, health = server.request("GET", "/v1/health")
            assert health["tbox_version"] == 3  # the last *acknowledged* edit
            assert health["logged_version"] == 3
            status, body = server.request("POST", "/v1/classify", {})
            expected = Reasoner(parse_tbox(final)).classify()
            assert body["groups"] == sorted(sorted(g) for g in expected.groups())
            _status, metrics = server.request("GET", "/v1/metrics")
            stats = metrics["serve"]["editlog"]
            assert stats["version"] == 3
            assert stats["recovered"] == {
                "fresh": False, "base_version": 1, "replayed": 2, "torn": 0,
            }

    def test_acks_stay_durable_under_armed_torn_writes(self, tmp_path):
        """REPRO_FAULTS=torn-write on the edit log: every acknowledged
        edit survives, recovery replays it, nothing is half-applied."""
        from repro.dl import Reasoner

        log_dir = tmp_path / "editlog"
        config = ServeConfig(
            port=0, edit_log=str(log_dir), min_swap_interval_ms=600_000
        )
        recorder = Recorder()
        final = VEHICLES + "van [= motorvehicle\n"
        with use_recorder(recorder):
            with faults.use_faults(faults.FaultPlan.always("torn-write")):
                with ServerThread(parse_tbox(VEHICLES), config) as server:
                    status, body = server.request(
                        "POST", "/v1/tbox", {"tbox": final}
                    )
                    assert (status, body["swap_status"]) == (200, "deferred")
        # the injected tear hit the append and was recovered pre-ack
        assert recorder.counters["editlog.torn_writes_recovered"] == 1
        with ServerThread(parse_tbox(VEHICLES), ServeConfig(
            port=0, edit_log=str(log_dir)
        )) as server:
            _status, health = server.request("GET", "/v1/health")
            assert health["tbox_version"] == 2
            status, body = server.request("POST", "/v1/classify", {})
            expected = Reasoner(parse_tbox(final)).classify()
            assert body["groups"] == sorted(sorted(g) for g in expected.groups())


class TestLiveEditStream:
    """A corpus edit chain racing reads through the throttled publisher.

    One client posts six ``random_tbox_edit`` successors back to back
    over a durable edit log while another thread keeps reading.  Every
    read answers 200; acks count up without gaps while publication goes
    from applied to deferred or coalesced; the drained server serves
    exactly the last acknowledged TBox; and every edit gets exactly one
    visibility sample.  The torn-write case tears edit-log appends,
    which must be repaired before each ack.
    """

    @pytest.mark.parametrize(
        "plan",
        [faults.NULL_PLAN, faults.FaultPlan(["torn-write"], period=2)],
        ids=["clean", "torn-write"],
    )
    def test_edit_chain_under_reads(self, tmp_path, plan):
        base = random_tbox(0, n_defined=20, n_primitive=8, n_roles=3)
        names = sorted(base.atomic_names())
        edit_rng = random.Random(4321)
        chain = [base]
        for _ in range(6):
            chain.append(random_tbox_edit(edit_rng, chain[-1]))

        recorder = Recorder()
        config = ServeConfig(
            port=0, edit_log=str(tmp_path / "editlog"), min_swap_interval_ms=50.0
        )
        statuses, errors = [], []
        reading, stop = threading.Event(), threading.Event()

        with use_recorder(recorder), faults.use_faults(plan):
            with ServerThread(base, config) as server:

                def reader():
                    read_rng = random.Random(99)
                    with server.client() as client:
                        while not stop.is_set():
                            try:
                                status, _body = client.request(
                                    "POST",
                                    "/v1/subsumes",
                                    {
                                        "general": read_rng.choice(names),
                                        "specific": read_rng.choice(names),
                                    },
                                )
                            except Exception as exc:  # noqa: BLE001
                                errors.append(repr(exc))
                                return
                            statuses.append(status)
                            reading.set()

                thread = threading.Thread(target=reader)
                thread.start()
                try:
                    assert reading.wait(30), "reader never got an answer"
                    # the throttle counts from boot: once it lapses, the
                    # first edit publishes synchronously and the rest of
                    # the back-to-back chain queues behind it
                    time.sleep(0.06)
                    acks = []
                    with server.client() as client:
                        for tbox in chain[1:]:
                            status, body = client.request(
                                "POST", "/v1/tbox", {"tbox": tbox_to_text(tbox)}
                            )
                            assert status == 200, body
                            acks.append((body["tbox_version"], body["swap_status"]))
                    wait_for_drain(server)
                finally:
                    stop.set()
                    thread.join(timeout=30)
                assert not thread.is_alive()
                status, served = server.request("POST", "/v1/classify", {})
                _status, metrics = server.request("GET", "/v1/metrics")

        assert not errors, errors[:3]
        assert statuses and set(statuses) == {200}
        assert [version for version, _ in acks] == list(range(2, 8))
        assert acks[0][1] == "applied", acks
        assert {"deferred", "coalesced"} & {swap for _, swap in acks}, acks
        brute = classify(chain[-1], algorithm="brute")
        groups = sorted(sorted(g) for g in brute.groups())
        assert status == 200
        assert served["tbox_version"] == 7
        assert served["groups"] == groups
        assert served["parents"] == {
            group[0]: sorted(brute.parents(group[0])) for group in groups
        }
        assert served["unsatisfiable"] == sorted(brute.equivalents("⊥") - {"⊥"})
        histograms = metrics["metrics"]["histograms"]
        assert histograms["serve.swap_visibility_ms"]["count"] == 6
        if plan is not faults.NULL_PLAN:
            assert recorder.counters["editlog.torn_writes_recovered"] >= 1


class TestPublishOrder:
    """Swap visibility is credited once the publish hooks return.

    On a ``--workers N`` front that hook is the broadcast to the workers,
    and the workers serve every read: an edit is not visible before the
    hook is done, on the applied path and the throttled path alike.
    """

    HOOK_S = 0.05

    @pytest.mark.parametrize(
        "throttle_ms, swap_status", [(0.0, "applied"), (400.0, "deferred")]
    )
    def test_visibility_sample_follows_the_hook(self, throttle_ms, swap_status):
        recorder = Recorder()

        def samples() -> int:
            histograms = recorder.snapshot()["histograms"]
            return histograms.get("serve.swap_visibility_ms", {}).get("count", 0)

        at_hook = []

        async def hook(old, prepared, record):
            at_hook.append(samples())
            await asyncio.sleep(self.HOOK_S)
            at_hook.append(samples())

        # the throttle counts from boot, so the 400 ms case defers the edit
        config = ServeConfig(port=0, min_swap_interval_ms=throttle_ms)
        with use_recorder(recorder):
            with ServerThread(parse_tbox(VEHICLES), config) as server:
                server.server.publish_hooks.append(hook)
                status, body = server.request(
                    "POST", "/v1/tbox", {"tbox": VEHICLES + "van [= motorvehicle"}
                )
                assert (status, body["swap_status"]) == (200, swap_status)
                wait_for_drain(server)
        assert at_hook == [0, 0]
        visibility = recorder.snapshot()["histograms"]["serve.swap_visibility_ms"]
        assert visibility["count"] == 1
        assert visibility["min"] >= self.HOOK_S * 1000.0
