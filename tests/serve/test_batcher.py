"""Batcher: coalescing, dedup fan-out, hierarchy fast path, version splits."""

import asyncio

import pytest

from repro.dl import Atomic, parse_tbox, some
from repro.obs import Recorder, use_recorder
from repro.robust import Budget
from repro.robust import faults
from repro.serve.batcher import (
    KIND_SATISFIABLE,
    KIND_SUBSUMES,
    Batcher,
    BatchAnswer,
)
from repro.serve.snapshot import Snapshot


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


def run_batch(batcher, snapshot, checks, budget=None):
    """Submit all checks concurrently; return their BatchAnswers in order."""
    budget = budget or Budget.unlimited()

    async def go():
        return await asyncio.gather(
            *(
                batcher.submit(kind, snapshot, concepts, budget)
                for kind, concepts in checks
            )
        )

    return asyncio.run(go())


class TestCoalescing:
    def test_concurrent_checks_share_one_batch(self):
        recorder = Recorder()
        snapshot = Snapshot(vehicles(), 1).prepare()
        batcher = Batcher(window_ms=20.0, max_batch=64)
        checks = [
            (KIND_SUBSUMES, (Atomic("motorvehicle"), Atomic("car"))),
            (KIND_SUBSUMES, (Atomic("car"), Atomic("pickup"))),
            (KIND_SATISFIABLE, (Atomic("pickup"),)),
        ]
        with use_recorder(recorder):
            answers = run_batch(batcher, snapshot, checks)
        assert [a.verdict.as_bool() for a in answers] == [True, False, True]
        assert recorder.counters["serve.batches"] == 1
        sizes = recorder.snapshot()["histograms"]["serve.batch_size"]
        assert sizes["count"] == 1 and sizes["max"] == 3.0

    def test_max_batch_flushes_early(self):
        recorder = Recorder()
        snapshot = Snapshot(vehicles(), 1).prepare()
        batcher = Batcher(window_ms=10_000.0, max_batch=2)
        checks = [
            (KIND_SATISFIABLE, (Atomic("car"),)),
            (KIND_SATISFIABLE, (Atomic("pickup"),)),
        ]
        with use_recorder(recorder):
            answers = run_batch(batcher, snapshot, checks)
        # a 10-second window would time the test out; size-2 flush must fire
        assert all(a.verdict.as_bool() for a in answers)
        assert recorder.counters["serve.batches"] == 1

    def test_duplicate_checks_fan_out_one_answer(self):
        recorder = Recorder()
        snapshot = Snapshot(vehicles(), 1).prepare()
        batcher = Batcher(window_ms=20.0, max_batch=64)
        same = (KIND_SUBSUMES, (Atomic("motorvehicle"), Atomic("car")))
        with use_recorder(recorder):
            answers = run_batch(batcher, snapshot, [same, same, same])
        assert all(a.verdict.as_bool() is True for a in answers)
        assert recorder.counters["serve.dedup_hits"] == 2
        # the underlying question ran once, from the hierarchy
        assert recorder.counters["serve.batched_hits"] == 1

    def test_unbatchable_kind_rejected(self):
        batcher = Batcher()
        snapshot = Snapshot(vehicles(), 1).prepare()

        async def go():
            await batcher.submit(
                "classify", snapshot, (), Budget.unlimited()
            )

        with pytest.raises(ValueError):
            asyncio.run(go())

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            Batcher(window_ms=-1.0)
        with pytest.raises(ValueError):
            Batcher(max_batch=0)

    def test_default_window_is_one_value(self):
        from repro.__main__ import build_parser
        from repro.serve import ServeConfig

        cli = build_parser().parse_args(["serve"]).batch_window_ms
        assert Batcher().window_ms == ServeConfig().batch_window_ms == cli == 3.0


class TestAnswerSources:
    def test_named_checks_use_hierarchy_not_tableau(self):
        recorder = Recorder()
        snapshot = Snapshot(vehicles(), 1).prepare()
        batcher = Batcher(window_ms=20.0, max_batch=64)
        checks = [
            (KIND_SUBSUMES, (Atomic("motorvehicle"), Atomic("car"))),
            (KIND_SATISFIABLE, (Atomic("car"),)),
        ]
        with use_recorder(recorder):
            answers = run_batch(batcher, snapshot, checks)
        assert [a.source for a in answers] == ["hierarchy", "hierarchy"]
        assert recorder.counters["serve.batched_hits"] == 2
        # the fast path does no tableau work at all
        assert "tableau.solve_calls" not in recorder.counters

    def test_complex_concepts_fall_back_to_governed_tableau(self):
        recorder = Recorder()
        snapshot = Snapshot(vehicles(), 1).prepare()
        batcher = Batcher(window_ms=20.0, max_batch=64)
        complex_check = (
            KIND_SATISFIABLE,
            (some("uses", Atomic("gasoline")),),
        )
        with use_recorder(recorder):
            (answer,) = run_batch(batcher, snapshot, [complex_check])
        assert answer.source == "tableau"
        assert answer.verdict.as_bool() is True
        assert recorder.counters["tableau.solve_calls"] > 0

    def test_unknown_name_falls_back_to_tableau(self):
        snapshot = Snapshot(vehicles(), 1).prepare()
        batcher = Batcher(window_ms=20.0, max_batch=64)
        (answer,) = run_batch(
            batcher,
            snapshot,
            [(KIND_SATISFIABLE, (Atomic("submarine"),))],
        )
        # not in the pre-classified hierarchy, but trivially satisfiable
        assert answer.source == "tableau"
        assert answer.verdict.as_bool() is True

    def test_undersized_budget_yields_unknown(self):
        snapshot = Snapshot(vehicles(), 1).prepare()
        batcher = Batcher(window_ms=20.0, max_batch=64)
        starved = Budget(max_nodes=1)
        (answer,) = run_batch(
            batcher,
            snapshot,
            [(KIND_SATISFIABLE, (some("uses", Atomic("gasoline")),))],
            budget=starved,
        )
        assert answer.source == "tableau"
        assert answer.verdict.is_unknown
        assert "max_nodes=1" in answer.verdict.reason


class TestVersionGrouping:
    def test_flush_straddling_swap_splits_by_snapshot(self):
        recorder = Recorder()
        old = Snapshot(vehicles(), 1).prepare()
        new = Snapshot(parse_tbox("car [= toy"), 2).prepare()
        batcher = Batcher(window_ms=30.0, max_batch=64)
        budget = Budget.unlimited()

        async def go():
            return await asyncio.gather(
                batcher.submit(
                    KIND_SUBSUMES, old, (Atomic("motorvehicle"), Atomic("car")), budget
                ),
                batcher.submit(
                    KIND_SUBSUMES, new, (Atomic("motorvehicle"), Atomic("car")), budget
                ),
            )

        with use_recorder(recorder):
            old_answer, new_answer = asyncio.run(go())
        # each request is answered from the snapshot it acquired:
        # v1 says car is a motorvehicle, v2 says it is only a toy
        assert old_answer.verdict.as_bool() is True
        assert new_answer.verdict.as_bool() is False
        assert recorder.counters["serve.batches"] == 1
        assert recorder.counters["serve.batch_splits"] == 1

    def test_flush_now_drains_pending(self):
        snapshot = Snapshot(vehicles(), 1).prepare()
        batcher = Batcher(window_ms=60_000.0, max_batch=64)

        async def go():
            task = asyncio.ensure_future(
                batcher.submit(
                    KIND_SATISFIABLE,
                    snapshot,
                    (Atomic("car"),),
                    Budget.unlimited(),
                )
            )
            await asyncio.sleep(0)  # let submit() enqueue
            assert batcher.pending == 1
            batcher.flush_now()
            answer = await task
            assert batcher.pending == 0
            return answer

        answer = asyncio.run(go())
        assert isinstance(answer, BatchAnswer)
        assert answer.verdict.as_bool() is True
