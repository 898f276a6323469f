"""Tests for the deterministic fault-injection harness."""

import pytest

from repro.obs import Recorder, use_recorder
from repro.robust import Budget, BudgetExhausted, faults
from repro.robust.faults import (
    FaultPlan,
    NULL_PLAN,
    get_plan,
    plan_from_env,
    should_fire,
    use_faults,
)


class TestFaultPlan:
    def test_rejects_unknown_kinds(self):
        with pytest.raises(ValueError):
            FaultPlan({"exhaustion", "disk-on-fire"})
        with pytest.raises(ValueError):
            FaultPlan({"exhaustion"}, period=0)

    def test_schedule_is_deterministic(self):
        first = FaultPlan({"exhaustion"}, period=3, seed=7)
        second = FaultPlan({"exhaustion"}, period=3, seed=7)
        pattern = [first.fires("exhaustion") for _ in range(30)]
        assert pattern == [second.fires("exhaustion") for _ in range(30)]
        assert pattern.count(True) == 10  # every period-th activation

    def test_seed_shifts_the_schedule(self):
        base = FaultPlan({"deadline"}, period=5, seed=0)
        shifted = FaultPlan({"deadline"}, period=5, seed=1)
        base_pattern = [base.fires("deadline") for _ in range(20)]
        shifted_pattern = [shifted.fires("deadline") for _ in range(20)]
        assert base_pattern != shifted_pattern
        assert base_pattern.count(True) == shifted_pattern.count(True) == 4

    def test_sites_keep_their_own_schedules(self):
        shared = FaultPlan({"torn-write"}, period=5)
        split = FaultPlan({"torn-write"}, period=5)
        # other points' activations use up the shared counter's firing...
        assert [shared.fires("torn-write") for _ in range(2)] == [False, True]
        assert [shared.fires("torn-write") for _ in range(3)] == [False] * 3
        # ...but not a named site's, which keeps its own schedule
        assert [split.fires("torn-write") for _ in range(2)] == [False, True]
        assert [split.fires("torn-write", "append") for _ in range(3)] == [
            False,
            True,
            False,
        ]

    def test_unarmed_kind_never_fires(self):
        plan = FaultPlan.always("torn-write")
        assert not any(plan.fires("exhaustion") for _ in range(10))
        assert all(plan.fires("torn-write") for _ in range(10))


class TestCurrentPlan:
    def test_use_faults_restores_previous(self):
        before = get_plan()
        with use_faults(FaultPlan.always("exhaustion")) as plan:
            assert get_plan() is plan
        assert get_plan() is before

    def test_suspended_disarms(self):
        with use_faults(FaultPlan.always("exhaustion")):
            with faults.suspended():
                assert get_plan() is NULL_PLAN
                assert not should_fire("exhaustion")
            assert should_fire("exhaustion")

    def test_firing_increments_counter(self):
        recorder = Recorder()
        with use_recorder(recorder), use_faults(FaultPlan.always("torn-write")):
            assert should_fire("torn-write")
            assert should_fire("torn-write")
        assert recorder.counters["faults.fired.torn-write"] == 2

    def test_budget_consults_plan_on_first_generation_only(self):
        with use_faults(FaultPlan.always("exhaustion")):
            with pytest.raises(BudgetExhausted) as excinfo:
                Budget(max_nodes=1000).note_nodes(1)
            assert "injected" in excinfo.value.reason
            # escalated budgets bypass injection so recovery can converge
            Budget(max_nodes=1000).escalated().note_nodes(1)

    def test_deadline_injection(self):
        with use_faults(FaultPlan.always("deadline")):
            with pytest.raises(BudgetExhausted):
                Budget(max_ms=60_000).check_deadline()


class TestPlanFromEnv:
    def test_unset_yields_null_plan(self):
        assert plan_from_env({}) is NULL_PLAN
        assert plan_from_env({"REPRO_FAULTS": ""}) is NULL_PLAN

    def test_kinds_and_tuning(self):
        plan = plan_from_env(
            {
                "REPRO_FAULTS": "exhaustion, torn-write",
                "REPRO_FAULTS_PERIOD": "9",
                "REPRO_FAULTS_SEED": "4",
            }
        )
        assert plan.kinds == {"exhaustion", "torn-write"}
        assert plan.period == 9
        assert plan.seed == 4

    def test_unknown_kinds_ignored_not_fatal(self):
        plan = plan_from_env({"REPRO_FAULTS": "exhaustion,typo-kind"})
        assert plan.kinds == {"exhaustion"}
        assert plan_from_env({"REPRO_FAULTS": "typo-kind"}) is NULL_PLAN
