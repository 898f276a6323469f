"""Acceptance tests: graceful degradation end to end.

Under a starved budget, ``classify()`` on a TBox with a non-Horn residue
and materialization on the B1-style random workload complete without
raising, report their unknown/skipped sets, and ``retry_with_escalation``
resolves every UNKNOWN verdict at the default cap.
"""

import pytest

from repro.corpora.generators import nonhorn_tbox, random_tbox
from repro.corpora.vehicles import vehicle_tbox
from repro.dl import Atomic, Reasoner, TOP, classify
from repro.dl.hierarchy import BOTTOM_NAME, TOP_NAME
from repro.robust import Budget, faults, retry_with_escalation
from repro.store import TripleStore, materialize, materialize_governed

STARVED_NODES = 10
#: the residue TBox's models need up to 9 completion-graph nodes
STARVED_MODEL_NODES = 3


def residue_tbox():
    """The non-Horn TBox the B6 bench classifies.

    Its residue takes one tableau model per name, which a starved budget
    can starve; an EL TBox is read off its saturation with no tableau.
    """
    return nonhorn_tbox(0, families=3, disjunctions=1)


def _concept_of(name):
    if name == TOP_NAME:
        return TOP
    return Atomic(name)


@pytest.fixture(autouse=True)
def quiet_faults():
    """This module measures *real* exhaustion, not injected faults."""
    with faults.suspended():
        yield


class TestGovernedClassification:
    def test_starved_classify_degrades_instead_of_raising(self):
        tbox = residue_tbox()
        hierarchy = classify(tbox, budget=Budget(max_nodes=STARVED_MODEL_NODES))
        assert hierarchy.incomplete  # the budget must actually bite
        assert not hierarchy.complete
        for specific, general in hierarchy.incomplete:
            assert isinstance(specific, str) and isinstance(general, str)

    def test_every_unknown_edge_resolves_at_the_default_cap(self):
        tbox = residue_tbox()
        hierarchy = classify(tbox, budget=Budget(max_nodes=STARVED_MODEL_NODES))
        assert hierarchy.incomplete
        oracle = Reasoner(tbox)
        resolver = Reasoner(tbox)
        for specific, general in sorted(hierarchy.incomplete):
            if general == BOTTOM_NAME:
                # recorded by an unknown satisfiability check on `specific`
                outcome = retry_with_escalation(
                    lambda b, s=specific: resolver.is_satisfiable_governed(
                        _concept_of(s), b
                    ),
                    Budget(max_nodes=STARVED_MODEL_NODES),
                )
                expected = oracle.is_satisfiable(_concept_of(specific))
            else:
                outcome = retry_with_escalation(
                    lambda b, s=specific, g=general: resolver.subsumes_governed(
                        _concept_of(g), _concept_of(s), b
                    ),
                    Budget(max_nodes=STARVED_MODEL_NODES),
                )
                expected = oracle.subsumes(_concept_of(general), _concept_of(specific))
            assert outcome.verdict.is_definite, (specific, general)
            assert outcome.verdict.as_bool() is expected, (specific, general)

    def test_whole_run_escalation_converges_to_the_ungoverned_answer(self):
        tbox = residue_tbox()
        baseline = classify(tbox)
        reasoner = Reasoner(tbox)
        budget = Budget(max_nodes=STARVED_MODEL_NODES)
        hierarchy = classify(tbox, reasoner=reasoner, budget=budget)
        rounds = 0
        while hierarchy.incomplete and rounds < 4:
            rounds += 1
            budget = budget.escalated()
            hierarchy = classify(tbox, reasoner=reasoner, budget=budget)
        assert hierarchy.complete
        assert hierarchy.groups() == baseline.groups()

    def test_complete_hierarchy_cached_partial_not(self):
        tbox = residue_tbox()
        reasoner = Reasoner(tbox)
        partial = reasoner.classify(budget=Budget(max_nodes=STARVED_MODEL_NODES))
        assert partial.incomplete
        # the partial answer must not have been cached
        second = reasoner.classify(budget=Budget(max_nodes=STARVED_MODEL_NODES))
        assert second is not partial
        full = reasoner.classify()
        assert full.complete
        # a cached complete hierarchy beats any budget
        assert reasoner.classify(budget=Budget(max_nodes=1)) is full


class TestGovernedMaterialization:
    def _store(self):
        store = TripleStore()
        store.update(
            [
                ("herbie", "type", "car"),
                ("bigfoot", "type", "pickup"),
                ("herbie", "uses", "premium_gasoline"),
            ]
        )
        return store

    def test_starved_materialization_reports_skips(self):
        report = materialize_governed(
            self._store(), vehicle_tbox(), budget=Budget(max_nodes=3)
        )
        assert report.skipped  # someone must have run out of budget
        assert not report.complete
        for individual, reason in report.skipped.items():
            # role objects (premium_gasoline) are individuals too
            assert individual in {"herbie", "bigfoot", "premium_gasoline"}
            assert reason
        # told facts always survive into the output store
        assert ("herbie", "type", "car") in report.store

    def test_generous_budget_matches_ungoverned_materialize(self):
        expected = materialize(self._store(), vehicle_tbox())
        report = materialize_governed(
            self._store(), vehicle_tbox(), budget=Budget(max_nodes=2000)
        )
        assert report.complete
        assert report.consistency.is_definite and report.consistency.as_bool()
        assert set(report.store) == set(expected)

    def test_decided_facts_are_sound_under_starvation(self):
        full = set(materialize(self._store(), vehicle_tbox()))
        report = materialize_governed(
            self._store(), vehicle_tbox(), budget=Budget(max_nodes=40)
        )
        # whatever was decided within budget is a subset of the truth
        assert set(report.store) <= full

    def test_b1_workload_materialization_never_raises(self):
        tbox = random_tbox(5, n_defined=12, n_primitive=6, n_roles=2)
        names = sorted(tbox.atomic_names())
        store = TripleStore()
        store.update(
            [(f"ind{i}", "type", names[i * 3 % len(names)]) for i in range(6)]
        )
        report = materialize_governed(store, tbox, budget=Budget(max_nodes=STARVED_NODES))
        assert report.consistency.is_definite  # escalated until definite
        full = set(materialize(store, tbox))
        assert set(report.store) <= full
