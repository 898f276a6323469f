"""Governed tableau/reasoner services: verdicts, caching, escalation.

The contract under test: a starved budget yields UNKNOWN (never an
exception), a generous budget yields exactly the ungoverned boolean
answer, and only definite verdicts ever enter the caches.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dl import (
    And,
    Atomic,
    Not,
    Or,
    Reasoner,
    at_least,
    only,
    some,
)
from repro.dl.abox import ABox, ConceptAssertion
from repro.dl.tbox import Subsumption, TBox
from repro.obs import Recorder, use_recorder
from repro.robust import (
    Budget,
    PROVED,
    retry_with_escalation,
    faults,
)
from repro.robust.faults import FaultPlan, use_faults

A, B, C = Atomic("A"), Atomic("B"), Atomic("C")
_atoms = st.sampled_from([A, B, C])

#: ≥12 r-successors need 13 completion-graph nodes — reliably over a
#: 10-node budget, reliably under an unlimited one
WIDE = at_least(12, "r", A)


# module-scoped so hypothesis's function_scoped_fixture health check
# stays quiet; tests that want faults arm their own plan inside this
@pytest.fixture(autouse=True, scope="module")
def quiet_faults():
    """Definite-outcome assertions need the ambient fault plan disarmed."""
    with faults.suspended():
        yield


@st.composite
def concepts(draw, depth=2):
    if depth == 0:
        return draw(_atoms)
    kind = draw(st.integers(min_value=0, max_value=6))
    if kind == 0:
        return draw(_atoms)
    if kind == 1:
        return Not(draw(concepts(depth=depth - 1)))
    if kind == 2:
        return And.of([draw(concepts(depth=depth - 1)), draw(concepts(depth=depth - 1))])
    if kind == 3:
        return Or.of([draw(concepts(depth=depth - 1)), draw(concepts(depth=depth - 1))])
    if kind == 4:
        return some(draw(st.sampled_from(["r", "s"])), draw(concepts(depth=depth - 1)))
    if kind == 5:
        return only(draw(st.sampled_from(["r", "s"])), draw(concepts(depth=depth - 1)))
    return at_least(
        draw(st.integers(min_value=1, max_value=2)),
        draw(st.sampled_from(["r", "s"])),
        draw(concepts(depth=depth - 1)),
    )


class TestGovernedSatisfiability:
    def test_starved_budget_yields_unknown_not_exception(self):
        recorder = Recorder()
        with use_recorder(recorder):
            verdict = Reasoner().is_satisfiable_governed(WIDE, Budget(max_nodes=10))
        assert verdict.is_unknown
        assert "max_nodes=10" in verdict.reason
        assert recorder.counters["robust.exhaustions"] == 1
        assert recorder.counters["robust.unknown_verdicts"] == 1

    def test_generous_budget_matches_ungoverned(self):
        reasoner = Reasoner()
        verdict = reasoner.is_satisfiable_governed(WIDE, Budget(max_nodes=500))
        assert verdict == PROVED
        assert Reasoner().is_satisfiable(WIDE) is True

    def test_unknown_is_not_cached_definite_is(self):
        reasoner = Reasoner()
        assert reasoner.is_satisfiable_governed(WIDE, Budget(max_nodes=10)).is_unknown
        assert reasoner.cache_stats()["sat"] == 0  # a retry starts clean
        assert reasoner.is_satisfiable_governed(WIDE, Budget(max_nodes=500)) == PROVED
        assert reasoner.cache_stats()["sat"] == 1
        # and the cached answer now short-circuits even a starved call
        assert reasoner.is_satisfiable_governed(WIDE, Budget(max_nodes=1)) == PROVED

    def test_deadline_expiry_yields_unknown(self):
        verdict = Reasoner().is_satisfiable_governed(WIDE, Budget(max_ms=0.0))
        assert verdict.is_unknown
        assert "deadline" in verdict.reason

    def test_injected_exhaustion_recovered_by_escalation(self):
        reasoner = Reasoner()
        with use_faults(FaultPlan.always("exhaustion")):
            first = reasoner.is_satisfiable_governed(A, Budget(max_nodes=1000))
            assert first.is_unknown and "injected" in first.reason
            outcome = retry_with_escalation(
                lambda b: reasoner.is_satisfiable_governed(A, b),
                Budget(max_nodes=1000),
            )
        assert outcome.verdict == PROVED  # generation > 0 bypasses injection
        assert outcome.rounds == 1


class TestGovernedSubsumption:
    def test_matches_ungoverned_on_a_real_tbox(self):
        tbox = TBox([Subsumption(Atomic("car"), Atomic("vehicle"))])
        governed = Reasoner(tbox).subsumes_governed(
            Atomic("vehicle"), Atomic("car"), Budget(max_nodes=500)
        )
        assert governed == PROVED
        assert Reasoner(tbox).subsumes(Atomic("vehicle"), Atomic("car")) is True

    def test_unknown_subsumption_not_cached(self):
        reasoner = Reasoner()
        verdict = reasoner.subsumes_governed(B, WIDE, Budget(max_nodes=10))
        assert verdict.is_unknown
        assert not reasoner._subs_cache

    def test_disproved_subsumption_cross_seeds_sat_cache(self):
        reasoner = Reasoner()
        verdict = reasoner.subsumes_governed(B, A, Budget(max_nodes=500))
        assert verdict.is_definite and verdict.as_bool() is False
        # the witness model is reused: sat(A) is cached, no new tableau
        assert reasoner.cache_stats()["sat"] == 1
        assert reasoner.is_satisfiable_governed(A, Budget(max_nodes=1)) == PROVED


class TestGovernedABox:
    def test_consistency_and_instance_checking(self):
        tbox = TBox([Subsumption(Atomic("car"), Atomic("vehicle"))])
        abox = ABox([ConceptAssertion("herbie", Atomic("car"))])
        reasoner = Reasoner(tbox)
        assert reasoner.is_consistent_governed(abox, Budget(max_nodes=500)) == PROVED
        entailed = reasoner.is_instance_governed(
            abox, "herbie", Atomic("vehicle"), Budget(max_nodes=500)
        )
        assert entailed == PROVED
        not_entailed = reasoner.is_instance_governed(
            abox, "herbie", Atomic("boat"), Budget(max_nodes=500)
        )
        assert not_entailed.is_definite and not_entailed.as_bool() is False

    def test_starved_instance_check_is_unknown(self):
        tbox = TBox([Subsumption(Atomic("car"), WIDE)])
        abox = ABox([ConceptAssertion("herbie", Atomic("car"))])
        verdict = Reasoner(tbox).is_instance_governed(
            abox, "herbie", A, Budget(max_nodes=3)
        )
        assert verdict.is_unknown


class TestGovernedMatchesUngovernedProperty:
    """Acceptance: definite verdicts bit-identical with governance on/off."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(concepts())
    def test_satisfiability_agrees(self, concept):
        expected = Reasoner().is_satisfiable(concept)
        verdict = Reasoner().is_satisfiable_governed(concept, Budget(max_nodes=2000))
        assert verdict.is_definite
        assert verdict.as_bool() is expected

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(concepts(), concepts())
    def test_subsumption_agrees(self, general, specific):
        expected = Reasoner().subsumes(general, specific)
        verdict = Reasoner().subsumes_governed(
            general, specific, Budget(max_nodes=2000)
        )
        assert verdict.is_definite
        assert verdict.as_bool() is expected
