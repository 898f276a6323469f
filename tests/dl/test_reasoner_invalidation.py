"""Regression tests: Reasoner caches vs in-place TBox mutation.

Before the revision guard, a Reasoner built over a TBox that was later
mutated kept serving answers from ``_sat_cache``/``_subs_cache`` computed
against the old axioms — silently stale.  These tests pin the fix: the
revision guard picks up :meth:`TBox.add`/:meth:`TBox.remove` (and any
mutation that changes the axiom count), and :meth:`Reasoner.invalidate`
covers everything else.
"""

from repro.dl import Atomic, Reasoner, Subsumption, TBox
from repro.obs import Recorder, use_recorder
from repro.robust import Budget


A, B, C = Atomic("A"), Atomic("B"), Atomic("C")


class TestRevisionGuard:
    def test_added_axiom_changes_subsumption_answer(self):
        tbox = TBox([Subsumption(B, C)])
        reasoner = Reasoner(tbox)
        # caches the negative answer
        assert not reasoner.subsumes(B, A)
        tbox.add(Subsumption(A, B))
        # the stale-answer bug: without the guard this still said False
        assert reasoner.subsumes(B, A)
        assert reasoner.subsumes(C, A)

    def test_added_axiom_changes_satisfiability_answer(self):
        from repro.dl.syntax import Not

        tbox = TBox([Subsumption(A, B)])
        reasoner = Reasoner(tbox)
        assert reasoner.is_satisfiable(A)
        tbox.add(Subsumption(A, Not(B)))
        assert not reasoner.is_satisfiable(A)

    def test_removed_axiom_changes_answer(self):
        tbox = TBox([Subsumption(A, B)])
        reasoner = Reasoner(tbox)
        assert reasoner.subsumes(B, A)
        tbox.remove(tbox.axioms[0])
        assert not reasoner.subsumes(B, A)

    def test_direct_append_is_caught_by_length_component(self):
        # revision also tracks len(axioms), so even unmanaged mutation
        # through the public list is detected
        tbox = TBox()
        reasoner = Reasoner(tbox)
        assert not reasoner.subsumes(B, A)
        tbox.axioms.append(Subsumption(A, B))
        assert reasoner.subsumes(B, A)

    def test_invalidation_is_counted(self):
        tbox = TBox()
        reasoner = Reasoner(tbox)
        recorder = Recorder()
        with use_recorder(recorder):
            assert not reasoner.subsumes(B, A)
            tbox.add(Subsumption(A, B))
            assert reasoner.subsumes(B, A)
        assert recorder.counters.get("reasoner.invalidations") == 1


class TestExplicitInvalidate:
    def test_invalidate_clears_caches(self):
        tbox = TBox([Subsumption(A, B)])
        reasoner = Reasoner(tbox)
        assert reasoner.subsumes(B, A)
        assert reasoner._subs_cache
        reasoner.invalidate()
        assert not reasoner._subs_cache
        assert not reasoner._sat_cache
        # answers still correct after a rebuild
        assert reasoner.subsumes(B, A)

    def test_invalidate_rebuilds_tableau_absorption(self):
        # the tableau's absorption split is computed at construction; a
        # mutation must rebuild it, not just clear the caches
        tbox = TBox()
        reasoner = Reasoner(tbox)
        assert not reasoner.subsumes(B, A)
        tbox.add(Subsumption(A, B))
        reasoner.invalidate()
        tableau = reasoner._tableau
        aid = tableau.concepts.get(A)
        assert aid is not None and aid in tableau._lazy_mask


class TestTBoxRevision:
    def test_revision_moves_on_add_and_remove(self):
        tbox = TBox()
        r0 = tbox.revision
        axiom = Subsumption(A, B)
        tbox.add(axiom)
        r1 = tbox.revision
        assert r1 != r0
        tbox.remove(axiom)
        assert tbox.revision not in (r0, r1)

    def test_add_rejects_non_axioms(self):
        import pytest

        from repro.dl.syntax import DLSyntaxError

        tbox = TBox()
        with pytest.raises(DLSyntaxError):
            tbox.add("not an axiom")


class TestClassifyCache:
    def test_classify_returns_cached_object(self):
        reasoner = Reasoner(TBox([Subsumption(A, B)]))
        recorder = Recorder()
        with use_recorder(recorder):
            first = reasoner.classify()
            second = reasoner.classify()
        assert first is second
        assert recorder.counters["reasoner.classify_cache_misses"] == 1
        assert recorder.counters["reasoner.classify_cache_hits"] == 1

    def test_cache_keyed_by_configuration(self):
        reasoner = Reasoner(TBox([Subsumption(A, B)]))
        saturation = reasoner.classify()
        brute = reasoner.classify(algorithm="brute")
        assert saturation is not brute
        assert saturation.poset == brute.poset
        assert reasoner.classify(algorithm="brute") is brute
        # a budget governs the same run, so it shares the saturation entry
        assert reasoner.classify(budget=Budget(max_nodes=1)) is saturation

    def test_tbox_mutation_invalidates_hierarchy(self):
        tbox = TBox([Subsumption(A, B)])
        reasoner = Reasoner(tbox)
        stale = reasoner.classify()
        assert "C" not in stale.group_of
        tbox.add(Subsumption(B, C))
        fresh = reasoner.classify()
        assert fresh is not stale
        assert fresh.is_subsumed_by("A", "C")
