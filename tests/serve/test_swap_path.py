"""One swap path ≡ brute classification.

A TBox swap classifies the successor after adopting every reasoner
cache entry of the predecessor's that the edit's change-impact set
leaves valid (:meth:`repro.serve.snapshot.Snapshot.prepare`); an
unchanged axiom set keeps the predecessor's hierarchy.  The oracle for
both is ``classify(successor, algorithm="brute")``: after every swap of
a corpus edit chain, and of arbitrary add/remove deltas over a non-Horn
axiom pool (negation, an atomic equivalence, unsatisfiable churn), the
served hierarchy must equal it.  The carried cache entries themselves
are checked one by one against a fresh reasoner on the successor.
"""

import gc
import random
import weakref

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.corpora.generators import random_tbox, random_tbox_edit
from repro.dl import (
    And,
    Atomic,
    ConceptHierarchy,
    Not,
    Or,
    Reasoner,
    Subsumption,
    TBox,
    at_least,
    at_most,
    change_impact,
    classify,
    only,
    parse_axiom,
    parse_tbox,
    some,
)
from repro.obs import Recorder, use_recorder
from repro.robust import Budget
from repro.serve.snapshot import Snapshot, SnapshotManager

# a fixed pool of axioms covering told chains, role restrictions,
# negation (so edits can create/destroy unsatisfiable names), and an
# atomic equivalence; subsets of this pool are the edit space below
_POOL = [
    Subsumption(Atomic("A"), Atomic("B")),
    Subsumption(Atomic("B"), Atomic("C")),
    Subsumption(Atomic("C"), And.of([Atomic("D"), some("r", Atomic("E"))])),
    Subsumption(Atomic("D"), Atomic("E")),
    Subsumption(Atomic("E"), Not(Atomic("A"))),
    Subsumption(Atomic("F"), And.of([Atomic("A"), Not(Atomic("B"))])),
    parse_axiom("G = A & D"),
    Subsumption(Atomic("H"), some("s", Atomic("B"))),
]
_NAMES = sorted(TBox(_POOL).atomic_names())

#: a served TBox is a subset of the pool; an edit toggles one or two
#: pool axioms in or out, so predecessor and successor overlap and most
#: cache entries are candidates for carrying over
pool_subsets = st.sets(st.sampled_from(range(len(_POOL))))
pool_edits = st.sets(st.sampled_from(range(len(_POOL))), min_size=1, max_size=2)
#: unsatisfiable churn the properties always replay: adding A ⊑ B makes
#: A (and G ≡ A ⊓ D) unsatisfiable; adding A ⊑ B under F ⊑ A ⊓ ¬B makes F
UNSAT_CHURN = [({1, 2, 3, 4, 6}, {0}), ({5, 7}, {0})]


def pool_tbox(indices) -> TBox:
    return TBox([_POOL[i] for i in sorted(indices)])


def concepts():
    """Complex concepts over the pool's vocabulary and roles."""
    roles = st.sampled_from(["r", "s"])
    counts = st.integers(min_value=0, max_value=2)
    return st.recursive(
        st.sampled_from(_NAMES).map(Atomic),
        lambda inner: st.one_of(
            st.builds(some, roles, inner),
            st.builds(only, roles, inner),
            inner.map(Not),
            st.builds(lambda a, b: Or.of([a, b]), inner, inner),
            st.builds(at_least, counts, roles, inner),
            st.builds(at_most, counts, roles, inner),
        ),
        max_leaves=3,
    )


def assert_brute(hierarchy: ConceptHierarchy, tbox: TBox) -> None:
    brute = classify(tbox, algorithm="brute")
    assert hierarchy.groups() == brute.groups()
    assert hierarchy.group_of == brute.group_of
    assert hierarchy.poset == brute.poset
    assert hierarchy.top_equivalents() == brute.top_equivalents()
    assert not hierarchy.incomplete


def swap_and_check(manager: SnapshotManager, tbox: TBox) -> None:
    """Swap ``tbox`` in, check it, then check an unchanged re-post."""
    unchanged = frozenset(tbox.axioms) == frozenset(manager.current.tbox.axioms)
    manager.load_and_swap(tbox)
    assert manager.current.swap_mode == ("reused" if unchanged else "full")
    assert_brute(manager.current.hierarchy, tbox)
    kept = manager.current.hierarchy
    manager.load_and_swap(TBox(list(reversed(tbox.axioms))))
    assert manager.current.swap_mode == "reused"
    assert manager.current.hierarchy is kept


def cached_entries(reasoner: Reasoner):
    """Every sat/subsumption cache entry as (concepts, answer)."""
    concepts = reasoner._tableau.concepts
    for key, value in list(reasoner._sat_cache.items()):
        yield (concepts[key],), value
    for (general, specific), value in list(reasoner._subs_cache.items()):
        yield (concepts[general], concepts[specific]), value


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_edits=st.integers(min_value=1, max_value=4),
)
def test_swap_equals_brute_on_corpus_edit_chains(seed, n_edits):
    """Chains of corpus edits: every swap matches brute classification."""
    tbox = random_tbox(seed, n_defined=8, n_primitive=4, n_roles=2)
    manager = SnapshotManager(tbox)
    rng = random.Random(seed)
    for _ in range(n_edits):
        tbox = random_tbox_edit(rng, tbox)
        swap_and_check(manager, tbox)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(boot=pool_subsets, chain=st.lists(pool_edits, min_size=1, max_size=4))
@example(boot=UNSAT_CHURN[0][0], chain=[UNSAT_CHURN[0][1]] * 2)
@example(boot=UNSAT_CHURN[1][0], chain=[UNSAT_CHURN[1][1]] * 2)
def test_swap_equals_brute_on_non_horn_pool(boot, chain):
    """Add/remove edits over the non-Horn pool, incl. unsat churn."""
    indices = set(boot)
    manager = SnapshotManager(pool_tbox(indices))
    for toggled in chain:
        indices ^= toggled
        swap_and_check(manager, pool_tbox(indices))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(before=pool_subsets, toggled=pool_edits)
@example(before=UNSAT_CHURN[0][0], toggled=UNSAT_CHURN[0][1])
def test_swap_from_budget_starved_predecessor_equals_brute(before, toggled):
    """Unresolved questions of a starved predecessor are never carried."""
    predecessor = Snapshot(pool_tbox(before), 1)
    predecessor.hierarchy = ConceptHierarchy(
        predecessor.tbox,
        reasoner=predecessor.reasoner,
        budget=Budget(max_nodes=1),
    )
    after = pool_tbox(before ^ toggled)
    successor = Snapshot(after, 2).prepare(predecessor)
    assert successor.swap_mode == "full"
    assert_brute(successor.hierarchy, after)


class TestCarriedCaches:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        before=pool_subsets,
        toggled=pool_edits,
        asked=st.lists(concepts(), min_size=1, max_size=6),
        pairs=st.lists(st.tuples(concepts(), concepts()), max_size=6),
    )
    @example(
        before=UNSAT_CHURN[0][0],
        toggled=UNSAT_CHURN[0][1],
        asked=[Atomic("G"), some("r", Atomic("G"))],
        pairs=[(Atomic("B"), Atomic("G"))],
    )
    def test_carried_entries_answer_like_a_fresh_reasoner(
        self, before, toggled, asked, pairs
    ):
        old_tbox, new_tbox = pool_tbox(before), pool_tbox(before ^ toggled)
        manager = SnapshotManager(old_tbox)
        predecessor = manager.current.reasoner
        for concept in asked:
            predecessor.is_satisfiable(concept)
        for general, specific in pairs:
            predecessor.subsumes(general, specific)
        manager.load_and_swap(new_tbox)

        entries = dict(cached_entries(manager.current.reasoner))
        impact = change_impact(old_tbox, new_tbox)
        if impact is not None:
            # everything the edit cannot reach was carried over
            for concept in asked:
                if not concept.atomic_names() & impact:
                    assert (concept,) in entries
            for general, specific in pairs:
                if not (general.atomic_names() | specific.atomic_names()) & impact:
                    assert (general, specific) in entries
        fresh = Reasoner(new_tbox)
        for key, answer in entries.items():
            if len(key) == 1:
                assert answer == fresh.is_satisfiable(key[0]), key
            else:
                assert answer == fresh.subsumes(*key), key

    def test_carried_caches_save_tableau_work(self):
        """H's edit leaves every other cached pair valid."""
        before = pool_tbox(range(len(_POOL) - 1))
        after = pool_tbox(range(len(_POOL)))
        manager = SnapshotManager(before)
        carried, cold = Recorder(), Recorder()
        with use_recorder(carried):
            manager.load_and_swap(after)
        with use_recorder(cold):
            Reasoner(after).classify()
        assert_brute(manager.current.hierarchy, after)
        assert 0 < carried.counters["tableau.solve_calls"] < (
            cold.counters["tableau.solve_calls"]
        )

    def test_general_axiom_edit_has_no_impact_set(self):
        """No locality argument holds, so nothing is carried over."""
        manager = SnapshotManager(pool_tbox(range(len(_POOL))))
        edited = TBox([*manager.current.tbox.axioms, parse_axiom("B & D [= H")])
        recorder = Recorder()
        with use_recorder(recorder):
            manager.load_and_swap(edited)
        assert manager.current.reclassify_affected is None
        assert_brute(manager.current.hierarchy, edited)
        assert "reasoner.subs_cache_hits" not in recorder.counters


class TestReuseRule:
    def tbox(self):
        return random_tbox(2, n_defined=6, n_primitive=3, n_roles=2)

    def test_unchanged_repost_is_reused(self):
        manager = SnapshotManager(self.tbox())
        kept = manager.current.hierarchy
        manager.load_and_swap(TBox(list(self.tbox().axioms)))
        assert manager.current.swap_mode == "reused"
        assert manager.current.hierarchy is kept
        assert manager.current.reclassify_affected == frozenset()

    def test_reuse_does_no_classification_work(self):
        manager = SnapshotManager(pool_tbox(range(len(_POOL))))
        recorder = Recorder()
        with use_recorder(recorder):
            manager.load_and_swap(pool_tbox(range(len(_POOL))))
        assert manager.current.swap_mode == "reused"
        assert "hierarchy.classifications" not in recorder.counters
        assert "tableau.solve_calls" not in recorder.counters
        assert recorder.counters["reasoner.classify_cache_hits"] == 1

    def test_reused_hierarchy_is_the_successors_classify_answer(self):
        manager = SnapshotManager(self.tbox())
        manager.load_and_swap(self.tbox())
        assert manager.current.reasoner.classify() is manager.current.hierarchy

    def test_reused_hierarchy_does_not_keep_the_old_reasoner(self):
        manager = SnapshotManager(self.tbox())
        old = weakref.ref(manager.current.reasoner)
        manager.load_and_swap(self.tbox())
        gc.collect()
        assert manager.current.swap_mode == "reused"
        assert old() is None


class TestVocabularyChurn:
    def test_removed_name_leaves_the_hierarchy(self):
        manager = SnapshotManager(parse_tbox("A [= B\nC [= D"))
        manager.load_and_swap(parse_tbox("A [= B"))
        hierarchy = manager.current.hierarchy
        assert_brute(hierarchy, parse_tbox("A [= B"))
        assert "C" not in hierarchy.group_of
        assert "D" not in hierarchy.group_of

    def test_added_name_is_inserted(self):
        manager = SnapshotManager(parse_tbox("A [= B"))
        manager.load_and_swap(parse_tbox("A [= B\nNew [= A"))
        assert manager.current.reclassify_affected == frozenset({"New"})
        assert_brute(manager.current.hierarchy, parse_tbox("A [= B\nNew [= A"))
        assert manager.current.hierarchy.parents("New") == frozenset({"A"})
