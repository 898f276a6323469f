"""Classification from one tableau model per name (the non-Horn path).

An unbudgeted classification of a TBox whose saturation keeps a
non-Horn residue takes its known subsumers from the saturation and
bounds the rest by the root label of one model per name; only the
root-label names that are not known are tested.  The oracle is
``classify(algorithm="brute")``.  The work counts pin the point of the
path: at most two tableau solves per name plus one, and a subsumption
cache that holds only what the tableau decided.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpora import nonhorn_tbox
from repro.dl import (
    And,
    Atomic,
    Not,
    Or,
    Reasoner,
    Saturation,
    Subsumption,
    TBox,
    classify,
    some,
)
from repro.obs import Recorder, use_recorder


def assert_equals_brute(hierarchy, tbox: TBox) -> None:
    brute = classify(tbox, algorithm="brute")
    assert hierarchy.groups() == brute.groups()
    assert hierarchy.group_of == brute.group_of
    assert hierarchy.poset == brute.poset
    assert hierarchy.top_equivalents() == brute.top_equivalents()


def classify_counted(tbox: TBox):
    reasoner = Reasoner(tbox)
    recorder = Recorder()
    with use_recorder(recorder):
        hierarchy = reasoner.classify()
    return reasoner, hierarchy, recorder.counters


def test_complex_read_corpus_costs_at_most_two_solves_per_name():
    tbox = nonhorn_tbox(0, families=9, disjunctions=1)
    names = len(tbox.atomic_names())
    assert names == 81 and not Saturation(tbox).complete
    reasoner, hierarchy, counters = classify_counted(tbox)
    assert hierarchy.algorithm == "saturation"
    assert counters["tableau.solve_calls"] <= 2 * names + 1
    assert counters["hierarchy.models"] == hierarchy.models == names + 1
    assert counters.get("saturation.tableau_fallbacks", 0) == 0
    # only answers the tableau decided are cached, none inferred
    assert reasoner.cache_stats()["subs"] == hierarchy.tableau_tests


def test_unsatisfiable_and_top_equivalent_names_equal_brute():
    a, b, c, d, e, f, g, h = (Atomic(n) for n in "ABCDEFGH")
    tbox = TBox(
        [
            Subsumption(a, And.of([b, Not(b)])),  # A ⊑ ⊥, via the residue
            Subsumption(g, some("r", a)),  # G ⊑ ⊥ through A
            Subsumption(Not(c), c),  # C ≡ ⊤
            Subsumption(h, Or.of([e, f])),
            Subsumption(e, f),  # H ⊑ F only by cases
            Subsumption(d, e),
        ]
    )
    reasoner, hierarchy, counters = classify_counted(tbox)
    assert hierarchy.algorithm == "saturation"
    assert counters["hierarchy.models"] == len(tbox.atomic_names()) + 1
    assert hierarchy.equivalents("⊥") == {"⊥", "A", "G"}
    assert hierarchy.top_equivalents() == {"C"}
    assert hierarchy.is_subsumed_by("H", "F")
    assert reasoner.cache_stats()["subs"] == hierarchy.tableau_tests > 0
    assert_equals_brute(hierarchy, tbox)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    families=st.integers(min_value=1, max_value=3),
    disjunctions=st.integers(min_value=0, max_value=3),
)
def test_nonhorn_corpus_equals_brute(seed, families, disjunctions):
    tbox = nonhorn_tbox(seed, families=families, disjunctions=disjunctions)
    reasoner, hierarchy, counters = classify_counted(tbox)
    assert hierarchy.algorithm == "saturation"
    assert counters["tableau.solve_calls"] <= 2 * len(tbox.atomic_names()) + 1
    assert reasoner.cache_stats()["subs"] == hierarchy.tableau_tests
    assert_equals_brute(hierarchy, tbox)
