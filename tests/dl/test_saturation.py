"""Consequence-based Horn/EL saturation: normalizer, residue, equality.

Three layers, matching the fast path's obligations:

* **normalizer units** — each of the four normal-form shapes (``A ⊑ B``,
  ``A ⊓ B ⊑ C``, ``A ⊑ ∃r.B``, ``∃r.A ⊑ B``) plus the EL-compatible
  sugar (⊔ on the left, ≥0/≥1/≥n on the right, ⊥/⊤ ends) derives exactly
  the consequences the completion rules promise;
* **residue detection** — every non-Horn constructor placement lands the
  axiom in ``residue`` and flips ``complete`` off, while the rules that
  *were* emitted stay sound (True answers remain trustworthy);
* **equal hierarchies** — classification by saturation must equal the
  brute-force answer on random TBoxes, including budget-governed runs
  that leave pairs in ``hierarchy.incomplete``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpora import random_tbox
from repro.dl import (
    BOTTOM,
    TOP,
    And,
    Atomic,
    Equivalence,
    Not,
    Or,
    Reasoner,
    Saturation,
    Subsumption,
    TBox,
    at_least,
    at_most,
    classify,
    only,
    some,
)
from repro.obs import Recorder, use_recorder
from repro.robust import Budget, faults

A, B, C, D = Atomic("A"), Atomic("B"), Atomic("C"), Atomic("D")


def _sat(*axioms) -> Saturation:
    return Saturation(TBox(list(axioms)))


class TestNormalizerShapes:
    """One test per normal-form axiom shape."""

    def test_atomic_subsumption(self):
        sat = _sat(Subsumption(A, B))
        assert sat.complete
        assert sat.subsumes_names("A", "B") is True
        assert sat.subsumes_names("B", "A") is False

    def test_transitive_chain(self):
        sat = _sat(Subsumption(A, B), Subsumption(B, C))
        assert sat.subsumes_names("A", "C") is True

    def test_conjunction_on_the_left(self):
        # A ⊑ B ⊓ C and B ⊓ C ⊑ D: CR1 needs both premise bits
        sat = _sat(Subsumption(A, And.of([B, C])), Subsumption(And.of([B, C]), D))
        assert sat.complete
        assert sat.subsumes_names("A", "D") is True
        # B alone does not fire the conjunction rule
        assert sat.subsumes_names("B", "D") is False

    def test_conjunction_on_the_right_distributes(self):
        sat = _sat(Subsumption(A, And.of([B, C])))
        assert sat.subsumes_names("A", "B") is True
        assert sat.subsumes_names("A", "C") is True

    def test_exists_on_the_right_and_left(self):
        # A ⊑ ∃r.B, ∃r.B ⊑ C: CR2 introduces the edge, CR3 consumes it
        sat = _sat(Subsumption(A, some("r", B)), Subsumption(some("r", B), C))
        assert sat.complete
        assert sat.subsumes_names("A", "C") is True

    def test_exists_respects_the_role(self):
        sat = _sat(Subsumption(A, some("r", B)), Subsumption(some("s", B), C))
        assert sat.subsumes_names("A", "C") is False

    def test_exists_filler_subsumer_triggers_cr3(self):
        # A ⊑ ∃r.B, B ⊑ C, ∃r.C ⊑ D: the filler's *derived* subsumer counts
        sat = _sat(
            Subsumption(A, some("r", B)),
            Subsumption(B, C),
            Subsumption(some("r", C), D),
        )
        assert sat.subsumes_names("A", "D") is True

    def test_nested_exists_uses_fresh_atoms(self):
        sat = _sat(
            Subsumption(A, some("r", some("s", B))),
            Subsumption(some("s", B), C),
            Subsumption(some("r", C), D),
        )
        assert sat.complete
        assert sat.subsumes_names("A", "D") is True

    def test_disjunction_on_the_left_splits(self):
        # (A ⊔ B) ⊑ C is Horn: both disjuncts get the rule
        sat = _sat(Subsumption(Or.of([A, B]), C))
        assert sat.complete
        assert sat.subsumes_names("A", "C") is True
        assert sat.subsumes_names("B", "C") is True

    def test_top_and_bottom_ends(self):
        sat = _sat(Subsumption(TOP, A), Subsumption(BOTTOM, B))
        assert sat.complete
        # ⊤ ⊑ A makes A universal; ⊥ ⊑ B is trivially valid
        assert sat.subsumes_names("C", "A") is True
        assert sat.subsumes_names("A", "B") is False

    def test_bottom_on_the_right_poisons(self):
        sat = _sat(Subsumption(A, B), Subsumption(B, BOTTOM))
        assert sat.satisfiable("A") is False
        # an unsatisfiable LHS is below everything
        assert sat.subsumes_names("A", "C") is True

    def test_cr4_propagates_bottom_over_edges(self):
        # A ⊑ ∃r.B and B ⊑ ⊥: no model can build the successor
        sat = _sat(Subsumption(A, some("r", B)), Subsumption(B, BOTTOM))
        assert sat.satisfiable("A") is False

    def test_equivalence_contributes_both_directions(self):
        sat = _sat(Equivalence(A, And.of([B, C])))
        assert sat.subsumes_names("A", "B") is True
        # the back direction: anything that is B ⊓ C is A
        sat2 = _sat(Equivalence(A, And.of([B, C])), Subsumption(D, And.of([B, C])))
        assert sat2.subsumes_names("D", "A") is True

    def test_atleast_zero_and_one(self):
        # ≥0 is ⊤ (vacuous), ≥1 is ∃
        sat = _sat(Subsumption(A, at_least(0, "r", B)))
        assert sat.complete
        sat = _sat(
            Subsumption(A, at_least(1, "r", B)), Subsumption(some("r", B), C)
        )
        assert sat.complete
        assert sat.subsumes_names("A", "C") is True

    def test_atleast_n_weakened_to_exists_stays_complete(self):
        # ≥3 r.B on the right weakens to ∃r.B — with no ∀/≤ around, a
        # canonical model duplicates successors, so this is still complete
        sat = _sat(
            Subsumption(A, at_least(3, "r", B)), Subsumption(some("r", B), C)
        )
        assert sat.complete
        assert sat.subsumes_names("A", "C") is True

    def test_unknown_name_only_under_top(self):
        sat = _sat(Subsumption(A, B))
        assert sat.subsumes_names("Ghost", "⊤") is True
        assert sat.subsumes_names("Ghost", "A") is False
        assert sat.satisfiable("Ghost") is True


class TestResidueDetection:
    """Every non-Horn placement must land in the residue."""

    def test_negation_on_the_right(self):
        sat = _sat(Subsumption(A, Not(B)))
        assert not sat.complete
        assert len(sat.residue) == 1

    def test_negation_on_the_left(self):
        sat = _sat(Subsumption(Not(A), B))
        assert not sat.complete

    def test_disjunction_on_the_right(self):
        sat = _sat(Subsumption(A, Or.of([B, C])))
        assert not sat.complete

    def test_forall_on_the_right(self):
        sat = _sat(Subsumption(A, only("r", B)))
        assert not sat.complete

    def test_atmost_on_the_right(self):
        sat = _sat(Subsumption(A, at_most(1, "r", B)))
        assert not sat.complete

    def test_atleast_n_on_the_left(self):
        sat = _sat(Subsumption(at_least(2, "r", A), B))
        assert not sat.complete

    def test_exists_of_non_el_filler_on_the_right(self):
        sat = _sat(Subsumption(A, some("r", Not(B))))
        assert not sat.complete

    def test_incomplete_negative_answers_are_none(self):
        sat = _sat(Subsumption(A, Not(B)), Subsumption(A, C))
        assert sat.subsumes_names("A", "C") is True  # emitted rule: sound
        assert sat.subsumes_names("C", "A") is None  # can't trust a 'no'
        assert sat.satisfiable("A") is None

    def test_partial_emission_keeps_derived_half(self):
        # A ⊑ B ⊓ ∀r.C: the ∀ lands the axiom in the residue, but the
        # A ⊑ B half is still emitted and still sound
        sat = _sat(Subsumption(A, And.of([B, only("r", C)])))
        assert not sat.complete
        assert sat.subsumes_names("A", "B") is True

    def test_corpus_tboxes_are_complete(self):
        for seed in (0, 3, 11):
            tbox = random_tbox(seed, n_defined=8, n_primitive=4, n_roles=2)
            assert Saturation(tbox).complete


class TestCountersAndReuse:
    def test_rules_fired_counted(self):
        recorder = Recorder()
        with use_recorder(recorder):
            sat = _sat(Subsumption(A, B), Subsumption(B, C))
            assert sat.subsumes_names("A", "C") is True
        assert recorder.counters["saturation.rules_fired"] > 0

    def test_reasoner_caches_one_saturation_per_revision(self):
        tbox = TBox([Subsumption(A, B)])
        reasoner = Reasoner(tbox)
        first = reasoner.saturation()
        assert reasoner.saturation() is first
        tbox.add(Subsumption(B, C))
        assert reasoner.saturation() is not first

    def test_saturation_classification_runs_zero_tableau_tests(self):
        tbox = random_tbox(0, n_defined=10, n_primitive=4, n_roles=2)
        for budget in (None, Budget(max_nodes=10_000)):
            recorder = Recorder()
            with use_recorder(recorder):
                hierarchy = classify(tbox, budget=budget)
            assert hierarchy.algorithm == "saturation"
            assert recorder.counters.get("tableau.solve_calls", 0) == 0

    def test_budgeted_residue_builds_one_model_per_name(self):
        # a non-Horn axiom under a budget takes the same path as without
        # one: the saturation answers the Horn part, and one model per
        # name (and one for ⊤) bounds the rest
        # A ⊑ C follows through the ∃-chain GCI; D's axiom is non-Horn
        tbox = TBox(
            [
                Subsumption(A, some("r", B)),
                Subsumption(some("r", B), C),
                Subsumption(D, Or.of([B, Not(C)])),
            ]
        )
        recorder = Recorder()
        with use_recorder(recorder), faults.suspended():
            hierarchy = classify(tbox, budget=Budget(max_nodes=10_000))
        assert not Saturation(tbox).complete and not hierarchy.incomplete
        assert hierarchy.models == recorder.counters["hierarchy.models"] == 5
        brute = classify(tbox, algorithm="brute")
        assert hierarchy.groups() == brute.groups()
        assert hierarchy.poset == brute.poset


# -- equal hierarchies ---------------------------------------------------- #

_NAMES = ["A", "B", "C", "D", "E"]
_ROLES = ["r", "s"]
_atoms = st.sampled_from([Atomic(n) for n in _NAMES])


@st.composite
def _concepts(draw, depth=2):
    if depth == 0:
        return draw(_atoms)
    kind = draw(st.integers(min_value=0, max_value=4))
    if kind == 0:
        return draw(_atoms)
    if kind == 1:
        return Not(draw(_concepts(depth=depth - 1)))
    if kind == 2:
        return And.of(
            [draw(_concepts(depth=depth - 1)), draw(_concepts(depth=depth - 1))]
        )
    if kind == 3:
        return Or.of(
            [draw(_concepts(depth=depth - 1)), draw(_concepts(depth=depth - 1))]
        )
    return some(draw(st.sampled_from(_ROLES)), draw(_concepts(depth=depth - 1)))


@st.composite
def _axioms(draw):
    left = draw(_atoms)
    right = draw(_concepts())
    if draw(st.booleans()):
        return Subsumption(left, right)
    return Equivalence(left, right)


_tboxes = st.lists(_axioms(), min_size=1, max_size=5).map(TBox)


def _assert_saturation_matches(tbox: TBox) -> None:
    fast = classify(tbox, algorithm="saturation")
    brute = classify(tbox, algorithm="brute")
    assert fast.groups() == brute.groups()
    assert fast.group_of == brute.group_of
    assert fast.poset == brute.poset
    assert fast.top_equivalents() == brute.top_equivalents()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_tboxes)
def test_saturation_equals_brute_on_random_axioms(tbox):
    """Saturation (arbitrary ALCQ⁻ axioms, residue or not) agrees."""
    _assert_saturation_matches(tbox)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_defined=st.integers(min_value=2, max_value=10),
)
def test_saturation_equals_brute_on_corpus_tboxes(seed, n_defined):
    """Pure-EL corpus TBoxes take the zero-tableau path and still agree."""
    tbox = random_tbox(seed, n_defined=n_defined, n_primitive=4, n_roles=2)
    assert Saturation(tbox).complete
    _assert_saturation_matches(tbox)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(_tboxes)
def test_budget_governed_saturation_lands_pairs_in_incomplete(tbox):
    """A starved run records its open questions instead of guessing.

    Unresolved questions go to ``hierarchy.incomplete`` as name pairs
    (never a wrong edge); a starved run that leaves nothing open is the
    full hierarchy.
    """
    starved = classify(tbox, algorithm="saturation", budget=Budget(max_nodes=1))
    full = classify(tbox, algorithm="brute")
    if not starved.incomplete:
        # everything was answered within the budget — then the starved
        # hierarchy must simply BE the full one
        assert starved.groups() == full.groups()
        assert starved.poset == full.poset
        return
    names = set(full.group_of) | {"⊤", "⊥"}
    for specific, general in starved.incomplete:
        assert specific in names and general in names
