"""Unit tests for the tableau and the reasoning services."""

import pytest

from repro.corpora.vehicles import vehicle_tbox
from repro.dl import (
    ABox,
    And,
    Atomic,
    BOTTOM,
    ConceptAssertion,
    ConceptHierarchy,
    Equivalence,
    Not,
    Or,
    Reasoner,
    ReasonerError,
    Role,
    RoleAssertion,
    Subsumption,
    TBox,
    TOP,
    at_least,
    at_most,
    only,
    parse_concept,
    parse_tbox,
    some,
)
from repro.robust import Budget

A, B, C = Atomic("A"), Atomic("B"), Atomic("C")


class TestSatisfiabilityNoTBox:
    def test_atomic_satisfiable(self):
        assert Reasoner().is_satisfiable(A)

    def test_contradiction(self):
        assert not Reasoner().is_satisfiable(A & Not(A))

    def test_top_bottom(self):
        r = Reasoner()
        assert r.is_satisfiable(TOP)
        assert not r.is_satisfiable(BOTTOM)

    def test_disjunction_branching(self):
        r = Reasoner()
        assert r.is_satisfiable((A | B) & Not(A))
        assert not r.is_satisfiable((A | B) & Not(A) & Not(B))

    def test_exists_forall_interaction(self):
        r = Reasoner()
        # ∃r.A ⊓ ∀r.¬A is unsatisfiable
        assert not r.is_satisfiable(some("r", A) & only("r", Not(A)))
        # ∃r.A ⊓ ∀r.B is fine
        assert r.is_satisfiable(some("r", A) & only("r", B))

    def test_forall_propagates_through_chain(self):
        r = Reasoner()
        c = some("r", some("s", A)) & only("r", only("s", Not(A)))
        assert not r.is_satisfiable(c)

    def test_number_restrictions_conflict(self):
        r = Reasoner()
        # ≥3 r ⊓ ≤2 r is unsatisfiable
        assert not r.is_satisfiable(at_least(3, "r") & at_most(2, "r"))
        assert r.is_satisfiable(at_least(2, "r") & at_most(2, "r"))

    def test_atleast_with_incompatible_forall(self):
        r = Reasoner()
        c = at_least(2, "r", A) & only("r", Not(A))
        assert not r.is_satisfiable(c)

    def test_atmost_merging_satisfies(self):
        r = Reasoner()
        # two ∃-successors can merge to satisfy ≤1 r
        c = some("r", A) & some("r", B) & at_most(1, "r")
        assert r.is_satisfiable(c)

    def test_atmost_merging_fails_on_clash(self):
        r = Reasoner()
        c = some("r", A) & some("r", Not(A)) & at_most(1, "r")
        assert not r.is_satisfiable(c)

    def test_atleast_zero_trivial(self):
        assert Reasoner().is_satisfiable(at_least(0, "r"))


class TestQualifiedAtMost:
    """The choose-rule: ≤n r.C with C ≠ ⊤."""

    def test_qualified_conflict(self):
        r = Reasoner()
        assert not r.is_satisfiable(at_least(3, "r", A) & at_most(2, "r", A))
        assert r.is_satisfiable(at_least(2, "r", A) & at_most(2, "r", A))

    def test_merge_candidates_only(self):
        r = Reasoner()
        # two A-successors with incompatible decorations cannot merge
        c = at_most(1, "r", A) & some("r", A & B) & some("r", A & Not(B))
        assert not r.is_satisfiable(c)
        # compatible decorations merge fine
        c = at_most(1, "r", A) & some("r", A & B) & some("r", A & C)
        assert r.is_satisfiable(c)

    def test_choose_rule_can_classify_successor_as_non_filler(self):
        r = Reasoner()
        # the B-successor need not be an A: choose ¬A for it
        assert r.is_satisfiable(at_most(0, "r", A) & some("r", B))
        assert not r.is_satisfiable(at_most(0, "r", A) & some("r", A))

    def test_non_candidates_do_not_count(self):
        r = Reasoner()
        # three successors but only two can be A-instances
        c = (
            at_most(2, "r", A)
            & at_least(2, "r", A)
            & some("r", B & Not(A))
        )
        assert r.is_satisfiable(c)

    def test_paper_query_now_decidable(self):
        # pickup ⊑ ≥4 has.wheel: the negation is the qualified ≤3 has.wheel
        r = Reasoner(vehicle_tbox())
        assert r.subsumes(parse_concept(">= 4 has.wheel"), Atomic("pickup"))
        assert not r.subsumes(parse_concept(">= 5 has.wheel"), Atomic("pickup"))

    def test_interaction_with_forall(self):
        r = Reasoner()
        # all r-successors are A, there are 3 of them, at most 2 may be A
        c = at_least(3, "r") & only("r", A) & at_most(2, "r", A)
        assert not r.is_satisfiable(c)


class TestTBoxReasoning:
    def test_told_subsumption(self):
        r = Reasoner(TBox([Subsumption(A, B)]))
        assert r.subsumes(B, A)
        assert not r.subsumes(A, B)

    def test_transitive_subsumption(self):
        r = Reasoner(TBox([Subsumption(A, B), Subsumption(B, C)]))
        assert r.subsumes(C, A)

    def test_equivalence_axiom(self):
        r = Reasoner(TBox([Equivalence(A, B & C)]))
        assert r.subsumes(B, A)
        assert r.subsumes(A, B & C)
        assert r.equivalent(A, B & C)

    def test_defined_concept_via_equivalence_back_direction(self):
        # A ≡ B ⊓ C: anything that is B ⊓ C must be A
        r = Reasoner(TBox([Equivalence(A, B & C)]))
        assert r.subsumes(A, And.of([B, C]))

    def test_general_gci(self):
        # non-atomic lhs: B ⊓ C ⊑ A
        r = Reasoner(TBox([Subsumption(B & C, A)]))
        assert r.subsumes(A, B & C)
        assert not r.subsumes(A, B)

    def test_unsatisfiable_concept_via_tbox(self):
        r = Reasoner(TBox([Subsumption(A, B), Subsumption(A, Not(B))]))
        assert not r.is_satisfiable(A)
        assert r.unsatisfiable_names() == ["A"]
        assert not r.is_coherent()

    def test_cyclic_tbox_terminates_by_blocking(self):
        # A ⊑ ∃r.A is satisfiable in an infinite (or blocked-loop) model
        r = Reasoner(TBox([Subsumption(A, some("r", A))]))
        assert r.is_satisfiable(A)

    def test_cyclic_tbox_with_contradiction(self):
        tbox = TBox(
            [
                Subsumption(A, some("r", A) & B),
                Subsumption(B, Not(A) | C,),
                Subsumption(C, Not(B)),
            ]
        )
        r = Reasoner(tbox)
        # A forces B; B forces ¬A ⊔ C; ¬A clashes, so C; C forces ¬B: clash
        assert not r.is_satisfiable(A)

    def test_disjoint(self):
        r = Reasoner(TBox([Subsumption(A, Not(B))]))
        assert r.disjoint(A, B)
        assert not r.disjoint(A, C)

    def test_vehicle_tbox_coherent(self):
        r = Reasoner(vehicle_tbox())
        assert r.is_coherent()
        assert r.subsumes(Atomic("motorvehicle"), Atomic("car"))
        assert r.subsumes(parse_concept("some uses.gasoline"), Atomic("car"))
        assert not r.subsumes(Atomic("car"), Atomic("motorvehicle"))

    def test_subsumption_cache_consistency(self):
        r = Reasoner(TBox([Subsumption(A, B)]))
        assert r.subsumes(B, A)
        assert r.subsumes(B, A)  # cached path


class TestABox:
    def kb(self):
        tbox = parse_tbox(
            """
            car [= motorvehicle
            motorvehicle [= some uses.gasoline
            """
        )
        abox = ABox(
            [
                ConceptAssertion("herbie", Atomic("car")),
                ConceptAssertion("trigger", Atomic("horse")),
                RoleAssertion("herbie", "fuel1", Role("uses")),
            ]
        )
        return Reasoner(tbox), abox

    def test_consistent(self):
        r, abox = self.kb()
        assert r.is_consistent(abox)

    def test_inconsistent_direct_clash(self):
        r, _ = self.kb()
        abox = ABox(
            [
                ConceptAssertion("x", Atomic("car")),
                ConceptAssertion("x", Not(Atomic("motorvehicle"))),
            ]
        )
        assert not r.is_consistent(abox)

    def test_instance_checking(self):
        r, abox = self.kb()
        assert r.is_instance(abox, "herbie", Atomic("motorvehicle"))
        assert r.is_instance(abox, "herbie", parse_concept("some uses.gasoline"))
        assert not r.is_instance(abox, "trigger", Atomic("motorvehicle"))

    def test_instance_unknown_individual(self):
        r, abox = self.kb()
        with pytest.raises(ReasonerError):
            r.is_instance(abox, "ghost", Atomic("car"))

    def test_retrieve(self):
        r, abox = self.kb()
        assert r.retrieve(abox, Atomic("motorvehicle")) == ["herbie"]

    def test_unique_name_assumption_with_atmost(self):
        tbox = TBox([Subsumption(A, at_most(1, "r"))])
        abox = ABox(
            [
                ConceptAssertion("a", A),
                RoleAssertion("a", "b", Role("r")),
                RoleAssertion("a", "c", Role("r")),
            ]
        )
        r = Reasoner(tbox)
        # b and c are distinct named individuals: ≤1 r is violated
        assert not r.is_consistent(abox)

    def test_empty_abox_consistent(self):
        r, _ = self.kb()
        assert r.is_consistent(ABox())


class TestSatCacheCrossSeeding:
    def test_failed_subsumption_seeds_sat_cache(self):
        from repro.obs import Recorder, use_recorder

        reasoner = Reasoner(TBox([Subsumption(A, B)]))
        recorder = Recorder()
        with use_recorder(recorder):
            # B ⋢ A, so the test concept B ⊓ ¬A has a model — and that
            # model witnesses sat(B), which cross-seeds the sat cache
            assert not reasoner.subsumes(A, B)
            assert recorder.counters["reasoner.sat_cross_seeds"] == 1
            assert reasoner.known_satisfiability(B) is True
            assert reasoner.is_satisfiable(B)
        # the sat check above was answered from the seeded cache
        assert recorder.counters["reasoner.sat_cache_hits"] == 1
        assert "reasoner.sat_cache_misses" not in recorder.counters

    def test_positive_subsumption_does_not_seed(self):
        reasoner = Reasoner(TBox([Subsumption(A, B)]))
        assert reasoner.subsumes(B, A)  # test concept unsatisfiable
        assert reasoner.known_satisfiability(A) is None

    def test_known_satisfiability_never_runs_tableau(self):
        from repro.obs import Recorder, use_recorder

        reasoner = Reasoner(TBox([Subsumption(A, B)]))
        recorder = Recorder()
        with use_recorder(recorder):
            assert reasoner.known_satisfiability(A) is None
        assert "tableau.solve_calls" not in recorder.counters

    def test_classification_reuses_cross_seeded_answers(self):
        from repro.obs import Recorder, use_recorder

        reasoner = Reasoner(vehicle_tbox())
        recorder = Recorder()
        with use_recorder(recorder):
            # pin enhanced: the auto default classifies this EL corpus by
            # saturation and never opens a tableau, so no cross-seeding
            reasoner.classify(algorithm="enhanced")
        assert recorder.counters.get("reasoner.sat_cross_seeds", 0) > 0
        assert recorder.counters.get("reasoner.sat_cache_hits", 0) > 0


class TestResolveAlgorithm:
    """``"auto"`` is resolved once, by the reasoner, for every caller."""

    TBOXES = {
        "el": "car [= motorvehicle & some size.small\nmotorvehicle [= vehicle",
        "non_horn": "car [= motorvehicle & ~pickup\npickup [= motorvehicle",
    }

    @pytest.mark.parametrize(
        "shape, budgeted, expected",
        [
            ("el", False, "saturation"),
            ("el", True, "enhanced"),
            ("non_horn", False, "enhanced"),
            ("non_horn", True, "enhanced"),
        ],
    )
    def test_classify_and_hierarchy_agree(self, shape, budgeted, expected):
        budget = Budget(max_nodes=10_000) if budgeted else None
        tbox = parse_tbox(self.TBOXES[shape])
        reasoner = Reasoner(tbox)
        assert reasoner.resolve_algorithm("auto", budget) == expected
        assert reasoner.classify(budget=budget).algorithm == expected
        direct = ConceptHierarchy(tbox, algorithm="auto", budget=budget)
        assert direct.algorithm == expected

    def test_explicit_algorithms_pass_through(self):
        reasoner = Reasoner(parse_tbox(self.TBOXES["el"]))
        for algorithm in ("enhanced", "brute", "saturation"):
            assert reasoner.resolve_algorithm(algorithm) == algorithm
