"""Unit tests for TBox classification."""

import pytest

from repro.corpora.vehicles import vehicle_tbox
from repro.dl import (
    BOTTOM_NAME,
    TOP,
    TOP_NAME,
    Atomic,
    Equivalence,
    Not,
    Subsumption,
    TBox,
    classify,
    parse_tbox,
)
from repro.obs import Recorder, use_recorder
from repro.robust import Budget, faults
from repro.robust.faults import FaultPlan

A, B, C = Atomic("A"), Atomic("B"), Atomic("C")

ALGORITHMS = ["saturation", "brute"]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
class TestClassification:
    def test_chain(self, algorithm):
        h = classify(
            TBox([Subsumption(A, B), Subsumption(B, C)]), algorithm=algorithm
        )
        assert h.is_subsumed_by("A", "C")
        assert not h.is_subsumed_by("C", "A")
        assert h.poset.leq("A", "B")

    def test_top_and_bottom_present(self, algorithm):
        h = classify(TBox([Subsumption(A, B)]), algorithm=algorithm)
        assert h.poset.top() == TOP_NAME
        assert h.poset.bottom() == BOTTOM_NAME

    def test_parents_children(self, algorithm):
        h = classify(
            TBox([Subsumption(A, B), Subsumption(B, C)]), algorithm=algorithm
        )
        assert h.parents("A") == frozenset({"B"})
        assert h.children("C") == frozenset({"B"})
        assert h.parents("C") == frozenset({TOP_NAME})

    def test_ancestors_descendants(self, algorithm):
        h = classify(
            TBox([Subsumption(A, B), Subsumption(B, C)]), algorithm=algorithm
        )
        assert h.ancestors("A") == frozenset({"B", "C", TOP_NAME})
        assert h.descendants("C") == frozenset({"A", "B", BOTTOM_NAME})

    def test_equivalent_names_grouped(self, algorithm):
        h = classify(TBox([Equivalence(A, B)]), algorithm=algorithm)
        assert h.group_of["A"] == h.group_of["B"]
        assert h.equivalents("A") == frozenset({"A", "B"})

    def test_told_cycle_grouped(self, algorithm):
        h = classify(
            TBox([Subsumption(A, B), Subsumption(B, A)]), algorithm=algorithm
        )
        assert h.equivalents("A") == frozenset({"A", "B"})
        assert h.group_of["A"] == h.group_of["B"]

    def test_unsatisfiable_name_maps_to_bottom(self, algorithm):
        h = classify(
            TBox([Subsumption(A, B), Subsumption(A, Not(B))]),
            algorithm=algorithm,
        )
        assert h.group_of["A"] == BOTTOM_NAME

    def test_vehicle_hierarchy(self, algorithm):
        h = classify(vehicle_tbox(), algorithm=algorithm)
        assert h.is_subsumed_by("car", "motorvehicle")
        assert h.is_subsumed_by("car", "roadvehicle")
        assert h.is_subsumed_by("pickup", "motorvehicle")
        assert not h.is_subsumed_by("car", "pickup")
        # car sits under BOTH superclasses: a DAG, not a tree (paper §2)
        assert not h.poset.is_tree()
        assert h.parents("car") == frozenset({"motorvehicle", "roadvehicle"})

    def test_inferred_subsumption_not_told(self, algorithm):
        tbox = parse_tbox(
            """
            A = B & C
            D [= B & C
            """
        )
        h = classify(tbox, algorithm=algorithm)
        # D ⊑ B ⊓ C ≡ A, so D is classified under A without being told
        assert h.is_subsumed_by("D", "A")

    def test_pretty_renders_all_names(self, algorithm):
        h = classify(vehicle_tbox(), algorithm=algorithm)
        text = h.pretty()
        for name in ("car", "pickup", "motorvehicle", "roadvehicle"):
            assert name in text
        assert text.splitlines()[0] == TOP_NAME


class TestEquivalentsTopBottom:
    """Regression: equivalents(⊤) / equivalents(⊥) used to raise KeyError."""

    def test_top_equivalents_plain(self):
        h = classify(TBox([Subsumption(A, B)]))
        assert h.equivalents(TOP_NAME) == frozenset({TOP_NAME})
        assert h.top_equivalents() == frozenset()

    def test_bottom_equivalents_plain(self):
        h = classify(TBox([Subsumption(A, B)]))
        assert h.equivalents(BOTTOM_NAME) == frozenset({BOTTOM_NAME})

    def test_bottom_collects_unsatisfiable_names(self):
        h = classify(TBox([Subsumption(A, B), Subsumption(A, Not(B))]))
        assert h.equivalents(BOTTOM_NAME) == frozenset({BOTTOM_NAME, "A"})
        assert h.equivalents("A") == frozenset({BOTTOM_NAME, "A"})

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_named_concept_equivalent_to_top(self, algorithm):
        # ⊤ ⊑ A forces A ≡ ⊤; with A ⊑ B, B is dragged up to ⊤ as well
        tbox = TBox([Subsumption(TOP, A), Subsumption(A, B)])
        h = classify(tbox, algorithm=algorithm)
        assert h.top_equivalents() == frozenset({"A", "B"})
        assert h.equivalents(TOP_NAME) == frozenset({TOP_NAME, "A", "B"})
        assert h.equivalents("A") == frozenset({TOP_NAME, "A", "B"})
        assert h.group_of["A"] == TOP_NAME
        assert "≡" in h.pretty().splitlines()[0]

    def test_unknown_name_raises(self):
        h = classify(TBox([Subsumption(A, B)]))
        with pytest.raises(KeyError):
            h.equivalents("nonexistent")

    def test_groups_partition_satisfiable_names(self):
        tbox = vehicle_tbox()
        h = classify(tbox)
        flat = {name for group in h.groups() for name in group}
        # groups() covers exactly the satisfiable, non-⊤ names; vehicles
        # has no unsatisfiable or ⊤-equivalent names, so that's all of them
        assert flat == set(tbox.atomic_names())
        assert sum(len(g) for g in h.groups()) == len(flat)


class TestToldSubsumers:
    def test_transitive_told_subsumers(self):
        tbox = parse_tbox("A [= B\nB [= C")
        h = classify(tbox)
        # A ⊑ C is told only transitively; the saturation derives it
        assert h.is_subsumed_by("A", "C")


def _classify_counting(tbox, **kwargs):
    """Classify under a fresh recorder; return (hierarchy, tableau count)."""
    recorder = Recorder()
    with use_recorder(recorder):
        h = classify(tbox, **kwargs)
    return h, recorder.counters.get("hierarchy.tableau_subsumptions", 0)


class TestAlgorithms:
    def test_invalid_algorithm_rejected(self):
        # "auto" and "enhanced" are retired: a budget governs the one
        # saturation path instead of switching algorithms
        for algorithm in ("magic", "auto", "enhanced"):
            with pytest.raises(ValueError):
                classify(TBox([Subsumption(A, B)]), algorithm=algorithm)

    def test_budgeted_matches_brute_on_vehicles(self):
        tbox = vehicle_tbox()
        with faults.suspended():
            hs, saturation_tests = _classify_counting(
                tbox, budget=Budget(max_nodes=100_000)
            )
        hb, brute_tests = _classify_counting(tbox, algorithm="brute")
        assert hs.algorithm == "saturation" and not hs.incomplete
        assert hs.groups() == hb.groups()
        assert hs.poset == hb.poset
        # the EL corpus is read off its saturation, budget or not
        assert saturation_tests == hs.tableau_tests == 0 < brute_tests


class TestStarvedModels:
    def test_starved_model_of_an_equivalent_name_still_groups_it(self):
        # A ⊑ B is Horn; B ⊑ A and B ⊑ C hold only by cases.  This fault
        # schedule starves A's test for C while B's model proves both, so
        # A keeps its saturated mask {A, B} and B gets {A, B, C}: closing
        # the partial masks groups A with B instead of leaving a cycle
        tbox = parse_tbox("A [= B\nB [= A | ~B\nB [= C | ~B")
        with faults.use_faults(FaultPlan({"exhaustion"}, period=25, seed=12)):
            h = classify(tbox, budget=Budget(max_nodes=1000))
        assert ("A", "C") not in h.incomplete  # the closure answers it
        assert h.equivalents("A") == frozenset({"A", "B"})
        assert h.is_subsumed_by("A", "C")  # A ⊑ B ⊑ C, by transitivity
