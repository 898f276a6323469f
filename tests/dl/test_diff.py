"""Unit tests for syntactic (axiom_diff) and semantic (tbox_diff) TBox diffing."""

from repro.corpora import animal_tbox, repaired_animal_tbox
from repro.dl import (
    TBox,
    axiom_diff,
    change_impact,
    parse_axiom,
    parse_tbox,
    tbox_diff,
)


class TestAxiomDiff:
    def test_self_diff_is_empty(self):
        tbox = parse_tbox("A [= B & some r.C\nD = A & B")
        delta = axiom_diff(tbox, tbox)
        assert delta.unchanged
        assert delta.added == frozenset()
        assert delta.removed == frozenset()
        assert delta.changed_names == frozenset()
        assert delta.names_added == frozenset()
        assert delta.names_removed == frozenset()
        assert not delta.general_changed
        assert delta.summary() == "no syntactic change"

    def test_axiom_identical_copy_is_no_op(self):
        before = parse_tbox("A [= B\nC [= D")
        after = TBox(list(before.axioms))
        assert axiom_diff(before, after).unchanged

    def test_added_concept(self):
        before = parse_tbox("A [= B")
        after = parse_tbox("A [= B\nNew [= A")
        delta = axiom_diff(before, after)
        assert delta.added == frozenset({parse_axiom("New [= A")})
        assert delta.removed == frozenset()
        assert delta.names_added == frozenset({"New"})
        assert delta.changed_names == frozenset({"New"})
        assert not delta.general_changed

    def test_removed_concept(self):
        before = parse_tbox("A [= B\nGone [= A & some r.B")
        after = parse_tbox("A [= B")
        delta = axiom_diff(before, after)
        assert delta.removed == frozenset({parse_axiom("Gone [= A & some r.B")})
        assert delta.changed_names == frozenset({"Gone"})
        # the role filler B survives; Gone and the role vocab vanish
        assert delta.names_removed == frozenset({"Gone"})

    def test_renamed_concept_is_remove_plus_add(self):
        before = parse_tbox("Old [= B & some r.C")
        after = parse_tbox("Fresh [= B & some r.C")
        delta = axiom_diff(before, after)
        assert delta.changed_names == frozenset({"Old", "Fresh"})
        assert delta.names_added == frozenset({"Fresh"})
        assert delta.names_removed == frozenset({"Old"})
        assert not delta.general_changed

    def test_role_change_marks_the_defined_name(self):
        before = parse_tbox("A [= some drives.B")
        after = parse_tbox("A [= some owns.B")
        delta = axiom_diff(before, after)
        assert delta.changed_names == frozenset({"A"})
        assert len(delta.added) == 1 and len(delta.removed) == 1
        assert not delta.general_changed

    def test_duplicate_axiom_is_no_change(self):
        before = parse_tbox("A [= B")
        after = TBox([parse_axiom("A [= B"), parse_axiom("A [= B")])
        assert axiom_diff(before, after).unchanged

    def test_general_gci_flags_general_changed(self):
        before = parse_tbox("A [= B")
        after = parse_tbox("A [= B\nB & C [= D")
        delta = axiom_diff(before, after)
        assert delta.general_changed

    def test_complex_equivalence_flags_general_changed(self):
        before = parse_tbox("A [= B")
        after = parse_tbox("A [= B\nE = B & some r.C")
        delta = axiom_diff(before, after)
        # the forward half is definitorial for E, the reverse half is a GCI
        assert "E" in delta.changed_names
        assert delta.general_changed

    def test_atomic_equivalence_marks_both_names(self):
        before = parse_tbox("A [= C")
        after = parse_tbox("A [= C\nA = B")
        delta = axiom_diff(before, after)
        assert delta.changed_names == frozenset({"A", "B"})
        assert not delta.general_changed

    def test_summary_lists_signed_axioms(self):
        before = parse_tbox("A [= B")
        after = parse_tbox("C [= B")
        summary = axiom_diff(before, after).summary()
        assert summary.count("+") == 1
        assert summary.count("-") == 1


class TestChangeImpact:
    def test_unchanged_axiom_set_has_empty_impact(self):
        before = parse_tbox("A [= B\nC [= D")
        assert change_impact(before, TBox(list(reversed(before.axioms)))) == set()

    def test_impact_is_dependents_plus_added_names(self):
        before = parse_tbox("A [= B\nC [= A & some r.D\nE [= D")
        after = parse_tbox("A [= B & New\nC [= A & some r.D\nE [= D")
        # C's definition mentions the edited A; E never reaches it
        assert change_impact(before, after) == {"A", "C", "New"}

    def test_general_gci_change_has_no_impact_set(self):
        before = parse_tbox("A [= B\nC [= B")
        after = parse_tbox("A [= B\nC [= B\nB & C [= D")
        assert change_impact(before, after) is None

    def test_edit_reaching_general_gci_vocabulary_has_no_impact_set(self):
        # the general axiom itself is unchanged, but the edited name B is
        # part of its vocabulary: no locality argument holds
        shared = "B & C [= D\nA [= B\nC [= E"
        before = parse_tbox(shared + "\nB [= E")
        after = parse_tbox(shared + "\nB [= E & F")
        assert change_impact(before, after) is None


class TestTBoxDiff:
    def test_no_change(self):
        tbox = parse_tbox("A [= B")
        diff = tbox_diff(tbox, parse_tbox("A [= B"))
        assert diff.unchanged
        assert diff.summary() == "no semantic change"
        assert ("A", "B") in diff.subsumptions_kept

    def test_syntactic_change_no_semantic_change(self):
        # same entailments, different axiom shapes
        before = parse_tbox("A [= B & C")
        after = parse_tbox("A [= B\nA [= C")
        assert tbox_diff(before, after).unchanged

    def test_gained_subsumption(self):
        before = parse_tbox("A [= B\nC [= B")
        after = parse_tbox("A [= B\nC [= A")
        diff = tbox_diff(before, after)
        assert ("C", "A") in diff.subsumptions_gained
        assert diff.subsumptions_lost == frozenset()
        assert diff.is_conservative

    def test_lost_subsumption(self):
        before = parse_tbox("A [= B\nB [= C")
        # drop B ⊑ C while keeping C in the vocabulary
        after = parse_tbox("A [= B\nC [= C")
        diff = tbox_diff(before, after)
        assert ("B", "C") in diff.subsumptions_lost
        assert ("A", "C") in diff.subsumptions_lost
        assert not diff.is_conservative

    def test_vocabulary_changes_reported_separately(self):
        before = parse_tbox("A [= B")
        after = parse_tbox("A [= B\nNew [= A")
        diff = tbox_diff(before, after)
        assert diff.names_added == frozenset({"New"})
        assert diff.subsumptions_gained == frozenset()
        assert diff.is_conservative

    def test_paper_repair_is_a_gain(self):
        """The (9)-(11) repair adds quadruped ⊑ animal without losing anything."""
        diff = tbox_diff(animal_tbox(), repaired_animal_tbox())
        assert ("quadruped", "animal") in diff.subsumptions_gained
        assert diff.subsumptions_lost == frozenset()
        assert diff.is_conservative
        assert "+⊑ quadruped ⊑ animal" in diff.summary()
