"""Unit tests for DL concept syntax and negation normal form."""

import pytest

from repro.dl import (
    BOTTOM,
    TOP,
    And,
    AtLeast,
    AtMost,
    Atomic,
    DLSyntaxError,
    Exists,
    Forall,
    Not,
    Or,
    Role,
    at_least,
    at_most,
    is_nnf,
    negate,
    only,
    some,
    to_nnf,
)

A, B, C = Atomic("A"), Atomic("B"), Atomic("C")


class TestConstruction:
    def test_and_flattens_and_dedupes(self):
        c = And.of([A, And.of([B, C]), A])
        assert isinstance(c, And)
        assert c.operands == (A, B, C)

    def test_and_absorbs_top(self):
        assert And.of([A, TOP]) == A
        assert And.of([TOP, TOP]) is TOP

    def test_or_absorbs_bottom(self):
        assert Or.of([A, BOTTOM]) == A
        assert Or.of([BOTTOM]) is BOTTOM

    def test_singleton_collapse(self):
        assert And.of([A]) == A
        assert Or.of([B]) == B

    def test_direct_binary_construction_requires_two(self):
        with pytest.raises(DLSyntaxError):
            And((A,))
        with pytest.raises(DLSyntaxError):
            Or((A,))

    def test_operator_sugar(self):
        assert (A & B) == And.of([A, B])
        assert (A | B) == Or.of([A, B])
        assert ~A == Not(A)

    def test_empty_names_rejected(self):
        with pytest.raises(DLSyntaxError):
            Atomic("")
        with pytest.raises(DLSyntaxError):
            Role("")

    def test_negative_cardinality_rejected(self):
        with pytest.raises(DLSyntaxError):
            at_least(-1, "r")
        with pytest.raises(DLSyntaxError):
            at_most(-2, "r")

    def test_names_and_roles_collected(self):
        c = And.of([A, some("r", B), at_least(4, "s", C)])
        assert c.atomic_names() == frozenset({"A", "B", "C"})
        assert c.role_names() == frozenset({"r", "s"})

    def test_size(self):
        assert A.size() == 1
        assert (A & B).size() == 3
        assert some("r", A).size() == 2

    def test_str_renderings(self):
        assert str(A & B) == "A ⊓ B"
        assert str(some("size", Atomic("small"))) == "∃size.small"
        assert str(at_least(4, "has", Atomic("wheel"))) == "≥4 has.wheel"
        assert str(~A) == "¬A"
        assert str(only("r", A | B)) == "∀r.(A ⊔ B)"


class TestNNF:
    def test_atomic_unchanged(self):
        assert to_nnf(A) == A
        assert to_nnf(Not(A)) == Not(A)

    def test_double_negation(self):
        assert to_nnf(Not(Not(A))) == A

    def test_de_morgan(self):
        assert to_nnf(Not(A & B)) == Or.of([Not(A), Not(B)])
        assert to_nnf(Not(A | B)) == And.of([Not(A), Not(B)])

    def test_quantifier_duality(self):
        assert to_nnf(Not(some("r", A))) == only("r", Not(A))
        assert to_nnf(Not(only("r", A))) == some("r", Not(A))

    def test_top_bottom_duality(self):
        assert to_nnf(Not(TOP)) is BOTTOM
        assert to_nnf(Not(BOTTOM)) is TOP

    def test_number_restriction_duality(self):
        assert to_nnf(Not(at_least(3, "r"))) == at_most(2, "r")
        assert to_nnf(Not(at_most(3, "r"))) == at_least(4, "r")

    def test_atleast_zero(self):
        assert to_nnf(at_least(0, "r")) is TOP
        assert to_nnf(Not(at_least(0, "r"))) is BOTTOM

    def test_nested_push(self):
        c = Not(And.of([A, some("r", Or.of([B, C]))]))
        nnf = to_nnf(c)
        assert is_nnf(nnf)
        assert nnf == Or.of([Not(A), only("r", And.of([Not(B), Not(C)]))])

    def test_negate_shorthand(self):
        assert negate(A) == Not(A)
        assert negate(Not(A)) == A

    def test_is_nnf(self):
        assert is_nnf(A & Not(B))
        assert not is_nnf(Not(A & B))
        assert is_nnf(some("r", Not(A)))
        assert not is_nnf(only("r", Not(some("s", A))))


class TestNNFMemoization:
    """The process-global interning cache behind to_nnf."""

    def _fresh(self):
        from repro.dl.nnf import nnf_cache_clear

        nnf_cache_clear()

    def test_second_conversion_hits_cache(self):
        from repro.dl.nnf import nnf_cache_size
        from repro.obs import Recorder, use_recorder

        self._fresh()
        c = Not(And.of([A, some("r", Or.of([B, C]))]))
        first = to_nnf(c)
        size_after_first = nnf_cache_size()
        assert size_after_first > 0
        recorder = Recorder()
        with use_recorder(recorder):
            second = to_nnf(c)
        assert second == first
        assert recorder.counters["nnf.cache_hits"] >= 1
        assert nnf_cache_size() == size_after_first

    def test_repeated_classification_converts_each_definition_once(self):
        """Reclassifying the same TBox does zero fresh NNF conversions."""
        from repro.corpora.generators import nonhorn_tbox
        from repro.dl import Reasoner
        from repro.dl.nnf import nnf_cache_size
        from repro.obs import Recorder, use_recorder

        self._fresh()
        # non-Horn, so classification opens the tableau, whose
        # construction converts every definition (an EL TBox whose
        # saturation is complete converts none: see the next test)
        tbox = nonhorn_tbox(0, families=2, disjunctions=1)
        Reasoner(tbox).classify()
        size_after_first = nnf_cache_size()
        assert size_after_first > 0
        recorder = Recorder()
        with use_recorder(recorder):
            Reasoner(tbox).classify()  # fresh reasoner, same definitions
        # every conversion the second run needed was already interned
        assert nnf_cache_size() == size_after_first
        assert recorder.counters["nnf.cache_hits"] > 0

    def test_el_classification_builds_no_tableau(self):
        """A complete saturation classifies without NNF or a tableau."""
        from repro.corpora.generators import random_tbox
        from repro.dl import Reasoner
        from repro.dl.nnf import nnf_cache_size

        self._fresh()
        tbox = random_tbox(3, n_defined=8, n_primitive=4, n_roles=2)
        reasoner = Reasoner(tbox)
        reasoner.classify()
        assert nnf_cache_size() == 0
        assert reasoner.cache_stats()["table"] == 0

    def test_cache_clear_resets(self):
        from repro.dl.nnf import nnf_cache_clear, nnf_cache_size

        to_nnf(Not(A & B))
        assert nnf_cache_size() > 0
        nnf_cache_clear()
        assert nnf_cache_size() == 0

    def test_full_cache_evicts_fifo_not_wholesale(self, monkeypatch):
        from repro.dl import nnf as nnf_mod
        from repro.obs import Recorder, use_recorder

        self._fresh()
        monkeypatch.setattr(nnf_mod, "_CACHE_CAP", 4)
        atoms = [Atomic(f"Evict{i}") for i in range(6)]
        recorder = Recorder()
        with use_recorder(recorder):
            for atom in atoms:
                to_nnf(atom)
        # two overflows evicted the two *oldest* entries, nothing more
        assert nnf_mod.nnf_cache_size() == 4
        assert recorder.counters["nnf.cache_evictions"] == 2
        recorder = Recorder()
        with use_recorder(recorder):
            for atom in atoms[2:]:
                to_nnf(atom)  # the four youngest are still warm
        assert recorder.counters["nnf.cache_hits"] == 4
        assert "nnf.cache_evictions" not in recorder.counters
        recorder = Recorder()
        with use_recorder(recorder):
            to_nnf(atoms[0])  # the oldest was the one retired
        assert "nnf.cache_hits" not in recorder.counters
        assert recorder.counters["nnf.cache_evictions"] == 1
        self._fresh()
