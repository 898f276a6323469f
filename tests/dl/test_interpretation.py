"""Tests for finite interpretations and tableau model extraction.

The property tests here are the reasoner's external audit: every model
the tableau claims to have found is re-checked by the independent
evaluator in ``repro.dl.interpretation``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpora import vehicle_tbox
from repro.dl import (
    And,
    Atomic,
    DLSyntaxError,
    Interpretation,
    Not,
    Or,
    Reasoner,
    TBox,
    at_least,
    at_most,
    only,
    parse_tbox,
    some,
)

A, B, C = Atomic("A"), Atomic("B"), Atomic("C")


def tiny() -> Interpretation:
    return Interpretation(
        domain=["x", "y", "z"],
        concepts={"A": ["x", "y"], "B": ["y"]},
        roles={"r": [("x", "y"), ("x", "z")]},
    )


class TestInterpretation:
    def test_atomic_and_boolean(self):
        m = tiny()
        assert m.satisfies("x", A)
        assert not m.satisfies("z", A)
        assert m.satisfies("y", A & B)
        assert m.satisfies("z", Not(A))
        assert m.satisfies("x", A | B)

    def test_quantifiers(self):
        m = tiny()
        assert m.satisfies("x", some("r", B))
        assert not m.satisfies("x", only("r", B))  # z is not B
        assert m.satisfies("y", only("r", B))      # vacuously: no successors

    def test_number_restrictions(self):
        m = tiny()
        assert m.satisfies("x", at_least(2, "r"))
        assert not m.satisfies("x", at_least(3, "r"))
        assert m.satisfies("x", at_most(1, "r", B))
        assert not m.satisfies("x", at_most(0, "r", B))

    def test_extension(self):
        m = tiny()
        assert m.extension(A) == frozenset({"x", "y"})
        assert m.extension(some("r", B)) == frozenset({"x"})

    def test_satisfies_tbox(self):
        m = tiny()
        assert m.satisfies_tbox(parse_tbox("B [= A"))
        assert not m.satisfies_tbox(parse_tbox("A [= B"))

    def test_validation(self):
        with pytest.raises(DLSyntaxError):
            Interpretation([])
        with pytest.raises(DLSyntaxError):
            Interpretation(["x"], concepts={"A": ["ghost"]})
        with pytest.raises(DLSyntaxError):
            Interpretation(["x"], roles={"r": [("x", "ghost")]})
        with pytest.raises(DLSyntaxError):
            tiny().satisfies("ghost", A)


class TestModelExtraction:
    def test_simple_witness(self):
        r = Reasoner()
        concept = A & some("r", B & Not(A))
        model = r.extract_model(concept)
        assert model is not None
        assert any(model.satisfies(e, concept) for e in model.domain)

    def test_unsat_yields_none(self):
        r = Reasoner()
        assert r.extract_model(A & Not(A)) is None

    def test_number_restriction_witness(self):
        r = Reasoner()
        concept = at_least(3, "r", A) & at_most(3, "r")
        model = r.extract_model(concept)
        assert model is not None
        assert any(model.satisfies(e, concept) for e in model.domain)

    def test_witness_with_tbox_unfolding(self):
        r = Reasoner(vehicle_tbox())
        model = r.extract_model(Atomic("car"))
        assert model is not None
        element = next(iter(model.extension(Atomic("car"))))
        # the unfolded consequences hold at the witness
        assert model.satisfies(element, some("uses", Atomic("gasoline")))
        assert model.satisfies(element, at_least(4, "has", Atomic("wheel")))

    def test_cyclic_tbox_blocked_model(self):
        # A ⊑ ∃r.A: the blocked graph unravels into a finite cyclic model
        tbox = parse_tbox("A [= some r.A")
        r = Reasoner(tbox)
        model = r.extract_model(Atomic("A"))
        assert model is not None
        element = next(iter(model.extension(Atomic("A"))))
        # following r from A always reaches another A
        assert model.satisfies(element, some("r", Atomic("A")))


# ---------------------------------------------------------------------- #
# property-based: the tableau's verdicts audited by the evaluator
# ---------------------------------------------------------------------- #

atoms = st.sampled_from([A, B, C])


@st.composite
def concepts(draw, depth=3):
    if depth == 0:
        return draw(atoms)
    kind = draw(st.integers(min_value=0, max_value=7))
    if kind == 0:
        return draw(atoms)
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
    if kind == 6:
        return at_least(
            draw(st.integers(min_value=1, max_value=3)),
            draw(st.sampled_from(["r", "s"])),
            draw(concepts(depth=depth - 1)),
        )
    n = draw(st.integers(min_value=0, max_value=2))
    role = draw(st.sampled_from(["r", "s"]))
    if draw(st.booleans()):
        return at_most(n, role)
    return at_most(n, role, draw(concepts(depth=depth - 1)))


@settings(max_examples=80, deadline=None)
@given(concepts())
def test_extracted_models_verify(concept):
    r = Reasoner()
    model = r.extract_model(concept)
    if model is not None:
        assert any(model.satisfies(e, concept) for e in model.domain)


@settings(max_examples=60, deadline=None)
@given(concepts())
def test_concept_or_negation_satisfiable(concept):
    r = Reasoner()
    # excluded middle at the meta level: C and ¬C cannot both be unsat
    assert r.is_satisfiable(concept) or r.is_satisfiable(Not(concept))
