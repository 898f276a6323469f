"""Meta-property audit of the tableau reasoner.

Logical laws the reasoner must respect regardless of input: subsumption
is a preorder, equivalences the NNF transformation promises really hold,
and satisfiability behaves correctly under the Boolean structure.  These
run against randomly generated concepts, so they police exactly the code
paths hand-written cases miss.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dl import (
    And,
    Atomic,
    BOTTOM,
    Not,
    Or,
    Reasoner,
    TOP,
    at_least,
    at_most,
    negate,
    only,
    some,
    to_nnf,
)

A, B, C = Atomic("A"), Atomic("B"), Atomic("C")
_atoms = st.sampled_from([A, B, C])


@st.composite
def concepts(draw, depth=2):
    if depth == 0:
        return draw(_atoms)
    kind = draw(st.integers(min_value=0, max_value=7))
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
    if kind == 6:
        return at_least(
            draw(st.integers(min_value=1, max_value=2)),
            draw(st.sampled_from(["r", "s"])),
            draw(concepts(depth=depth - 1)),
        )
    n = draw(st.integers(min_value=0, max_value=2))
    role = draw(st.sampled_from(["r", "s"]))
    if draw(st.booleans()):
        return at_most(n, role)
    return at_most(n, role, draw(concepts(depth=depth - 1)))


@settings(max_examples=60, deadline=None)
@given(concepts())
def test_subsumption_reflexive(c):
    assert Reasoner().subsumes(c, c)


@settings(max_examples=40, deadline=None)
@given(concepts(), concepts(), concepts())
def test_subsumption_transitive(a, b, c):
    r = Reasoner()
    if r.subsumes(b, a) and r.subsumes(c, b):
        assert r.subsumes(c, a)


@settings(max_examples=60, deadline=None)
@given(concepts())
def test_everything_under_top_bottom_under_everything(c):
    r = Reasoner()
    assert r.subsumes(TOP, c)
    assert r.subsumes(c, BOTTOM)


@settings(max_examples=60, deadline=None)
@given(concepts())
def test_nnf_preserves_equivalence(c):
    r = Reasoner()
    assert r.equivalent(c, to_nnf(c))


@settings(max_examples=60, deadline=None)
@given(concepts())
def test_negation_is_complement(c):
    r = Reasoner()
    # C ⊓ ¬C is unsatisfiable; C ⊔ ¬C is ⊤
    assert not r.is_satisfiable(And.of([c, negate(c)]))
    assert r.subsumes(Or.of([c, negate(c)]), TOP)


@settings(max_examples=60, deadline=None)
@given(concepts(), concepts())
def test_conjunction_subsumed_by_conjuncts(a, b):
    r = Reasoner()
    conjunction = And.of([a, b])
    assert r.subsumes(a, conjunction)
    assert r.subsumes(b, conjunction)


@settings(max_examples=60, deadline=None)
@given(concepts(), concepts())
def test_disjunction_subsumes_disjuncts(a, b):
    r = Reasoner()
    disjunction = Or.of([a, b])
    assert r.subsumes(disjunction, a)
    assert r.subsumes(disjunction, b)


@settings(max_examples=40, deadline=None)
@given(concepts(), concepts())
def test_exists_monotone(a, b):
    # a ⊑ b implies ∃r.a ⊑ ∃r.b
    r = Reasoner()
    if r.subsumes(b, a):
        assert r.subsumes(some("r", b), some("r", a))
