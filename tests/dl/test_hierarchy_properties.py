"""Property tests: the saturation path ≡ brute force, budgeted or not.

A budget governs the one saturation-and-models path; it must never
change a definite answer.  These properties generate TBoxes two ways —
the seeded corpus generator used by the benches, and a Hypothesis
strategy with negation, disjunction and ∃ so residues, unsatisfiable
and ⊤-equivalent names occur — and assert:

* under a budget that never binds, the hierarchy is brute force's: same
  equivalence classes, same poset, same group mapping;
* under a starved budget, with or without injected exhaustion and
  deadline faults, every subsumption the partial hierarchy asserts
  holds in brute force's, and a run that leaves nothing incomplete is
  brute force's hierarchy.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpora import random_tbox
from repro.dl import (
    And,
    Atomic,
    Equivalence,
    Not,
    Or,
    Subsumption,
    TBox,
    classify,
    some,
)
from repro.robust import Budget, faults
from repro.robust.faults import FaultPlan

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


def _assert_same_hierarchy(hierarchy, brute) -> None:
    assert hierarchy.groups() == brute.groups()
    assert hierarchy.group_of == brute.group_of
    assert hierarchy.poset == brute.poset
    assert hierarchy.top_equivalents() == brute.top_equivalents()


def _assert_budgeted_equals_brute(tbox: TBox) -> None:
    with faults.suspended():
        budgeted = classify(tbox, budget=Budget(max_nodes=100_000))
    assert not budgeted.incomplete
    _assert_same_hierarchy(budgeted, classify(tbox, algorithm="brute"))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_tboxes)
def test_budgeted_equals_brute_on_random_axioms(tbox):
    _assert_budgeted_equals_brute(tbox)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_defined=st.integers(min_value=2, max_value=10),
    n_primitive=st.integers(min_value=1, max_value=5),
)
def test_budgeted_equals_brute_on_corpus_tboxes(seed, n_defined, n_primitive):
    tbox = random_tbox(seed, n_defined=n_defined, n_primitive=n_primitive, n_roles=2)
    _assert_budgeted_equals_brute(tbox)


_FAULTS = [(), ("exhaustion",), ("deadline",), ("exhaustion", "deadline")]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    tbox=_tboxes,
    max_nodes=st.integers(min_value=1, max_value=12),
    armed=st.sampled_from(_FAULTS),
    fault_seed=st.integers(min_value=0, max_value=4),
)
def test_budgeted_hierarchy_is_sound(tbox, max_nodes, armed, fault_seed):
    plan = FaultPlan(armed, seed=fault_seed) if armed else faults.NULL_PLAN
    with faults.use_faults(plan):
        partial = classify(tbox, budget=Budget(max_nodes=max_nodes))
    brute = classify(tbox, algorithm="brute")
    names = sorted(brute.group_of)
    for specific in names:
        for general in names:
            if partial.is_subsumed_by(specific, general):
                assert brute.is_subsumed_by(specific, general), (
                    specific,
                    general,
                )
    if not partial.incomplete:
        _assert_same_hierarchy(partial, brute)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    tbox=_tboxes,
    max_nodes=st.integers(min_value=1, max_value=12),
    armed=st.sampled_from(_FAULTS),
    fault_seed=st.integers(min_value=0, max_value=4),
)
def test_budgeted_hierarchy_opens_no_asserted_pair(tbox, max_nodes, armed, fault_seed):
    # no oracle needed: a pair the partial hierarchy asserts is answered,
    # whichever question about it ran out of budget
    plan = FaultPlan(armed, seed=fault_seed) if armed else faults.NULL_PLAN
    with faults.use_faults(plan):
        partial = classify(tbox, budget=Budget(max_nodes=max_nodes))
    for specific, general in partial.incomplete:
        assert not partial.is_subsumed_by(specific, general), (specific, general)
