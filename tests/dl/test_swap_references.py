"""The swap path's fast structures against the constructions they replace.

A classified hierarchy builds its poset from the closed up-sets it read
off (:meth:`repro.order.Poset.from_up_sets`), and
:func:`repro.dl.defgraph.dependents_of` walks one reverse-definition map.
Each is checked here against the construction it replaced, kept as a
reference:

* the pairs-built poset, ``Poset(elements, pairs)``, whose constructor
  closes the order through a graph and rejects a cycle — so an up-set
  that is not closed, or two elements that hold each other, shows up
  as a difference or an :class:`repro.order.OrderError`;
* reverse reachability over the union of the TBoxes'
  :meth:`repro.dl.tbox.TBox.dependency_graph`.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.corpora import random_tbox
from repro.corpora.generators import random_tbox_edit
from repro.dl import Atomic, Equivalence, Not, Or, Subsumption, TBox, classify
from repro.dl.defgraph import dependents_of
from repro.order import Poset
from repro.robust import Budget, faults
from repro.robust.faults import FaultPlan

from .test_hierarchy_properties import _FAULTS, _NAMES, _axioms, _concepts, _tboxes


def _with_reference(tbox: TBox, **kwargs):
    """Classify ``tbox``; also build the poset the old way from its up-sets."""
    handed: list[dict] = []
    from_up_sets = Poset.from_up_sets.__func__

    def capture(cls, up):
        handed.append(dict(up))
        return from_up_sets(cls, up)

    Poset.from_up_sets = classmethod(capture)
    try:
        hierarchy = classify(tbox, **kwargs)
    finally:
        Poset.from_up_sets = classmethod(from_up_sets)
    (up,) = handed
    pairs = [(low, high) for low, above in up.items() for high in above]
    return hierarchy, Poset(list(up), pairs)


def _assert_agrees(poset: Poset, reference: Poset) -> None:
    assert poset == reference
    assert poset.elements == reference.elements
    for a in reference.elements:
        assert poset.up_set(a) == reference.up_set(a)
        assert poset.down_set(a) == reference.down_set(a)
        assert poset.upper_covers(a) == reference.upper_covers(a)
        assert poset.lower_covers(a) == reference.lower_covers(a)
        for b in reference.elements:
            assert poset.leq(a, b) == reference.leq(a, b)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_defined=st.integers(min_value=2, max_value=30),
    n_primitive=st.integers(min_value=1, max_value=10),
    algorithm=st.sampled_from(["saturation", "brute"]),
)
def test_corpus_poset_agrees_with_pairs_built(seed, n_defined, n_primitive, algorithm):
    tbox = random_tbox(seed, n_defined=n_defined, n_primitive=n_primitive, n_roles=3)
    hierarchy, reference = _with_reference(tbox, algorithm=algorithm)
    _assert_agrees(hierarchy.poset, reference)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_tboxes)
def test_random_poset_agrees_with_pairs_built(tbox):
    with faults.suspended():
        hierarchy, reference = _with_reference(tbox)
    _assert_agrees(hierarchy.poset, reference)


_A, _B, _C = Atomic("A"), Atomic("B"), Atomic("C")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    tbox=_tboxes,
    max_nodes=st.integers(min_value=1, max_value=12),
    armed=st.sampled_from(_FAULTS),
    fault_seed=st.integers(min_value=0, max_value=4),
    algorithm=st.sampled_from(["saturation", "brute"]),
)
# starved runs whose masks (matrix) were left unclosed before closing
@example(
    tbox=TBox([Equivalence(_C, _A), Equivalence(_A, Not(Not(_B)))]),
    max_nodes=1,
    armed=("exhaustion",),
    fault_seed=0,
    algorithm="saturation",
)
@example(
    tbox=TBox([Equivalence(_C, _A), Equivalence(_A, Or.of([_A, _B]))]),
    max_nodes=1,
    armed=("deadline",),
    fault_seed=0,
    algorithm="brute",
)
def test_starved_poset_agrees_with_pairs_built(
    tbox, max_nodes, armed, fault_seed, algorithm
):
    # a starved run closes its partial masks (or its brute matrix), so
    # the up-sets it hands over are closed and antisymmetric too
    plan = FaultPlan(armed, seed=fault_seed) if armed else faults.NULL_PLAN
    with faults.use_faults(plan):
        hierarchy, reference = _with_reference(
            tbox, algorithm=algorithm, budget=Budget(max_nodes=max_nodes)
        )
    _assert_agrees(hierarchy.poset, reference)


def _graph_dependents(names, *tboxes) -> frozenset[str]:
    """The reference: reverse reachability over the dependency graphs."""
    predecessors: dict[str, set[str]] = {}
    vocabulary: set[str] = set()
    for tbox in tboxes:
        graph = tbox.dependency_graph()
        for node in graph.nodes():
            vocabulary.add(node)
            for pred in graph.predecessors(node):
                predecessors.setdefault(node, set()).add(pred)
    seen = {name for name in names if name in vocabulary}
    stack = list(seen)
    while stack:
        node = stack.pop()
        for pred in predecessors.get(node, ()):
            if pred not in seen:
                seen.add(pred)
                stack.append(pred)
    return frozenset(seen)


_SEEDS = st.sets(st.sampled_from([*_NAMES, "F", "C0", "C3", "P1"]), max_size=3)
# definitions, plus general GCIs whose left-hand side may hold a name
# that no definition mentions
_general_tboxes = st.lists(
    st.one_of(_axioms(), st.builds(Subsumption, _concepts(), _concepts())),
    min_size=1,
    max_size=5,
).map(TBox)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(before=_general_tboxes, after=_general_tboxes, names=_SEEDS)
def test_dependents_agree_on_random_tboxes(before, after, names):
    assert dependents_of(names, before) == _graph_dependents(names, before)
    assert dependents_of(names, before, after) == _graph_dependents(
        names, before, after
    )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_defined=st.integers(min_value=2, max_value=30),
    n_primitive=st.integers(min_value=1, max_value=10),
    edit_seed=st.integers(min_value=0, max_value=1_000),
)
def test_dependents_agree_on_edit_pairs(seed, n_defined, n_primitive, edit_seed):
    before = random_tbox(seed, n_defined=n_defined, n_primitive=n_primitive, n_roles=3)
    after = random_tbox_edit(random.Random(edit_seed), before)
    names = sorted(before.atomic_names() ^ after.atomic_names())
    names += sorted(before.defined_names())[:2]
    for seeds in ([], names, names[:1], ["absent"]):
        assert dependents_of(seeds, before, after) == _graph_dependents(
            seeds, before, after
        )
