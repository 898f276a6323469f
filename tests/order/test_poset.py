"""Unit and property tests for finite posets."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.order import OrderError, Poset, chain, discrete, from_cover_graph, is_monotone
from repro.graphs import DiGraph, is_acyclic


def diamond() -> Poset:
    return Poset(
        ["bot", "l", "r", "top"],
        [("bot", "l"), ("bot", "r"), ("l", "top"), ("r", "top")],
    )


def vehicle_hierarchy() -> Poset:
    return Poset(
        ["car", "pickup", "motorvehicle", "roadvehicle", "vehicle"],
        [
            ("car", "motorvehicle"),
            ("car", "roadvehicle"),
            ("pickup", "motorvehicle"),
            ("pickup", "roadvehicle"),
            ("motorvehicle", "vehicle"),
            ("roadvehicle", "vehicle"),
        ],
    )


class TestBasics:
    def test_leq_reflexive(self):
        p = diamond()
        for e in p.elements:
            assert p.leq(e, e)

    def test_leq_transitive_closure(self):
        p = diamond()
        assert p.leq("bot", "top")

    def test_lt_is_strict(self):
        p = diamond()
        assert p.lt("bot", "top")
        assert not p.lt("bot", "bot")

    def test_incomparable(self):
        p = diamond()
        assert not p.comparable("l", "r")
        assert p.comparable("bot", "l")

    def test_cycle_rejected(self):
        with pytest.raises(OrderError):
            Poset(["a", "b"], [("a", "b"), ("b", "a")])

    def test_unknown_element_in_pair_rejected(self):
        with pytest.raises(OrderError):
            Poset(["a"], [("a", "zz")])

    def test_unknown_element_query_raises(self):
        with pytest.raises(OrderError):
            diamond().leq("a", "zz")

    def test_duplicate_elements_deduped(self):
        p = Poset(["a", "a", "b"], [("a", "b")])
        assert len(p) == 2

    def test_up_down_sets(self):
        p = diamond()
        assert p.up_set("l") == frozenset({"l", "top"})
        assert p.down_set("l") == frozenset({"l", "bot"})


class TestStructure:
    def test_covers_of_diamond(self):
        assert set(diamond().covers()) == {
            ("bot", "l"),
            ("bot", "r"),
            ("l", "top"),
            ("r", "top"),
        }

    def test_covers_skip_transitive_pairs(self):
        p = chain(["a", "b", "c"])
        assert set(p.covers()) == {("a", "b"), ("b", "c")}

    def test_hasse_diagram(self):
        h = diamond().hasse_diagram()
        assert h.has_edge("bot", "l")
        assert not h.has_edge("bot", "top")

    def test_min_max(self):
        p = diamond()
        assert p.minimal_elements() == frozenset({"bot"})
        assert p.maximal_elements() == frozenset({"top"})

    def test_bottom_top(self):
        p = diamond()
        assert p.bottom() == "bot"
        assert p.top() == "top"

    def test_no_bottom_in_antichain(self):
        p = discrete(["a", "b"])
        assert p.bottom() is None
        assert p.top() is None

    def test_bounds(self):
        p = diamond()
        assert p.upper_bounds(["l", "r"]) == frozenset({"top"})
        assert p.lower_bounds(["l", "r"]) == frozenset({"bot"})

    def test_meet_join(self):
        p = diamond()
        assert p.join("l", "r") == "top"
        assert p.meet("l", "r") == "bot"
        assert p.join("bot", "l") == "l"

    def test_join_absent(self):
        p = discrete(["a", "b"])
        assert p.join("a", "b") is None

    def test_is_lattice(self):
        assert diamond().is_lattice()
        assert not discrete(["a", "b"]).is_lattice()

    def test_is_chain(self):
        assert chain(["a", "b", "c"]).is_chain()
        assert not diamond().is_chain()

    def test_is_tree_vs_dag(self):
        # the paper: a partial order is a DAG, more general than a tree —
        # car under BOTH motorvehicle and roadvehicle is not a tree
        assert not vehicle_hierarchy().is_tree()
        tree = Poset(["a", "b", "c"], [("b", "a"), ("c", "a")])
        assert tree.is_tree()

    def test_height_width(self):
        p = diamond()
        assert p.height() == 2
        assert p.width() == 2
        assert vehicle_hierarchy().height() == 2
        assert vehicle_hierarchy().width() == 2

    def test_linear_extension_is_compatible(self):
        p = vehicle_hierarchy()
        order = p.linear_extension()
        pos = {e: i for i, e in enumerate(order)}
        for x in p.elements:
            for y in p.elements:
                if p.lt(x, y):
                    assert pos[x] < pos[y]


class TestConstructions:
    def test_subposet(self):
        p = vehicle_hierarchy().subposet(["car", "vehicle", "motorvehicle"])
        assert p.leq("car", "vehicle")
        assert len(p) == 3

    def test_dual_reverses(self):
        p = diamond().dual()
        assert p.leq("top", "bot")
        assert p.bottom() == "top"

    def test_product_order(self):
        p = chain([0, 1]).product(chain([0, 1]))
        assert p.leq((0, 0), (1, 1))
        assert not p.comparable((0, 1), (1, 0))

    def test_from_cover_graph(self):
        g = DiGraph()
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        p = from_cover_graph(g)
        assert p.leq("a", "c")

    def test_from_cyclic_graph_rejected(self):
        g = DiGraph()
        g.add_edge("a", "b")
        g.add_edge("b", "a")
        with pytest.raises(OrderError):
            from_cover_graph(g)

    def test_equality_and_hash(self):
        assert diamond() == diamond()
        assert hash(diamond()) == hash(diamond())
        assert diamond() != discrete(["bot", "l", "r", "top"])


class TestMonotone:
    def test_identity_is_monotone(self):
        p = diamond()
        assert is_monotone(lambda e: e, p, p)

    def test_collapse_to_top_is_monotone(self):
        p = diamond()
        assert is_monotone(lambda e: "top", p, p)

    def test_order_reversal_not_monotone(self):
        p = chain(["a", "b"])
        swap = {"a": "b", "b": "a"}
        assert not is_monotone(lambda e: swap[e], p, p)


# ---------------------------------------------------------------------- #
# property-based: poset axioms hold for arbitrary generated DAG orders
# ---------------------------------------------------------------------- #


@st.composite
def random_poset(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    elements = list(range(n))
    # edges only from lower to higher index: guarantees acyclicity
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda t: t[0] < t[1]
            ),
            max_size=10,
        )
    )
    return Poset(elements, pairs)


@settings(max_examples=60, deadline=None)
@given(random_poset())
def test_order_axioms(p):
    es = p.elements
    for x in es:
        assert p.leq(x, x)  # reflexivity
        for y in es:
            if p.leq(x, y) and p.leq(y, x):
                assert x == y  # antisymmetry
            for z in es:
                if p.leq(x, y) and p.leq(y, z):
                    assert p.leq(x, z)  # transitivity


@settings(max_examples=60, deadline=None)
@given(random_poset())
def test_covers_generate_the_order(p):
    rebuilt = Poset(p.elements, p.covers())
    assert rebuilt == p


@settings(max_examples=60, deadline=None)
@given(random_poset())
def test_covers_are_the_pairs_with_nothing_between(p):
    covers = set(p.covers())
    for a in p.elements:
        for b in p.elements:
            between = any(p.lt(a, m) and p.lt(m, b) for m in p.elements)
            assert ((a, b) in covers) == (p.lt(a, b) and not between)
        assert p.upper_covers(a) == {high for low, high in covers if low == a}
        assert p.lower_covers(a) == {low for low, high in covers if high == a}


@settings(max_examples=60, deadline=None)
@given(random_poset())
def test_hasse_is_acyclic_and_dual_involutive(p):
    assert is_acyclic(p.hasse_diagram())
    assert p.dual().dual() == p
