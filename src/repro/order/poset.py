"""Finite partially ordered sets.

The Bench-Capon & Malcolm definition the paper singles out as "the most
promising attempt" (§2, Definition 1) is built on partial orders twice
over: the subsort order of a Goguen–Meseguer order-sorted algebra, and
the class hierarchy ``C = (C, ≤)``.  The paper also notes the key
expressive point: a partial order is a directed acyclic graph, strictly
more general than a tree, yet still a *monocriterial* taxonomy.  This
module provides the poset machinery both uses: order queries, Hasse
diagrams, bounds, meets/joins, monotone maps, and structural checks.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Iterator, Optional

from ..graphs import DiGraph, GraphError, is_acyclic, topological_sort


class OrderError(Exception):
    """Raised when order axioms are violated or elements are unknown."""


class Poset:
    """A finite poset given by elements and generating order pairs.

    The order is the reflexive–transitive closure of the supplied pairs;
    antisymmetry is validated at construction (a cycle among distinct
    elements is rejected).

    >>> p = Poset(["car", "motorvehicle", "vehicle"],
    ...           [("car", "motorvehicle"), ("motorvehicle", "vehicle")])
    >>> p.leq("car", "vehicle")
    True
    >>> p.leq("vehicle", "car")
    False
    """

    def __init__(
        self,
        elements: Iterable[Hashable],
        pairs: Iterable[tuple[Hashable, Hashable]] = (),
    ) -> None:
        self._elements = list(dict.fromkeys(elements))  # preserve order, dedupe
        element_set = set(self._elements)
        graph = DiGraph()
        for e in self._elements:
            graph.add_node(e)
        for low, high in pairs:
            if low not in element_set or high not in element_set:
                raise OrderError(f"order pair ({low!r}, {high!r}) uses unknown elements")
            if low != high:
                graph.add_edge(low, high)
        if not is_acyclic(graph):
            raise OrderError("order pairs contain a cycle; antisymmetry violated")
        self._graph = graph
        # transitive closure: up[e] = {x : e <= x}
        self._up: dict[Hashable, frozenset] = {}
        for e in reversed(topological_sort(graph)):
            above: set = {e}
            for succ in graph.successors(e):
                above |= self._up[succ]
            self._up[e] = frozenset(above)
        self._down: dict[Hashable, set] = {e: set() for e in self._elements}
        for e in self._elements:
            for x in self._up[e]:
                self._down[x].add(e)
        # element -> (elements covering it, elements it covers)
        self._covers: Optional[dict[Hashable, tuple[frozenset, frozenset]]] = None

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #

    @property
    def elements(self) -> list[Hashable]:
        return list(self._elements)

    def __len__(self) -> int:
        return len(self._elements)

    def __contains__(self, element: Hashable) -> bool:
        return element in self._up

    def _check(self, element: Hashable) -> None:
        if element not in self._up:
            raise OrderError(f"unknown element {element!r}")

    def leq(self, a: Hashable, b: Hashable) -> bool:
        """True iff ``a ≤ b``."""
        self._check(a)
        self._check(b)
        return b in self._up[a]

    def lt(self, a: Hashable, b: Hashable) -> bool:
        return a != b and self.leq(a, b)

    def comparable(self, a: Hashable, b: Hashable) -> bool:
        return self.leq(a, b) or self.leq(b, a)

    def up_set(self, element: Hashable) -> frozenset:
        """``{x : element ≤ x}`` (the principal filter)."""
        self._check(element)
        return self._up[element]

    def down_set(self, element: Hashable) -> frozenset:
        """``{x : x ≤ element}`` (the principal ideal)."""
        self._check(element)
        return frozenset(self._down[element])

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #

    def covers(self) -> list[tuple[Hashable, Hashable]]:
        """The covering pairs ``(a, b)``: a < b with nothing strictly between.

        The poset is immutable, so the transitive reduction is computed
        once and cached; callers receive a list they may mutate freely.
        """
        return [(a, b) for a in self._elements for b in self.upper_covers(a)]

    def upper_covers(self, element: Hashable) -> frozenset:
        """The elements covering ``element`` (its Hasse-diagram parents)."""
        self._check(element)
        return self._cover_map()[element][0]

    def lower_covers(self, element: Hashable) -> frozenset:
        """The elements ``element`` covers (its Hasse-diagram children)."""
        self._check(element)
        return self._cover_map()[element][1]

    def _cover_map(self) -> dict[Hashable, tuple[frozenset, frozenset]]:
        # a's upper covers are the minimal elements of above = up(a) − {a}:
        # above − ⋃{up(m) − {m} : m ∈ above}
        if self._covers is None:
            upper = {}
            for a in self._elements:
                above = self._up[a] - {a}
                upper[a] = above.difference(*(self._up[m] - {m} for m in above))
            self._covers = {
                e: (upper[e], frozenset(a for a in self._down[e] if e in upper[a]))
                for e in self._elements
            }
        return self._covers

    def hasse_diagram(self) -> DiGraph:
        """The Hasse diagram as a :class:`DiGraph` (edges point upward)."""
        g = DiGraph()
        for e in self._elements:
            g.add_node(e)
        for a, b in self.covers():
            g.add_edge(a, b)
        return g

    def minimal_elements(self) -> frozenset:
        return frozenset(e for e in self._elements if self._down[e] == {e})

    def maximal_elements(self) -> frozenset:
        return frozenset(e for e in self._elements if self._up[e] == frozenset({e}))

    def bottom(self) -> Optional[Hashable]:
        """The least element, if one exists."""
        mins = self.minimal_elements()
        if len(mins) == 1:
            (m,) = mins
            if self._up[m] == frozenset(self._elements):
                return m
        return None

    def top(self) -> Optional[Hashable]:
        """The greatest element, if one exists."""
        maxs = self.maximal_elements()
        if len(maxs) == 1:
            (m,) = maxs
            if frozenset(self._down[m]) == frozenset(self._elements):
                return m
        return None

    def upper_bounds(self, items: Iterable[Hashable]) -> frozenset:
        items = list(items)
        if not items:
            return frozenset(self._elements)
        bounds = self._up[items[0]]
        for e in items[1:]:
            self._check(e)
            bounds &= self._up[e]
        return frozenset(bounds)

    def lower_bounds(self, items: Iterable[Hashable]) -> frozenset:
        items = list(items)
        if not items:
            return frozenset(self._elements)
        bounds = frozenset(self._down[items[0]])
        for e in items[1:]:
            self._check(e)
            bounds &= frozenset(self._down[e])
        return bounds

    def join(self, a: Hashable, b: Hashable) -> Optional[Hashable]:
        """The least upper bound of ``a`` and ``b``, or ``None``."""
        ubs = self.upper_bounds([a, b])
        least = [u for u in ubs if all(self.leq(u, v) for v in ubs)]
        return least[0] if len(least) == 1 else None

    def meet(self, a: Hashable, b: Hashable) -> Optional[Hashable]:
        """The greatest lower bound of ``a`` and ``b``, or ``None``."""
        lbs = self.lower_bounds([a, b])
        greatest = [u for u in lbs if all(self.leq(v, u) for v in lbs)]
        return greatest[0] if len(greatest) == 1 else None

    def is_lattice(self) -> bool:
        """True iff every pair has both a meet and a join."""
        return all(
            self.join(a, b) is not None and self.meet(a, b) is not None
            for i, a in enumerate(self._elements)
            for b in self._elements[i:]
        )

    def is_chain(self) -> bool:
        """True iff the order is total."""
        return all(
            self.comparable(a, b)
            for i, a in enumerate(self._elements)
            for b in self._elements[i + 1:]
        )

    def is_tree(self) -> bool:
        """True iff the Hasse diagram is a forest ordered toward roots.

        Precisely: every element has at most one cover.  This is the
        *tree taxonomy* case the paper contrasts with the general DAG
        allowed by a partial order.
        """
        return all(len(above) <= 1 for above, _ in self._cover_map().values())

    def height(self) -> int:
        """The length (edge count) of a longest chain."""
        depth = {e: 0 for e in self._elements}
        for e in self.linear_extension():
            for succ in self.upper_covers(e):
                depth[succ] = max(depth[succ], depth[e] + 1)
        return max(depth.values(), default=0)

    def width(self) -> int:
        """The size of a largest antichain (Mirsky-style greedy bound is not
        used; exact via brute force on small posets, Dilworth via matching
        is overkill here)."""
        best = 0
        elements = self._elements
        # iterative antichain search with pruning
        def extend(start: int, chosen: list) -> None:
            nonlocal best
            best = max(best, len(chosen))
            for i in range(start, len(elements)):
                candidate = elements[i]
                if all(not self.comparable(candidate, c) for c in chosen):
                    extend(i + 1, chosen + [candidate])

        extend(0, [])
        return best

    def linear_extension(self) -> list[Hashable]:
        """Some total order compatible with the partial order."""
        return topological_sort(self.hasse_diagram())

    # ------------------------------------------------------------------ #
    # constructions
    # ------------------------------------------------------------------ #

    def subposet(self, items: Iterable[Hashable]) -> "Poset":
        keep = [e for e in self._elements if e in set(items)]
        pairs = [
            (a, b)
            for i, a in enumerate(keep)
            for b in keep
            if a != b and self.leq(a, b)
        ]
        return Poset(keep, pairs)

    def dual(self) -> "Poset":
        """The poset with the order reversed."""
        pairs = [(b, a) for a, b in self.covers()]
        return Poset(self._elements, pairs)

    def product(self, other: "Poset") -> "Poset":
        """The component-wise product order on pairs."""
        elements = [(a, b) for a in self._elements for b in other._elements]
        pairs = [
            ((a1, b1), (a2, b2))
            for (a1, b1) in elements
            for (a2, b2) in elements
            if (a1, b1) != (a2, b2) and self.leq(a1, a2) and other.leq(b1, b2)
        ]
        return Poset(elements, pairs)

    def order_pairs(self) -> frozenset[tuple[Hashable, Hashable]]:
        """All pairs (a, b) with a ≤ b (including reflexive pairs)."""
        return frozenset((a, b) for a in self._elements for b in self._up[a])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        return set(self._elements) == set(other._elements) and self.order_pairs() == other.order_pairs()

    def __hash__(self) -> int:
        return hash((frozenset(self._elements), self.order_pairs()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Poset({len(self)} elements, {len(self.covers())} covers)"


def is_monotone(
    f: Callable[[Hashable], Hashable], source: Poset, target: Poset
) -> bool:
    """True iff ``f`` is order-preserving from ``source`` into ``target``."""
    for a in source.elements:
        for b in source.elements:
            if source.leq(a, b) and not target.leq(f(a), f(b)):
                return False
    return True


def discrete(elements: Iterable[Hashable]) -> Poset:
    """The discrete (antichain) order on ``elements``."""
    return Poset(elements, [])


def chain(elements: Iterable[Hashable]) -> Poset:
    """The total order listing ``elements`` from least to greatest."""
    items = list(elements)
    return Poset(items, list(zip(items, items[1:])))


def from_cover_graph(graph: DiGraph) -> Poset:
    """Build a poset whose order is the reachability order of a DAG."""
    if not is_acyclic(graph):
        raise OrderError("cover graph must be acyclic")
    return Poset(list(graph.nodes()), [(u, v) for u, v, _ in graph.edges()])
