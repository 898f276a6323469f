"""Seeded random generators for tests and benchmark workloads.

Everything here is deterministic given the seed — no library code draws
randomness it was not handed.
"""

from __future__ import annotations

import random
from typing import Sequence

from ..dl import (
    And,
    Atomic,
    Not,
    Or,
    Subsumption,
    TBox,
    at_least,
    at_most,
    only,
    some,
)
from ..semiotics import Lexicalization, SemanticField


def random_tbox(
    seed: int,
    *,
    n_defined: int = 6,
    n_primitive: int = 4,
    n_roles: int = 3,
    min_conjuncts: int = 2,
    max_conjuncts: int = 4,
) -> TBox:
    """A random acyclic definitorial TBox (the paper's ontonomy shape).

    ``n_defined`` names receive definitions; each definition conjoins
    parent names drawn from strictly later names (guaranteeing
    acyclicity) with existential and at-least restrictions over
    ``n_primitive`` filler names and ``n_roles`` roles.
    """
    rng = random.Random(seed)
    defined = [f"C{i}" for i in range(n_defined)]
    primitive = [f"P{i}" for i in range(n_primitive)]
    roles = [f"r{i}" for i in range(n_roles)]
    axioms = []
    for i, name in enumerate(defined):
        later = defined[i + 1:]
        conjuncts = []
        n_conj = rng.randint(min_conjuncts, max_conjuncts)
        for _ in range(n_conj):
            kind = rng.random()
            if kind < 0.4 and later:
                conjuncts.append(Atomic(rng.choice(later)))
            elif kind < 0.8:
                conjuncts.append(some(rng.choice(roles), Atomic(rng.choice(primitive))))
            else:
                conjuncts.append(
                    at_least(
                        rng.randint(2, 4),
                        rng.choice(roles),
                        Atomic(rng.choice(primitive)),
                    )
                )
        if not conjuncts:
            conjuncts.append(Atomic(rng.choice(primitive)))
        axioms.append(Subsumption(Atomic(name), And.of(conjuncts)))
    return TBox(axioms)


def nonhorn_tbox(seed: int, *, families: int = 8, disjunctions: int = 3) -> TBox:
    """A random ALCN TBox of about ``10 * families`` names.

    Modeled on the paper's ontonomies (4)–(11): families of species
    (CAR/PICKUP, DOG/HORSE) under two genera each, told apart by a size
    filler, plus the non-Horn axioms a real ontology adds to such a
    family.  Every family contributes two genera, three species, a used
    filler, a counted part and two size values; its size values are
    disjoint (negation), its genera cap the counted part (at-most) and
    restrict what they use (universal), and ``disjunctions`` families
    get a covering axiom over their species (disjunction).  Some species
    link to an earlier family's genus, which keeps the hierarchy
    connected.
    """
    rng = random.Random(seed)
    axioms = []
    covered = set(rng.sample(range(families), min(disjunctions, families)))
    for f in range(families):
        genus_a, genus_b = Atomic(f"g{f}a"), Atomic(f"g{f}b")
        species = [Atomic(f"s{f}x{k}") for k in range(3)]
        used, part = Atomic(f"fuel{f}"), Atomic(f"part{f}")
        small, big = Atomic(f"small{f}"), Atomic(f"big{f}")
        count = rng.randint(2, 4)
        axioms.append(Subsumption(genus_a, some("uses", used)))
        axioms.append(Subsumption(genus_b, at_least(count, "has", part)))
        axioms.append(Subsumption(big, Not(small)))
        axioms.append(Subsumption(genus_a, only("uses", used)))
        axioms.append(
            Subsumption(genus_b, at_most(count + rng.randint(1, 2), "has", part))
        )
        sizes = [small, big, small if rng.random() < 0.5 else big]
        for name, size in zip(species, sizes):
            conjuncts = [genus_a, genus_b, some("size", size)]
            if f and rng.random() < 0.4:
                conjuncts.append(some("part", Atomic(f"g{rng.randrange(f)}a")))
            axioms.append(Subsumption(name, And.of(conjuncts)))
        if f in covered:
            axioms.append(
                Subsumption(And.of([genus_a, genus_b]), Or.of(species[:2]))
            )
    return TBox(axioms)


def random_tbox_edit(rng: random.Random, tbox: TBox) -> TBox:
    """One random definitorial edit of ``tbox`` (for evolution workloads).

    Redefines an existing defined name (p=0.6), adds a fresh definition
    (p=0.25), or removes one (p=0.15) — the hot-swap property tests and
    the edit-mix serving benchmark replay chains of these.
    Acyclicity is preserved exactly: an atomic conjunct ``B`` is only
    allowed in the new definition of ``A`` when ``A`` is not reachable
    from ``B`` in the current dependency graph.  Deterministic given the
    caller's ``rng`` state.
    """
    axioms = list(tbox.axioms)
    defined = [
        ax
        for ax in axioms
        if isinstance(ax, Subsumption) and isinstance(ax.lhs, Atomic)
    ]
    lhs_names = {ax.lhs.name for ax in defined}
    primitive = sorted(tbox.atomic_names() - lhs_names)
    roles = sorted(tbox.role_names()) or ["r0"]

    def new_definition(name: str, parent_pool: list[str]) -> Subsumption:
        conjuncts = []
        for _ in range(rng.randint(2, 4)):
            kind = rng.random()
            if kind < 0.4 and parent_pool:
                conjuncts.append(Atomic(rng.choice(parent_pool)))
            elif kind < 0.8 and primitive:
                conjuncts.append(some(rng.choice(roles), Atomic(rng.choice(primitive))))
            elif primitive:
                conjuncts.append(
                    at_least(
                        rng.randint(2, 4),
                        rng.choice(roles),
                        Atomic(rng.choice(primitive)),
                    )
                )
        if not conjuncts:
            conjuncts.append(Atomic(rng.choice(primitive or sorted(lhs_names))))
        return Subsumption(Atomic(name), And.of(conjuncts))

    kind = rng.random()
    if kind < 0.6 and defined:  # redefine
        from ..dl.defgraph import dependents_of

        victim = defined[rng.randrange(len(defined))]
        name = victim.lhs.name
        # a parent must not already reach the redefined name (its
        # ancestors = dependents_of); otherwise the new edge closes a cycle
        pool = sorted(lhs_names - dependents_of({name}, tbox))
        replacement = new_definition(name, pool)
        return TBox([replacement if ax is victim else ax for ax in axioms])
    if kind < 0.85 or not defined:  # add a fresh defined name
        index = 0
        names = tbox.atomic_names()
        while f"C{index}" in names or f"C{index}" in lhs_names:
            index += 1
        # nothing references a fresh name, so any parent pool is acyclic
        return TBox([*axioms, new_definition(f"C{index}", sorted(lhs_names))])
    victim = defined[rng.randrange(len(defined))]  # remove
    return TBox([ax for ax in axioms if ax is not victim])


def random_field(seed: int, *, n_points: int = 6) -> SemanticField:
    """A random semantic field with ``n_points`` situations."""
    rng = random.Random(seed)
    return SemanticField(
        f"field-{seed}", frozenset(f"pt{i}" for i in range(n_points))
    )


def random_lexicalization(
    seed: int,
    field: SemanticField,
    *,
    language: str | None = None,
    n_terms: int = 3,
    overlap_probability: float = 0.25,
) -> Lexicalization:
    """A random covering lexicalization of ``field``.

    Every point gets a home term (a random partition) and then, with
    ``overlap_probability`` per (term, point) pair, extents grow —
    producing the soft-form overlaps natural languages show.
    """
    rng = random.Random(seed)
    language = language or f"lang-{seed}"
    points = sorted(field.points)
    terms = [f"{language}-t{i}" for i in range(n_terms)]
    extents: dict[str, set[str]] = {t: set() for t in terms}
    for point in points:
        extents[rng.choice(terms)].add(point)
    for term in terms:
        for point in points:
            if rng.random() < overlap_probability:
                extents[term].add(point)
    extents = {t: e for t, e in extents.items() if e}
    return Lexicalization(language, field, extents)


def random_triples(
    seed: int,
    *,
    count: int = 1000,
    n_subjects: int = 100,
    n_predicates: int = 10,
    n_objects: int = 50,
) -> list[tuple[str, str, str]]:
    """Random (s, p, o) rows for store benchmarks (may contain duplicates)."""
    rng = random.Random(seed)
    return [
        (
            f"s{rng.randrange(n_subjects)}",
            f"p{rng.randrange(n_predicates)}",
            f"o{rng.randrange(n_objects)}",
        )
        for _ in range(count)
    ]


def chain_tbox(depth: int) -> TBox:
    """A subsumption chain C0 ⊑ C1 ⊑ ... ⊑ C_depth (reasoner scaling)."""
    axioms = [
        Subsumption(Atomic(f"C{i}"), Atomic(f"C{i+1}")) for i in range(depth)
    ]
    return TBox(axioms)


def branching_tbox(depth: int, *, branching: int = 2) -> TBox:
    """A complete ``branching``-ary tree of subsumptions with ∃-decorations.

    Node count grows as branchingᵈᵉᵖᵗʰ; used for tableau scaling (B1).
    """
    axioms = []
    frontier = ["N"]
    for level in range(depth):
        next_frontier = []
        for name in frontier:
            for b in range(branching):
                child = f"{name}{b}"
                axioms.append(
                    Subsumption(
                        Atomic(child),
                        And.of([Atomic(name), some(f"r{level}", Atomic(f"F{level}"))]),
                    )
                )
                next_frontier.append(child)
        frontier = next_frontier
    return TBox(axioms)


def random_individuals(
    seed: int,
    count: int,
    *,
    concepts: Sequence[str],
    roles: Sequence[str] = (),
    role_density: float = 0.4,
):
    """A deterministic stream of ``(individual, told concept, role edges)``.

    The shape of an instance-store load at scale: every individual gets
    exactly one told concept drawn from ``concepts`` and, with
    probability ``role_density``, one role edge back to an earlier
    individual — mostly typed nodes over a sparse relational skeleton.
    A generator, not a list: 10⁶ individuals must never need 10⁶ tuples
    resident at once (the B12 bench streams this straight into batched
    backend loads).
    """
    if not concepts:
        raise ValueError("random_individuals needs a non-empty concept pool")
    rng = random.Random(seed)
    for i in range(count):
        name = f"i{i}"
        told = concepts[rng.randrange(len(concepts))]
        edges: list[tuple[str, str]] = []
        if roles and i and rng.random() < role_density:
            edges.append(
                (roles[rng.randrange(len(roles))], f"i{rng.randrange(i)}")
            )
        yield name, told, edges
