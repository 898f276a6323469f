"""Seeded inputs the benchmark serves: TBoxes, edit chains, queries.

``repro.corpora`` only emits EL (``And``/``some``/``at_least``), so the
non-Horn TBox of the ``complex-read`` workload is generated here.  It is
modeled on the paper's ontonomies (4)-(11): families of species
(CAR/PICKUP, DOG/HORSE) under two genera each, distinguished by a size
filler, plus the non-Horn axioms a real ontology adds to such a family:
disjoint size values (negation), a covering axiom over the species
(disjunction), an upper bound on a counted part (at-most) and a
universal restriction on what the genus uses.
"""

from __future__ import annotations

import random

from repro.corpora.generators import random_tbox, random_tbox_edit
from repro.dl import parse_tbox
from repro.dl.serialize import tbox_to_text

#: role names shared by every family, as in structures (4) and (6)
ROLES = ("uses", "has", "size", "part")


def nonhorn_tbox_text(seed: int, *, families: int = 8, disjunctions: int = 3) -> str:
    """An ALCN TBox of about ``10 * families`` names, as parser text.

    Every family contributes two genera, three species, a used filler,
    a counted part and two size values (80 names at 8 families).
    ``disjunctions`` families get a covering axiom; each family gets
    one negation and, with its genus, one at-most and one universal
    restriction.
    """
    rng = random.Random(seed)
    lines = []
    covered = set(rng.sample(range(families), min(disjunctions, families)))
    for f in range(families):
        genus_a, genus_b = f"g{f}a", f"g{f}b"
        species = [f"s{f}x{k}" for k in range(3)]
        used, part = f"fuel{f}", f"part{f}"
        small, big = f"small{f}", f"big{f}"
        count = rng.randint(2, 4)
        lines.append(f"{genus_a} [= some uses.{used}")
        lines.append(f"{genus_b} [= >= {count} has.{part}")
        lines.append(f"{big} [= ~{small}")
        lines.append(f"{genus_a} [= all uses.{used}")
        lines.append(f"{genus_b} [= <= {count + rng.randint(1, 2)} has.{part}")
        sizes = [small, big, small if rng.random() < 0.5 else big]
        for name, size in zip(species, sizes):
            extra = ""
            if f and rng.random() < 0.4:
                # a link to an earlier family keeps the hierarchy connected
                extra = f" & some part.g{rng.randrange(f)}a"
            lines.append(f"{name} [= {genus_a} & {genus_b} & some size.{size}{extra}")
        if f in covered:
            lines.append(f"{genus_a} & {genus_b} [= {species[0]} | {species[1]}")
    return "\n".join(lines) + "\n"


def el_tbox_text(seed: int, *, defined: int, primitive: int) -> str:
    """The EL TBox of the named-read, pool-read and edit-mix workloads."""
    tbox = random_tbox(seed, n_defined=defined, n_primitive=primitive, n_roles=3)
    return tbox_to_text(tbox)


def edit_chain(seed: int, tbox_text: str, length: int) -> list[str]:
    """``length`` successive ``random_tbox_edit`` TBox texts."""
    rng = random.Random(seed)
    tbox = parse_tbox(tbox_text)
    chain = []
    for _ in range(length):
        tbox = random_tbox_edit(rng, tbox)
        chain.append(tbox_to_text(tbox))
    return chain


class ConceptGenerator:
    """Random concept expressions over a TBox's names and roles.

    Covers every constructor the parser accepts: names, ``Top``,
    ``Bottom``, ``~``, ``&``, ``|``, ``some``, ``all``, ``>=`` and
    ``<=`` (with and without a filler), and parentheses.
    """

    def __init__(self, rng: random.Random, names: list[str], roles: list[str]) -> None:
        self.rng = rng
        self.names = names
        self.roles = roles

    def atom(self) -> str:
        roll = self.rng.random()
        if roll < 0.02:
            return "Top"
        if roll < 0.03:
            return "Bottom"
        return self.rng.choice(self.names)

    def concept(self, depth: int = 2) -> str:
        rng = self.rng
        if depth <= 0:
            return self.atom()
        kind = rng.choice(("and", "or", "not", "some", "all", "atleast", "name"))
        role = rng.choice(self.roles)
        if kind == "and":
            return f"({self.concept(depth - 1)} & {self.concept(depth - 1)})"
        if kind == "or":
            return f"({self.concept(depth - 1)} | {self.concept(depth - 1)})"
        if kind == "not":
            return f"~{self.concept(depth - 1)}"
        if kind == "some":
            return f"some {role}.{self.concept(depth - 1)}"
        if kind == "all":
            return f"all {role}.{self.concept(depth - 1)}"
        if kind == "atleast":
            if rng.random() < 0.3:
                return f">= {rng.randint(1, 3)} {role}"
            return f">= {rng.randint(1, 3)} {role}.{self.concept(depth - 1)}"
        return self.atom()

    def at_most(self) -> str:
        """The ``A & B & <= n r.P`` shape whose merges can branch widely."""
        rng = self.rng
        a, b, p = (rng.choice(self.names) for _ in range(3))
        role = rng.choice(self.roles)
        if rng.random() < 0.2:
            return f"{a} & {b} & <= {rng.randint(0, 2)} {role}"
        return f"{a} & {b} & <= {rng.randint(0, 2)} {role}.{p}"
