"""TBoxes: terminological axioms.

A TBox is a finite set of general concept inclusions (GCIs) ``C ⊑ D`` and
equivalences ``C ≡ D``.  The paper's ontonomies (structures (4), (8)–(11))
are TBoxes whose left-hand sides are atomic — *definitorial* form — which
admits lazy unfolding; general TBoxes are handled by the tableau through
GCI propagation with blocking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from ..graphs import DiGraph, find_cycle
from .syntax import Atomic, Concept, DLSyntaxError


@dataclass(frozen=True)
class Subsumption:
    """A general concept inclusion ``lhs ⊑ rhs``."""

    lhs: Concept
    rhs: Concept

    def __str__(self) -> str:
        return f"{self.lhs} ⊑ {self.rhs}"


@dataclass(frozen=True)
class Equivalence:
    """A concept equivalence ``lhs ≡ rhs``."""

    lhs: Concept
    rhs: Concept

    def __str__(self) -> str:
        return f"{self.lhs} ≡ {self.rhs}"

    def as_subsumptions(self) -> tuple[Subsumption, Subsumption]:
        return (Subsumption(self.lhs, self.rhs), Subsumption(self.rhs, self.lhs))


Axiom = Subsumption | Equivalence


class TBox:
    """A finite set of terminological axioms.

    >>> from repro.dl.syntax import Atomic, some
    >>> car, mv = Atomic("car"), Atomic("motorvehicle")
    >>> t = TBox([Subsumption(car, mv)])
    >>> t.is_definitorial()
    True
    """

    def __init__(self, axioms: Iterable[Axiom] = ()) -> None:
        self.axioms: list[Axiom] = []
        self._mutations: int = 0
        for axiom in axioms:
            if not isinstance(axiom, (Subsumption, Equivalence)):
                raise DLSyntaxError(f"not a TBox axiom: {axiom!r}")
            self.axioms.append(axiom)

    @property
    def revision(self) -> tuple[int, int]:
        """A cheap change marker consumers can poll to detect mutation.

        Moves on every :meth:`add`/:meth:`remove` *and* whenever the
        axiom count changes (so direct ``tbox.axioms.append`` is caught
        too).  In-place edits of axiom objects are invisible to it — use
        :meth:`repro.dl.reasoner.Reasoner.invalidate` explicitly then.
        """
        return (self._mutations, len(self.axioms))

    def add(self, axiom: Axiom) -> None:
        """Append one axiom in place, bumping :attr:`revision`."""
        if not isinstance(axiom, (Subsumption, Equivalence)):
            raise DLSyntaxError(f"not a TBox axiom: {axiom!r}")
        self.axioms.append(axiom)
        self._mutations += 1

    def remove(self, axiom: Axiom) -> None:
        """Remove one axiom in place, bumping :attr:`revision`.

        Raises :class:`ValueError` when the axiom is absent.
        """
        self.axioms.remove(axiom)
        self._mutations += 1

    def __len__(self) -> int:
        return len(self.axioms)

    def __iter__(self) -> Iterator[Axiom]:
        return iter(self.axioms)

    def gcis(self) -> list[Subsumption]:
        """All axioms as subsumptions (equivalences split in two)."""
        out: list[Subsumption] = []
        for axiom in self.axioms:
            if isinstance(axiom, Subsumption):
                out.append(axiom)
            else:
                out.extend(axiom.as_subsumptions())
        return out

    def atomic_names(self) -> frozenset[str]:
        # one set, frozen once: a frozenset union per axiom is quadratic.
        # Not cached, because a TBox mutates in place.
        out: set[str] = set()
        for gci in self.gcis():
            out.update(gci.lhs.atomic_names(), gci.rhs.atomic_names())
        return frozenset(out)

    def role_names(self) -> frozenset[str]:
        out: set[str] = set()
        for gci in self.gcis():
            out.update(gci.lhs.role_names(), gci.rhs.role_names())
        return frozenset(out)

    # ------------------------------------------------------------------ #
    # definitorial structure (enables lazy unfolding)
    # ------------------------------------------------------------------ #

    def defined_names(self) -> frozenset[str]:
        """Atomic names appearing as the lhs of some axiom."""
        return frozenset(
            gci.lhs.name for gci in self.gcis() if isinstance(gci.lhs, Atomic)
        )

    def dependency_graph(self) -> DiGraph:
        """Name-dependency graph: an edge A → B when A's definition uses B."""
        graph = DiGraph()
        for name in self.atomic_names():
            graph.add_node(name)
        for gci in self.gcis():
            if isinstance(gci.lhs, Atomic):
                for used in gci.rhs.atomic_names():
                    if used != gci.lhs.name:
                        graph.add_edge(gci.lhs.name, used)
        return graph

    def is_definitorial(self) -> bool:
        """True iff every lhs is atomic and the dependency graph is acyclic.

        Definitorial TBoxes — the only kind the paper's examples use —
        admit lazy unfolding in the tableau; everything else goes through
        GCI propagation with blocking.
        """
        if not all(isinstance(gci.lhs, Atomic) for gci in self.gcis()):
            return False
        return find_cycle(self.dependency_graph()) is None

    def definitions_of(self, name: str) -> list[Concept]:
        """The right-hand sides of axioms whose lhs is the atomic ``name``."""
        return [
            gci.rhs
            for gci in self.gcis()
            if isinstance(gci.lhs, Atomic) and gci.lhs.name == name
        ]

    def general_gcis(self) -> list[Subsumption]:
        """GCIs whose lhs is not atomic (require propagation, not unfolding)."""
        return [gci for gci in self.gcis() if not isinstance(gci.lhs, Atomic)]

    def extended(self, axioms: Iterable[Axiom]) -> "TBox":
        """A new TBox with ``axioms`` appended (the repair move of §3)."""
        return TBox([*self.axioms, *axioms])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TBox({len(self.axioms)} axioms)"

    def pretty(self) -> str:
        """A readable multi-line rendering (matches the paper's display style)."""
        return "\n".join(str(a) for a in self.axioms)
