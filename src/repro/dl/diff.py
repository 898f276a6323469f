"""Diffing of TBoxes, syntactic and semantic.

When an ontonomy is revised — the paper's repair (9)–(11), or any
downstream edit — two deltas matter at two different price points.
``axiom_diff`` is the cheap syntactic one: which axioms were added or
removed, which names gained or lost a definition, whether any general
(non-definitorial) axiom moved.  It costs one set comparison;
``change_impact`` turns it into the set of names whose meaning the edit
can move, which a hot swap uses to carry still-valid reasoner cache
entries over to the successor (:mod:`repro.serve.snapshot`).
``tbox_diff`` is the expensive semantic one: it classifies, for the
shared atomic names, every subsumption pair as kept, gained, or lost,
and reports vocabulary changes separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .defgraph import dependents_of
from .reasoner import Reasoner
from .syntax import Atomic
from .tbox import Axiom, Equivalence, TBox


@dataclass(frozen=True)
class AxiomDelta:
    """The syntactic delta between two TBoxes, at axiom granularity.

    ``changed_names`` are the atomic names whose *own definition* moved:
    the left-hand sides of added/removed definitorial axioms (both sides
    for an atomic-atomic equivalence).  ``general_changed`` flags any
    added/removed axiom that is not definitorial — a non-atomic
    left-hand side, or an equivalence whose reverse half is a general
    GCI — after which no locality argument holds (see
    :func:`change_impact`).
    """

    added: frozenset[Axiom]
    removed: frozenset[Axiom]
    names_added: frozenset[str]
    names_removed: frozenset[str]
    changed_names: frozenset[str]
    general_changed: bool

    @property
    def unchanged(self) -> bool:
        return not self.added and not self.removed

    def summary(self) -> str:
        parts = []
        for label, axioms in (("+", self.added), ("-", self.removed)):
            for axiom in sorted(axioms, key=str):
                parts.append(f"{label} {axiom}")
        return "; ".join(parts) if parts else "no syntactic change"


def axiom_diff(before: TBox, after: TBox) -> AxiomDelta:
    """The syntactic axiom-level delta from ``before`` to ``after``.

    A TBox diffed against itself (or any axiom-identical copy) yields an
    empty delta.  Duplicated axioms are compared as a set: adding a
    second copy of an existing axiom is no change.
    """
    old_axioms = frozenset(before.axioms)
    new_axioms = frozenset(after.axioms)
    added = new_axioms - old_axioms
    removed = old_axioms - new_axioms

    changed: set[str] = set()
    general_changed = False
    for axiom in (*added, *removed):
        if not isinstance(axiom.lhs, Atomic):
            general_changed = True
            continue
        changed.add(axiom.lhs.name)
        if isinstance(axiom, Equivalence):
            if isinstance(axiom.rhs, Atomic):
                # A ≡ B constrains both names symmetrically
                changed.add(axiom.rhs.name)
            else:
                # the reverse half (rhs ⊑ A) is a general GCI
                general_changed = True

    names_before = before.atomic_names()
    names_after = after.atomic_names()
    return AxiomDelta(
        added=added,
        removed=removed,
        names_added=frozenset(names_after - names_before),
        names_removed=frozenset(names_before - names_after),
        changed_names=frozenset(changed),
        general_changed=general_changed,
    )


def change_impact(before: TBox, after: TBox) -> Optional[frozenset[str]]:
    """The names whose meaning the edit ``before`` → ``after`` can move.

    Every name whose definition transitively mentions an edited name
    (:func:`repro.dl.defgraph.dependents_of`), plus the added
    vocabulary; empty when the two axiom sets are equal.  A concept
    built only from names outside the set unfolds to the same
    definitional web in both TBoxes, so every subsumption and
    satisfiability answer about it stands.  ``None`` when no locality
    argument holds: a general (non-definitorial) axiom changed, or an
    unchanged general axiom's vocabulary reaches the set — a general
    GCI fires at every individual, so once its trigger or consequence
    concepts shift meaning the blast radius is global.
    """
    delta = axiom_diff(before, after)
    if delta.general_changed:
        return None
    if delta.unchanged:
        return frozenset()
    impact = dependents_of(delta.changed_names, before, after) | delta.names_added
    for tbox in (before, after):
        for gci in tbox.general_gcis():
            if (gci.lhs.atomic_names() | gci.rhs.atomic_names()) & impact:
                return None
    return impact


@dataclass(frozen=True)
class TBoxDiff:
    """The semantic delta between two TBoxes."""

    names_added: frozenset[str]
    names_removed: frozenset[str]
    subsumptions_gained: frozenset[tuple[str, str]]  # (sub, sup) new in B
    subsumptions_lost: frozenset[tuple[str, str]]    # (sub, sup) only in A
    subsumptions_kept: frozenset[tuple[str, str]]

    @property
    def is_conservative(self) -> bool:
        """True iff nothing entailed before was lost (names may be added)."""
        return not self.subsumptions_lost and not self.names_removed

    @property
    def unchanged(self) -> bool:
        return (
            not self.names_added
            and not self.names_removed
            and not self.subsumptions_gained
            and not self.subsumptions_lost
        )

    def summary(self) -> str:
        parts = []
        if self.names_added:
            parts.append(f"+names: {', '.join(sorted(self.names_added))}")
        if self.names_removed:
            parts.append(f"-names: {', '.join(sorted(self.names_removed))}")
        for label, pairs in (
            ("+⊑", self.subsumptions_gained),
            ("-⊑", self.subsumptions_lost),
        ):
            for sub, sup in sorted(pairs):
                parts.append(f"{label} {sub} ⊑ {sup}")
        return "; ".join(parts) if parts else "no semantic change"


def tbox_diff(before: TBox, after: TBox) -> TBoxDiff:
    """Compare the entailed atomic subsumptions of two TBoxes.

    Subsumption pairs are compared over the *shared* names; vocabulary
    growth/shrinkage is reported separately (a pair involving an added
    name is not a "gained entailment" — it had no truth value before).
    """
    names_before = before.atomic_names()
    names_after = after.atomic_names()
    shared = sorted(names_before & names_after)

    def entailed_pairs(tbox: TBox) -> frozenset[tuple[str, str]]:
        reasoner = Reasoner(tbox)
        return frozenset(
            (sub, sup)
            for sub in shared
            for sup in shared
            if sub != sup and reasoner.subsumes(Atomic(sup), Atomic(sub))
        )

    pairs_before = entailed_pairs(before)
    pairs_after = entailed_pairs(after)
    return TBoxDiff(
        names_added=frozenset(names_after - names_before),
        names_removed=frozenset(names_before - names_after),
        subsumptions_gained=frozenset(pairs_after - pairs_before),
        subsumptions_lost=frozenset(pairs_before - pairs_after),
        subsumptions_kept=frozenset(pairs_before & pairs_after),
    )
