"""TBox classification: the inferred concept hierarchy.

Computes the subsumption partial order over the named concepts of a TBox
(plus ⊤ and ⊥) and exposes it as a :class:`repro.order.Poset`.

``algorithm="saturation"`` (the default) classifies from the
consequence-based completion of :mod:`repro.dl.saturation`.  With an
empty non-Horn residue the whole hierarchy is read directly off the
saturated subsumer bitsets — zero tableau tests.  With residue present
it classifies from *models* (Glimm, Horrocks, Motik, Shearer & Stoilos,
"A Novel Approach to Ontology Classification", JWS 2012): one
satisfiability test per name (and one for ⊤) keeps its clash-free
completion graph, whose root label bounds the name's subsumers — a name
missing from it is not one.  The saturation's True answers, told
subsumers included, are the known subsumers; only a root-label name that
is not known costs a subsumption test (``hierarchy.models`` and
``hierarchy.tableau_subsumptions``).  Both read the hierarchy off
per-name subsumer masks with the same code.

A :class:`repro.robust.Budget` governs this same run; it never selects
another algorithm.  A complete saturation opens no tableau, so there is
nothing to govern.  Otherwise each model and each test runs under its
own :meth:`~repro.robust.Budget.child` ledger.  A model that runs out
leaves its name with the subsumers the saturation proved, and records
every other question about the name in
:attr:`ConceptHierarchy.incomplete`: ``(name, other)`` for each name
not proved a subsumer, and ``(name, ⊥)``.  A test that runs out records
its own pair.  A recorded pair that the closed hierarchy asserts anyway,
by a chain of proved edges, is answered and dropped.  Nothing unproved
is asserted, so a partial hierarchy is sound, and one with nothing
incomplete is the unbudgeted hierarchy.

``algorithm="brute"`` is the O(n²) pairwise subsumption matrix, kept as
the correctness oracle; Hypothesis property tests assert that the
saturation path, budgeted or not, agrees with it over random TBoxes.

Equivalent names are grouped before the poset is built, so antisymmetry
holds by construction; a named concept equivalent to ⊤ joins ⊤'s group,
unsatisfiable names join ⊥'s.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..obs import recorder as _obs
from ..order import Poset
from ..robust import Budget, BudgetExhausted
from .intern import BOTTOM_ID, TOP_ID, BitSet
from .reasoner import Reasoner
from .syntax import Atomic, Concept, TOP, _Top
from .tbox import TBox

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .saturation import Saturation

TOP_NAME = "⊤"
BOTTOM_NAME = "⊥"

_ALGORITHMS = ("saturation", "brute")


class ConceptHierarchy:
    """The classified hierarchy of a TBox.

    ``poset`` orders equivalence-class representatives (sorted name of
    each group); ``group_of`` maps every name to its representative.
    Work counters: ``tableau_tests`` (subsumption questions that went to
    the reasoner) and ``models`` (tableau models built, non-Horn
    saturation path only).

    The reasoner is held only while the hierarchy classifies: a
    finished hierarchy can outlive it — a hot swap that keeps it for an
    unchanged TBox must not keep the old reasoner's interned concepts
    resident.

    With a :class:`repro.robust.Budget`, every model, subsumption and
    satisfiability question runs governed under a per-query
    :meth:`~repro.robust.Budget.child` ledger.  An UNKNOWN answer is
    treated conservatively (no subsumption edge is asserted, the name is
    not pushed to ⊥) and the unresolved ``(specific, general)`` name
    pairs are recorded in :attr:`incomplete` — classification always
    finishes with a sound partial hierarchy instead of raising.
    """

    def __init__(
        self,
        tbox: TBox,
        *,
        reasoner: Reasoner | None = None,
        algorithm: str = "saturation",
        budget: Budget | None = None,
    ) -> None:
        if algorithm not in _ALGORITHMS:
            raise ValueError(
                f"unknown classification algorithm {algorithm!r}; "
                f"expected one of {_ALGORITHMS}"
            )
        self.tbox = tbox
        self.algorithm = algorithm
        self._reasoner: Optional[Reasoner] = reasoner or Reasoner(tbox)
        self.tableau_tests = 0
        self.models = 0
        self._budget = budget
        #: (specific, general) name pairs whose question exhausted its
        #: budget and that the closed hierarchy does not assert anyway;
        #: empty means the hierarchy is definite
        self.incomplete: set[tuple[str, str]] = set()
        self._satisfiable: dict[str, bool] = {}

        names = sorted(tbox.atomic_names())
        _obs.incr("hierarchy.classifications")

        with _obs.trace(f"hierarchy.classify.{algorithm}"):
            if algorithm == "brute":
                groups, up, top_members = self._classify_brute(names)
            else:
                groups, up, top_members = self._classify_saturation(names)
        self._reasoner = None

        # shared finalization: group_of for every name (⊤-equivalents to
        # ⊤, unsatisfiable to ⊥), and the poset over the representatives
        # (each group's least name) from their closed up-sets
        self._groups = sorted(groups.values())
        self._top_members = sorted(top_members)
        self.group_of: dict[str, str] = {}
        for group in self._groups:
            for name in group:
                self.group_of[name] = group[0]
        for name in names:
            if not self._satisfiable.get(name, True):
                self.group_of[name] = BOTTOM_NAME
        for name in self._top_members:
            self.group_of[name] = TOP_NAME
        self.group_of[TOP_NAME] = TOP_NAME
        self.group_of[BOTTOM_NAME] = BOTTOM_NAME

        with _obs.trace("hierarchy.poset"):
            representatives = [g[0] for g in self._groups]
            # ⊥ below everything, ⊤ above everything
            order = {
                BOTTOM_NAME: frozenset((BOTTOM_NAME, *representatives, TOP_NAME))
            }
            for rep in representatives:
                order[rep] = up[rep]
            order[TOP_NAME] = frozenset((TOP_NAME,))
            self.poset = Poset.from_up_sets(order)
        # a starved question the closed hierarchy answers anyway (by a
        # chain of proved edges) is not open
        self.incomplete = {
            pair for pair in self.incomplete if not self.is_subsumed_by(*pair)
        }

    # ------------------------------------------------------------------ #
    # tableau questions, governed under a budget
    # ------------------------------------------------------------------ #

    def _tableau_subsumes(self, general: Concept, specific: Concept) -> bool:
        """One subsumption test by the reasoner, governed under a budget."""
        self.tableau_tests += 1
        _obs.incr("hierarchy.tableau_subsumptions")
        if self._budget is None:
            return self._reasoner.subsumes(general, specific)
        verdict = self._reasoner.subsumes_governed(
            general, specific, self._budget.child()
        )
        if verdict.is_unknown:
            _obs.incr("hierarchy.unknown_edges")
            self.incomplete.add((_name_of(specific), _name_of(general)))
            return False  # conservative: assert no edge we cannot prove
        return verdict.as_bool()

    def _check_satisfiable(self, name: str) -> bool:
        _obs.incr("hierarchy.sat_checks")
        if self._budget is None:
            return self._reasoner.is_satisfiable(Atomic(name))
        verdict = self._reasoner.is_satisfiable_governed(
            Atomic(name), self._budget.child()
        )
        if verdict.is_unknown:
            _obs.incr("hierarchy.unknown_edges")
            # "is name ⊑ ⊥?" is what exhausted: record it, keep the name live
            self.incomplete.add((name, BOTTOM_NAME))
            return True
        return verdict.as_bool()

    # ------------------------------------------------------------------ #
    # classification algorithms
    # ------------------------------------------------------------------ #

    def _classify_saturation(
        self, names: list[str]
    ) -> tuple[dict[str, list[str]], dict[str, frozenset[str]], list[str]]:
        """Read the hierarchy off the saturation, completed by models.

        A complete saturation is sound *and complete* — ``a ⊑ b`` iff
        b's bit is in S(a) — so no tableau runs.  With a residue, each
        name's saturated subsumers are completed from one model
        (:meth:`_model_subsumers`).
        """
        sat = self._reasoner.saturation()
        if sat.complete:
            named = sat.named_mask()
            subsumers = {name: sat.subsumers_of(name) & named for name in names}
            top = sat.subsumers_of(TOP_NAME)
        else:
            top = self._model_subsumers(sat, TOP_NAME, names)
            subsumers = {
                name: self._model_subsumers(sat, name, names) for name in names
            }
            if self.incomplete:
                top = _close_masks(subsumers, top, sat)
        return self._read_off(sat, subsumers, top)

    def _model_subsumers(
        self, sat: "Saturation", name: str, names: list[str]
    ) -> int:
        """Complete a name's saturated subsumers from one tableau model.

        The saturation's True answers are sound, so they are the known
        subsumers.  The root label of a model of the name bounds the
        rest: a name outside it is not a subsumer, and a name inside it
        that is not known is asked of the tableau.  Only those questions
        reach the reasoner's subsumption cache.  A name without a model
        is unsatisfiable and gets the ⊥ bit.  A model that runs out of
        budget leaves the known subsumers and opens every other pair.
        """
        atoms = sat.atoms
        bottom_bit = 1 << BOTTOM_ID
        known = sat.subsumers_of(name) & sat.named_mask()
        if known & bottom_bit:
            return bottom_bit  # the saturation already derived ⊥
        self.models += 1
        _obs.incr("hierarchy.models")
        concept = TOP if name == TOP_NAME else Atomic(name)
        budget = None if self._budget is None else self._budget.child()
        try:
            possible = self._reasoner.model_names(concept, budget)
        except BudgetExhausted:
            _obs.incr("hierarchy.unknown_edges")
            self.incomplete.update(
                (name, other)
                for other in (*names, BOTTOM_NAME)
                if other != name and not known >> atoms.get(other) & 1
            )
            return known
        if possible is None:
            return bottom_bit
        for other in sorted(possible):
            atom = atoms.get(other)
            if not known >> atom & 1 and self._tableau_subsumes(
                Atomic(other), concept
            ):
                known |= 1 << atom
        return known

    def _read_off(
        self, sat: "Saturation", subsumers: dict[str, int], top: int
    ) -> tuple[dict[str, list[str]], dict[str, frozenset[str]], list[str]]:
        """The hierarchy of transitively closed named-subsumer masks.

        ``subsumers`` maps every name, in sorted order, to the saturation
        atom ids of its named subsumers (itself included), or to the ⊥
        bit when it is unsatisfiable; ``top`` holds ⊤'s.  Equivalence
        classes are groups with identical masks, and a name whose bit is
        in ``top`` is equivalent to ⊤.

        Like :meth:`_classify_brute`, returns the groups by their least
        name, each group's closed up-set of least names (⊤ included)
        and the ⊤-equivalent names.  The masks are closed, so the
        up-sets are.
        """
        atoms = sat.atoms
        bottom_bit = 1 << BOTTOM_ID

        top_members: list[str] = []
        groups_by_mask: dict[int, list[str]] = {}
        for name, mask in subsumers.items():  # group members stay sorted
            if mask & bottom_bit:
                self._satisfiable[name] = False
                continue
            self._satisfiable[name] = True
            if top >> atoms.get(name) & 1:
                top_members.append(name)
                continue
            groups_by_mask.setdefault(mask, []).append(name)

        groups = {members[0]: members for members in groups_by_mask.values()}
        rep_of: dict[int, str] = {}
        for rep, members in groups.items():
            for member in members:
                rep_of[atoms.get(member)] = rep
        up: dict[str, frozenset[str]] = {}
        skip = (1 << TOP_ID) | bottom_bit
        for mask, members in groups_by_mask.items():
            above = {members[0], TOP_NAME}
            for atom in BitSet.bits(mask & ~skip):
                other = rep_of.get(atom)
                if other is not None:
                    above.add(other)
            up[members[0]] = frozenset(above)
        return groups, up, top_members

    def _classify_brute(
        self, names: list[str]
    ) -> tuple[dict[str, list[str]], dict[str, frozenset[str]], list[str]]:
        """The full pairwise subsumption matrix: every pair is a test.

        The matrix is transitively closed unless a budget cut some of
        its tests; then it is closed here, as :func:`_close_masks`
        closes the saturation's masks, so that mutual subsumers group.
        """
        for name in names:
            self._satisfiable[name] = self._check_satisfiable(name)

        live = [n for n in names if self._satisfiable[n]]
        # above[b]: the live names that subsume b, b itself included
        above: dict[str, set[str]] = {name: {name} for name in live}
        for a in live:
            for b in live:
                if a != b and self._tableau_subsumes(Atomic(a), Atomic(b)):
                    above[b].add(a)
        if self.incomplete:
            for k in live:  # Warshall
                for name in live:
                    if k in above[name]:
                        above[name] |= above[k]

        # group equivalent names
        grouped: list[list[str]] = []
        for name in live:
            for group in grouped:
                rep = group[0]
                if rep in above[name] and name in above[rep]:
                    group.append(name)
                    break
            else:
                grouped.append([name])
        groups = {group[0]: group for group in grouped}

        # a representative that subsumes every other one may be ⊤ itself;
        # one extra tableau question settles it
        top_members: list[str] = []
        maxima = [r for r in groups if all(r in above[x] for x in groups)]
        if maxima:
            (candidate,) = maxima[:1]
            if self._tableau_subsumes(Atomic(candidate), TOP):
                top_members = groups.pop(candidate)
        up = {
            rep: frozenset((*(x for x in above[rep] if x in groups), TOP_NAME))
            for rep in groups
        }
        return groups, up, top_members

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    @property
    def complete(self) -> bool:
        """True iff every subsumption question is answered.

        A question that exhausted its budget counts as answered when the
        closed hierarchy asserts its pair anyway, so a budgeted run can
        report ``hierarchy.unknown_edges`` and still be complete.
        """
        return not self.incomplete

    def groups(self) -> frozenset[frozenset[str]]:
        """All equivalence classes of satisfiable, non-⊤ names."""
        return frozenset(frozenset(g) for g in self._groups)

    def top_equivalents(self) -> frozenset[str]:
        """Named concepts the TBox forces to be equivalent to ⊤."""
        return frozenset(self._top_members)

    def equivalents(self, name: str) -> frozenset[str]:
        """All names equivalent to ``name`` (including itself).

        ``name`` may be a named concept, ``⊤``, or ``⊥``; the classes of
        the synthetic top/bottom include their marker, so
        ``equivalents("⊤")`` is ``{"⊤"}`` plus any ⊤-equivalent names and
        ``equivalents("⊥")`` is ``{"⊥"}`` plus the unsatisfiable names.
        """
        rep = self.group_of.get(name)
        if rep is None:
            raise KeyError(f"unknown concept name {name!r}")
        if rep == TOP_NAME:
            return frozenset({TOP_NAME, *self._top_members})
        if rep == BOTTOM_NAME:
            return frozenset(
                {BOTTOM_NAME, *(n for n, sat in self._satisfiable.items() if not sat)}
            )
        for group in self._groups:
            if group[0] == rep:
                return frozenset(group)
        raise KeyError(f"unknown concept name {name!r}")  # pragma: no cover

    def parents(self, name: str) -> frozenset[str]:
        """Direct (covering) subsumers of ``name``'s group."""
        return self.poset.upper_covers(self.group_of[name])

    def children(self, name: str) -> frozenset[str]:
        """Direct (covered) subsumees of ``name``'s group."""
        return self.poset.lower_covers(self.group_of[name])

    def ancestors(self, name: str) -> frozenset[str]:
        rep = self.group_of[name]
        return self.poset.up_set(rep) - {rep}

    def descendants(self, name: str) -> frozenset[str]:
        rep = self.group_of[name]
        return self.poset.down_set(rep) - {rep}

    def is_subsumed_by(self, specific: str, general: str) -> bool:
        return self.poset.leq(self.group_of[specific], self.group_of[general])

    def pretty(self) -> str:
        """An indented tree rendering (duplicating DAG nodes per parent)."""
        lines: list[str] = []

        def walk(rep: str, depth: int) -> None:
            if rep == TOP_NAME and self._top_members:
                shown = " ≡ ".join([TOP_NAME, *self._top_members])
            else:
                group = [g for g in self._groups if g[0] == rep]
                shown = " ≡ ".join(group[0]) if group else rep
            lines.append("  " * depth + shown)
            for child in sorted(self.children(rep) - {BOTTOM_NAME}):
                walk(child, depth + 1)

        walk(TOP_NAME, 0)
        return "\n".join(lines)


def _name_of(concept: Concept) -> str:
    """The display name of a classification query operand."""
    if isinstance(concept, Atomic):
        return concept.name
    if isinstance(concept, _Top):
        return TOP_NAME
    return str(concept)


def _close_masks(subsumers: dict[str, int], top: int, sat: "Saturation") -> int:
    """Close partial subsumer masks under transitivity, in place.

    A budget can leave ``a ⊑ b`` and ``b ⊑ c`` proved without c's bit in
    a's mask, or two names that proved each other with different masks.
    Closing gives mutual subsumers one mask, so they group as
    equivalents instead of forming a cycle.  Every name is below ⊤, so
    ⊤'s mask joins every closure; a ⊥ bit spreads to every subsumee.
    Returns ⊤'s closed mask.  Complete masks are closed already.
    """
    atoms = sat.atoms
    by_atom = {atoms.get(name): mask for name, mask in subsumers.items()}
    by_atom[TOP_ID] = top
    changed = True
    while changed:
        changed = False
        for atom, mask in by_atom.items():
            closed = mask
            for bit in BitSet.bits(mask & ~(1 << atom | 1 << BOTTOM_ID)):
                closed |= by_atom.get(bit, 0)
            if closed != mask:
                by_atom[atom] = closed
                changed = True
    for name in subsumers:
        subsumers[name] = by_atom[atoms.get(name)]
    return by_atom[TOP_ID]


def classify(
    tbox: TBox,
    *,
    algorithm: str = "saturation",
    reasoner: Reasoner | None = None,
    budget: Budget | None = None,
) -> ConceptHierarchy:
    """Classify ``tbox`` and return its inferred hierarchy.

    The default ``algorithm="saturation"`` reads the whole hierarchy off
    the Horn/EL saturation when the TBox normalizes completely (no
    tableau tests at all), and completes it from one tableau model per
    name when a non-Horn residue remains; ``"brute"`` selects the
    pairwise subsumption matrix, the correctness oracle.  A ``budget``
    governs the same run: it never raises on exhaustion, recording
    unresolved pairs in :attr:`ConceptHierarchy.incomplete` instead.
    """
    return ConceptHierarchy(
        tbox, algorithm=algorithm, reasoner=reasoner, budget=budget
    )
