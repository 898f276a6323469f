"""TBox classification: the inferred concept hierarchy.

Computes the subsumption partial order over the named concepts of a TBox
(plus ⊤ and ⊥) and exposes it as a :class:`repro.order.Poset`.

Four algorithms are available:

``algorithm="auto"`` (the default) resolves to ``"saturation"`` for
every run without a budget and to ``"enhanced"`` under one
(:meth:`repro.dl.reasoner.Reasoner.resolve_algorithm`).

``algorithm="saturation"`` classifies from the consequence-based
completion of :mod:`repro.dl.saturation`.  With an empty non-Horn
residue the whole hierarchy is read directly off the saturated subsumer
bitsets — zero tableau tests.  With residue present it classifies from
*models* (Glimm, Horrocks, Motik, Shearer & Stoilos, "A Novel Approach
to Ontology Classification", JWS 2012): one satisfiability test per name
(and one for ⊤) keeps its clash-free completion graph, whose root label
bounds the name's subsumers — a name missing from it is not one.  The
saturation's True answers, told subsumers included, are the known
subsumers; only a root-label name that is not known costs a subsumption
test (``hierarchy.models`` and ``hierarchy.tableau_subsumptions``).
Both read the hierarchy off per-name subsumer masks with the same code.
A budgeted ``"saturation"`` run keeps to the governed traversal below,
with the saturation as a *subsumption oracle*: queries it answers never
open a tableau, the rest fall back per query (counted as
``saturation.tableau_fallbacks``).

``algorithm="enhanced"`` is insertion-based *enhanced-traversal*
classification in the tradition of Baader, Hollunder, Nebel &
Profitlich: concepts are inserted one at a time, a *top search* from ⊤
finds the most specific subsumers and a *bottom search* from ⊥ finds the
most general subsumees.  Told subsumers seed both searches, and
transitivity of the partial order propagates both positive and negative
answers, so most candidate pairs never reach the tableau — every avoided
test shows up in the ``hierarchy.pruned_tests`` counter (told-seeded
answers keep their own ``hierarchy.told_hits``).  The traversal state is
interned: DAG nodes carry dense int ids, parents/children/closures are
int bitmasks (:mod:`repro.dl.intern`), so the transitivity and
negative-propagation bookkeeping is bitwise.

``algorithm="brute"`` is the original O(n²) pairwise subsumption matrix,
kept as a correctness oracle; Hypothesis property tests assert all
algorithms produce identical hierarchies over random TBoxes.

Equivalent names are grouped before the poset is built, so antisymmetry
holds by construction; a named concept equivalent to ⊤ joins ⊤'s group,
unsatisfiable names join ⊥'s.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..obs import recorder as _obs
from ..order import Poset
from ..robust import Budget
from .intern import BOTTOM_ID, TOP_ID, BitSet, InternTable
from .reasoner import Reasoner
from .syntax import And, Atomic, Concept, TOP, _Top
from .tbox import TBox

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .saturation import Saturation

TOP_NAME = "⊤"
BOTTOM_NAME = "⊥"

_ALGORITHMS = ("auto", "enhanced", "brute", "saturation")


class ConceptHierarchy:
    """The classified hierarchy of a TBox.

    ``poset`` orders equivalence-class representatives (sorted name of
    each group); ``group_of`` maps every name to its representative.
    Satisfied counters: ``told_hits`` (answers seeded from told
    subsumers), ``pruned_tests`` (answers derived from the partial order
    already built, enhanced algorithm only), ``tableau_tests``
    (subsumption questions that actually went to the reasoner),
    ``oracle_hits`` (questions the saturation oracle settled),
    ``models`` (tableau models built, non-Horn saturation path only).

    ``algorithm`` records the *resolved* algorithm: a construction with
    ``"auto"`` ends up reading ``"saturation"`` or ``"enhanced"`` here.
    The reasoner (and the saturation oracle) are held only while the
    hierarchy classifies: a finished hierarchy can outlive them — a hot
    swap that keeps it for an unchanged TBox must not keep the old
    reasoner's interned concepts resident.

    With a :class:`repro.robust.Budget`, every subsumption and
    satisfiability question runs governed under a per-query
    :meth:`~repro.robust.Budget.child` ledger.  An UNKNOWN answer is
    treated conservatively (no subsumption edge is asserted, the name is
    not pushed to ⊥) and the unresolved ``(specific, general)`` name pair
    is recorded in :attr:`incomplete` — classification always finishes
    with a best-effort partial hierarchy instead of raising.
    """

    def __init__(
        self,
        tbox: TBox,
        *,
        reasoner: Reasoner | None = None,
        use_told_subsumers: bool = True,
        algorithm: str = "enhanced",
        budget: Budget | None = None,
    ) -> None:
        if algorithm not in _ALGORITHMS:
            raise ValueError(
                f"unknown classification algorithm {algorithm!r}; "
                f"expected one of {_ALGORITHMS}"
            )
        self.tbox = tbox
        self._reasoner: Optional[Reasoner] = reasoner or Reasoner(tbox)
        self.told_hits = 0
        self.pruned_tests = 0
        self.tableau_tests = 0
        self.oracle_hits = 0
        self.models = 0
        self._budget = budget
        #: (specific, general) name pairs whose subsumption question
        #: exhausted its budget; empty means the hierarchy is definite
        self.incomplete: set[tuple[str, str]] = set()
        self._satisfiable: dict[str, bool] = {}
        self._oracle: Optional["Saturation"] = None

        algorithm = self._reasoner.resolve_algorithm(algorithm, budget)
        self.algorithm = algorithm

        # saturation runs read the saturation (the budgeted hybrid as an
        # oracle); the pure "enhanced" and "brute" baselines stay
        # tableau-driven
        if algorithm == "saturation":
            self._oracle = self._reasoner.saturation()

        names = sorted(tbox.atomic_names())
        _obs.incr("hierarchy.classifications")

        with _obs.trace(f"hierarchy.classify.{algorithm}"):
            if algorithm == "saturation" and budget is None:
                if self._oracle.complete:
                    groups, edges, top_members = self._classify_saturation(names)
                else:
                    groups, edges, top_members = self._classify_models(names)
            else:
                # only the pairwise algorithms seed from told subsumers
                told_up = _told_subsumers(tbox) if use_told_subsumers else {}
                if algorithm == "brute":
                    groups, edges, top_members = self._classify_brute(
                        names, told_up
                    )
                else:
                    groups, edges, top_members = self._classify_enhanced(
                        names, told_up
                    )
        self._reasoner = self._oracle = None

        # shared finalization: lexicographic-minimum representatives,
        # group_of for every name (⊤-equivalents to ⊤, unsatisfiable to ⊥),
        # and the poset over representatives
        relabel = {TOP_NAME: TOP_NAME, BOTTOM_NAME: BOTTOM_NAME}
        for node, group in groups.items():
            relabel[node] = min(group)
        self._groups = sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])
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

        representatives = [g[0] for g in self._groups]
        elements = [BOTTOM_NAME, *representatives, TOP_NAME]
        pairs = [(relabel[low], relabel[high]) for low, high in edges]
        # ⊤ above everything, ⊥ below everything (redundant pairs are
        # harmless: the poset closes transitively)
        pairs += [(BOTTOM_NAME, rep) for rep in representatives]
        pairs += [(rep, TOP_NAME) for rep in representatives]
        pairs.append((BOTTOM_NAME, TOP_NAME))
        self.poset = Poset(elements, pairs)

    # ------------------------------------------------------------------ #
    # subsumption / satisfiability questions (oracle, then tableau)
    # ------------------------------------------------------------------ #

    def _oracle_answer(self, general: Concept, specific: Concept) -> Optional[bool]:
        general_name = _oracle_name(general)
        specific_name = _oracle_name(specific)
        if general_name is None or specific_name is None:
            return None
        return self._oracle.subsumes_names(specific_name, general_name)

    def _subsumes(self, general: Concept, specific: Concept) -> bool:
        """The saturation oracle's answer if it has one, else the tableau's."""
        if self._oracle is not None:
            answer = self._oracle_answer(general, specific)
            if answer is not None:
                self.oracle_hits += 1
                _obs.incr("hierarchy.oracle_hits")
                return answer
            _obs.incr("saturation.tableau_fallbacks")
        return self._tableau_subsumes(general, specific)

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
        if self._oracle is not None:
            answer = self._oracle.satisfiable(name)
            if answer is not None:
                self.oracle_hits += 1
                _obs.incr("hierarchy.oracle_hits")
                return answer
            _obs.incr("saturation.tableau_fallbacks")
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

    def _told_hit(self) -> None:
        self.told_hits += 1
        _obs.incr("hierarchy.told_hits")

    def _pruned(self) -> None:
        self.pruned_tests += 1
        _obs.incr("hierarchy.pruned_tests")

    # ------------------------------------------------------------------ #
    # classification algorithms
    # ------------------------------------------------------------------ #

    def _classify_saturation(
        self, names: list[str]
    ) -> tuple[dict[str, list[str]], list[tuple[str, str]], list[str]]:
        """Read the hierarchy directly off the saturated subsumer bitsets.

        Only reachable when the non-Horn residue is empty, where the
        saturation is sound *and complete*: ``a ⊑ b`` iff b's bit is in
        S(a).  No tableau test is ever run.
        """
        sat = self._oracle
        named = sat.named_mask()
        subsumers = {name: sat.subsumers_of(name) & named for name in names}
        return self._read_off(subsumers, sat.subsumers_of(TOP_NAME))

    def _classify_models(
        self, names: list[str]
    ) -> tuple[dict[str, list[str]], list[tuple[str, str]], list[str]]:
        """Complete each name's saturated subsumers from one tableau model.

        The saturation's True answers are sound, so they are the known
        subsumers.  The root label of a model of the name bounds the
        rest: a name outside it is not a subsumer, and a name inside it
        that is not known is asked of the tableau.  Only those questions
        reach the reasoner's subsumption cache.  A name without a model
        is unsatisfiable and gets the ⊥ bit; ⊤ gets a model too, which
        settles the ⊤-equivalent names the same way.
        """
        sat = self._oracle
        atoms = sat.atoms
        named = sat.named_mask()
        bottom_bit = 1 << BOTTOM_ID

        def subsumers(name: str) -> int:
            known = sat.subsumers_of(name) & named
            if known & bottom_bit:
                return bottom_bit  # the saturation already derived ⊥
            self.models += 1
            _obs.incr("hierarchy.models")
            concept = TOP if name == TOP_NAME else Atomic(name)
            possible = self._reasoner.model_names(concept)
            if possible is None:
                return bottom_bit
            for other in sorted(possible):
                atom = atoms.get(other)
                if not known >> atom & 1 and self._tableau_subsumes(
                    Atomic(other), concept
                ):
                    known |= 1 << atom
            return known

        top = subsumers(TOP_NAME)
        return self._read_off({name: subsumers(name) for name in names}, top)

    def _read_off(
        self, subsumers: dict[str, int], top: int
    ) -> tuple[dict[str, list[str]], list[tuple[str, str]], list[str]]:
        """The hierarchy of complete named-subsumer masks.

        ``subsumers`` maps every name, in sorted order, to the saturation
        atom ids of its named subsumers (itself included), or to the ⊥
        bit when it is unsatisfiable; ``top`` holds ⊤'s.  Equivalence
        classes are groups with identical masks, and a name whose bit is
        in ``top`` is equivalent to ⊤.
        """
        atoms = self._oracle.atoms
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
        edges: list[tuple[str, str]] = []
        skip = (1 << TOP_ID) | bottom_bit
        for mask, members in groups_by_mask.items():
            rep = members[0]
            for atom in BitSet.bits(mask & ~skip):
                other = rep_of.get(atom)
                if other is not None and other != rep:
                    edges.append((rep, other))
        return groups, edges, top_members

    def _classify_brute(
        self, names: list[str], told_up: dict[str, frozenset[str]]
    ) -> tuple[dict[str, list[str]], list[tuple[str, str]], list[str]]:
        """The original full pairwise subsumption matrix."""
        for name in names:
            self._satisfiable[name] = self._check_satisfiable(name)

        live = [n for n in names if self._satisfiable[n]]
        subsumes: dict[tuple[str, str], bool] = {}
        for a in live:
            for b in live:
                if a == b:
                    continue
                if a in told_up.get(b, ()):  # told: b ⊑ a
                    subsumes[(a, b)] = True
                    self._told_hit()
                    continue
                subsumes[(a, b)] = self._subsumes(Atomic(a), Atomic(b))

        # group equivalent names
        grouped: list[list[str]] = []
        for name in live:
            for group in grouped:
                rep = group[0]
                if subsumes.get((rep, name)) and subsumes.get((name, rep)):
                    group.append(name)
                    break
            else:
                grouped.append([name])
        groups = {group[0]: group for group in grouped}
        representatives = list(groups)
        edges = [
            (a, b)
            for a in representatives
            for b in representatives
            if a != b and subsumes[(b, a)]  # b subsumes a: a ≤ b
        ]

        # a representative that subsumes every other one may be ⊤ itself;
        # one extra tableau question settles it
        top_members: list[str] = []
        maxima = [
            r
            for r in representatives
            if all(subsumes[(r, x)] for x in representatives if x != r)
        ]
        if maxima:
            (candidate,) = maxima[:1]
            if self._subsumes(Atomic(candidate), TOP):
                top_members = groups.pop(candidate)
                edges = [(a, b) for a, b in edges if candidate not in (a, b)]
        return groups, edges, top_members

    def _classify_enhanced(
        self, names: list[str], told_up: dict[str, frozenset[str]]
    ) -> tuple[dict[str, list[str]], list[tuple[str, str]], list[str]]:
        """Insertion classification with top/bottom enhanced traversal.

        DAG nodes are interned to dense ids (⊤ = 0, ⊥ = 1, then group
        representatives in creation order); ``parents``/``children`` and
        every closure/memo structure are int bitmasks, so transitivity
        and negative propagation are single bitwise operations.
        """
        told_down: dict[str, set[str]] = {}
        for name, ups in told_up.items():
            for up in ups:
                if up != name:
                    told_down.setdefault(up, set()).add(name)

        # the growing DAG over interned group nodes, ⊤ at the top (id 0),
        # ⊥ at the bottom (id 1)
        nodes = InternTable()
        top_id = nodes.intern(TOP_NAME)
        bot_id = nodes.intern(BOTTOM_NAME)
        parents: dict[int, int] = {top_id: 0, bot_id: 1 << top_id}
        children: dict[int, int] = {top_id: 1 << bot_id, bot_id: 0}
        groups: dict[int, list[str]] = {}
        node_of: dict[str, int] = {}  # inserted name -> its group's node id
        top_members: list[str] = []

        def up_closure(mask: int) -> int:
            out = 0
            frontier = mask
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                out |= low
                frontier |= parents[low.bit_length() - 1] & ~out
            return out

        def down_closure(mask: int) -> int:
            out = 0
            frontier = mask
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                out |= low
                frontier |= children[low.bit_length() - 1] & ~out
            return out

        for name in _insertion_order(names, told_up):
            concept = Atomic(name)

            if self._reasoner.known_satisfiability(concept) is False:
                self._satisfiable[name] = False
                node_of[name] = bot_id
                continue
            told_mask = 0
            for t in told_up.get(name, ()):
                if t != name and t in node_of:
                    told_mask |= 1 << node_of[t]
            if told_mask >> bot_id & 1:
                # a told subsumer is unsatisfiable, so this name is too
                self._satisfiable[name] = False
                self._pruned()
                node_of[name] = bot_id
                continue
            # positive information: told subsumers and, by transitivity,
            # everything the DAG already places above them
            known_pos = up_closure(told_mask)

            # --- top search: most specific subsumers ----------------- #
            subsumer_memo: dict[int, bool] = {top_id: True}

            def subsumer(node: int) -> bool:
                """Does ``node`` subsume the concept being inserted?"""
                cached = subsumer_memo.get(node)
                if cached is not None:
                    return cached
                if known_pos >> node & 1:
                    subsumer_memo[node] = True
                    self._told_hit()
                    return True
                # a subsumer's ancestors all subsume too: one negative
                # parent settles this node without a tableau call
                mask = parents[node]
                while mask:
                    low = mask & -mask
                    mask ^= low
                    if not subsumer(low.bit_length() - 1):
                        subsumer_memo[node] = False
                        self._pruned()
                        return False
                result = self._subsumes(Atomic(nodes[node]), concept)
                subsumer_memo[node] = result
                return result

            most_specific = 0
            visited = 0

            def descend(node: int) -> None:
                nonlocal most_specific, visited
                visited |= 1 << node
                positive = []
                mask = children[node] & ~(1 << bot_id)
                while mask:
                    low = mask & -mask
                    mask ^= low
                    child = low.bit_length() - 1
                    if subsumer(child):
                        positive.append(child)
                if not positive:
                    most_specific |= 1 << node
                    return
                for child in positive:
                    if not visited >> child & 1:
                        descend(child)

            descend(top_id)

            # satisfiability after the top search: a failed subsumption
            # test has already witnessed satisfiability, so this is
            # usually a (cross-seeded) cache hit
            if not self._check_satisfiable(name):
                self._satisfiable[name] = False
                node_of[name] = bot_id
                continue
            self._satisfiable[name] = True

            # --- bottom search: most general subsumees --------------- #
            told_sub_mask = 0
            for d in told_down.get(name, ()):
                if d in node_of and node_of[d] != bot_id:
                    told_sub_mask |= 1 << node_of[d]
            known_sub = down_closure(told_sub_mask)
            # subsumees live below every subsumer of the new concept;
            # -1 is the all-ones mask: no restriction
            allowed = -1
            if most_specific != 1 << top_id:
                mask = most_specific
                while mask:
                    low = mask & -mask
                    mask ^= low
                    allowed &= down_closure(low)
            subsumee_memo: dict[int, bool] = {bot_id: True}

            def subsumee(node: int) -> bool:
                """Is ``node`` subsumed by the concept being inserted?"""
                cached = subsumee_memo.get(node)
                if cached is not None:
                    return cached
                if not allowed >> node & 1:
                    subsumee_memo[node] = False
                    self._pruned()
                    return False
                if known_sub >> node & 1:
                    subsumee_memo[node] = True
                    self._told_hit()
                    return True
                # a subsumee's descendants are all subsumed too: one
                # negative child settles this node without a tableau call
                mask = children[node]
                while mask:
                    low = mask & -mask
                    mask ^= low
                    if not subsumee(low.bit_length() - 1):
                        subsumee_memo[node] = False
                        self._pruned()
                        return False
                node_concept = TOP if node == top_id else Atomic(nodes[node])
                result = self._subsumes(concept, node_concept)
                subsumee_memo[node] = result
                return result

            most_general = 0
            bottom_visited = 0

            def ascend(node: int) -> None:
                nonlocal most_general, bottom_visited
                bottom_visited |= 1 << node
                positive = []
                mask = parents[node]
                while mask:
                    low = mask & -mask
                    mask ^= low
                    parent = low.bit_length() - 1
                    if subsumee(parent):
                        positive.append(parent)
                if not positive:
                    most_general |= 1 << node
                    return
                for parent in positive:
                    if not bottom_visited >> parent & 1:
                        ascend(parent)

            ascend(bot_id)

            # --- insert ---------------------------------------------- #
            equivalent = most_specific & most_general
            if equivalent:
                node = (equivalent & -equivalent).bit_length() - 1
                if node == top_id:
                    top_members.append(name)
                else:
                    groups[node].append(name)
                node_of[name] = node
                continue
            new_id = nodes.intern(name)
            for parent in BitSet.bits(most_specific):
                children[parent] = (children[parent] & ~most_general) | (
                    1 << new_id
                )
            for child in BitSet.bits(most_general):
                parents[child] = (parents[child] & ~most_specific) | (
                    1 << new_id
                )
            parents[new_id] = most_specific
            children[new_id] = most_general
            groups[new_id] = [name]
            node_of[name] = new_id

        edges = []
        for node, mask in parents.items():
            if node == top_id:
                continue
            node_name = nodes[node]
            for parent in BitSet.bits(mask):
                edges.append((node_name, nodes[parent]))
        return (
            {nodes[node]: members for node, members in groups.items()},
            edges,
            top_members,
        )

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    @property
    def complete(self) -> bool:
        """True iff no subsumption question exhausted its budget."""
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
        rep = self.group_of[name]
        return frozenset(b for a, b in self.poset.covers() if a == rep)

    def children(self, name: str) -> frozenset[str]:
        """Direct (covered) subsumees of ``name``'s group."""
        rep = self.group_of[name]
        return frozenset(a for a, b in self.poset.covers() if b == rep)

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


def _oracle_name(concept: Concept) -> Optional[str]:
    """The saturation-table name of a query operand, if it has one."""
    if isinstance(concept, Atomic):
        return concept.name
    if isinstance(concept, _Top):
        return TOP_NAME
    return None


def _insertion_order(
    names: list[str], told_up: dict[str, frozenset[str]]
) -> list[str]:
    """Names ordered so told subsumers come before their subsumees.

    Inserting a concept after its told subsumers lets the top search
    start from seeded positives.  Told cycles (mutual told subsumption)
    are broken deterministically at the smallest remaining name.
    """
    remaining = set(names)
    order: list[str] = []
    while remaining:
        ready = sorted(
            name
            for name in remaining
            if not ((told_up.get(name, frozenset()) - {name}) & remaining)
        )
        if not ready:  # told cycle
            ready = [min(remaining)]
        for name in ready:
            order.append(name)
            remaining.discard(name)
    return order


def _told_subsumers(tbox: TBox) -> dict[str, frozenset[str]]:
    """The reflexive–transitive closure of syntactic subsumers.

    For every axiom ``A ⊑ C`` (or ``A ≡ C``) with atomic ``A``, each
    atomic top-level conjunct ``B`` of ``C`` is a *told* subsumer of
    ``A``.  Returns name → all told subsumers (including itself).

    The closure runs over bitmasks: names get dense ids, direct told
    edges become per-name masks, and the fixpoint is pure mask ORing.
    """
    names = sorted(tbox.atomic_names())
    index = {name: i for i, name in enumerate(names)}
    direct = [0] * len(names)
    for gci in tbox.gcis():
        if not isinstance(gci.lhs, Atomic):
            continue
        conjuncts = gci.rhs.operands if isinstance(gci.rhs, And) else (gci.rhs,)
        i = index[gci.lhs.name]
        for conjunct in conjuncts:
            if isinstance(conjunct, Atomic):
                direct[i] |= 1 << index[conjunct.name]
    masks = [direct[i] | (1 << i) for i in range(len(names))]
    changed = True
    while changed:
        changed = False
        for i, mask in enumerate(masks):
            acc = mask
            scan = direct[i]
            while scan:
                low = scan & -scan
                scan ^= low
                acc |= masks[low.bit_length() - 1]
            if acc != mask:
                masks[i] = acc
                changed = True
    return {
        name: frozenset(names[b] for b in BitSet.bits(masks[index[name]]))
        for name in names
    }


def classify(
    tbox: TBox,
    *,
    use_told_subsumers: bool = True,
    algorithm: str = "auto",
    reasoner: Reasoner | None = None,
    budget: Budget | None = None,
) -> ConceptHierarchy:
    """Classify ``tbox`` and return its inferred hierarchy.

    The default ``algorithm="auto"`` is ``"saturation"`` without a
    budget: the whole hierarchy is read off the Horn/EL saturation when
    the TBox normalizes completely (no tableau tests at all), and off one
    tableau model per name when a non-Horn residue remains.  Under a
    ``budget`` it is ``"enhanced"`` traversal, and ``"saturation"`` is
    the hybrid with a per-query tableau fallback; ``"brute"`` selects
    the original pairwise subsumption matrix.  A ``budget`` makes
    classification governed: it never raises on exhaustion, recording
    unresolved edges in :attr:`ConceptHierarchy.incomplete` instead.
    """
    return ConceptHierarchy(
        tbox,
        use_told_subsumers=use_told_subsumers,
        algorithm=algorithm,
        reasoner=reasoner,
        budget=budget,
    )
