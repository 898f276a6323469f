"""Tableau-based satisfiability for ALCN(+qualified at-least) with GCIs.

A completion-graph tableau with:

* **absorption / lazy unfolding** — axioms ``A ⊑ C`` with atomic ``A`` are
  applied only to nodes whose label contains ``A`` (the paper's ontonomies
  are all of this definitorial shape; benchmark B1 ablates this choice);
* **GCI propagation** — non-absorbable axioms ``C ⊑ D`` add ``¬C ⊔ D`` to
  every node;
* **subset blocking** — a generated node is blocked when some ancestor's
  label includes its own, guaranteeing termination on cyclic TBoxes;
* **number restrictions** — ``≥n r.C`` generates ``n`` pairwise-distinct
  successors; ``≤n r.C`` first saturates with the **choose-rule** (every
  r-successor decides between ``C`` and ``¬C``), then merges surplus
  C-successors, branching over merge choices.  ``≤n r.C`` clashes as
  soon as any ``n + 1`` of its C-successors are pairwise distinct (a
  ``≥``-rule generated them apart, or they are named individuals), as in
  Baader & Sattler's calculus (Studia Logica 2001); with ``n = 0`` any
  single one does.

Branching (⊔ and merge choices) is explored by copying the completion
graph — simple, deterministic, and fast enough for ontonomy-sized inputs,
which is the regime this library targets.

The engine is **interned**: every concept and role is assigned a dense
int id on first contact (:mod:`repro.dl.intern`), node labels and the
one-shot ``applied`` markers hold ids, and a label is a single Python
``int`` bitmask.  Each rule walks only the bits of its own concept
kinds, which one id mask per kind picks out of a label, against a
per-id decomposition record (:class:`_Info`), conjunction expansion
and GCI propagation are single ``|`` operations against precomputed
masks, blocking is a subset check ``label & ancestor == label``, and
copying a branch copies flat int-valued dicts instead of sets of hashed
dataclasses.  Determinism is preserved: ids are assigned in a
deterministic order, and rules fire in ascending id order where the old
engine sorted concepts by string.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional

from ..obs import recorder as _obs
from ..robust import Budget, BudgetExhausted, Verdict
from .abox import ABox, ConceptAssertion, RoleAssertion
from .intern import BOTTOM_ID, TOP_ID, ConceptTable, InternTable
from .nnf import negate, to_nnf
from .syntax import (
    And,
    AtLeast,
    AtMost,
    Atomic,
    Concept,
    Exists,
    Forall,
    Not,
    Or,
    _Bottom,
    _Top,
)
from .tbox import TBox


class ReasonerError(Exception):
    """Raised on unsupported constructs or resource exhaustion."""


# decomposition kinds (see _Info)
_ATOM, _TOP, _BOT, _NOT, _AND, _OR, _EXISTS, _FORALL, _ATLEAST, _ATMOST = range(10)
_KIND_OF = {
    Atomic: _ATOM,
    _Top: _TOP,
    _Bottom: _BOT,
    Not: _NOT,
    And: _AND,
    Or: _OR,
    Exists: _EXISTS,
    Forall: _FORALL,
    AtLeast: _ATLEAST,
    AtMost: _ATMOST,
}

_BOTTOM_BIT = 1 << BOTTOM_ID


class _Info:
    """The interned decomposition of one concept id.

    ``kind`` selects the rule; the remaining fields are what that rule
    needs, already interned: ``mask`` is the operand bitmask of ⊓/⊔,
    ``ids`` the ⊔ branch order, ``a`` the single operand/filler id,
    ``role`` the role id, ``n`` the number bound, and ``neg`` caches the
    id of the negated filler (choose-rule), computed on first use.
    ``skey`` is the concept's rendered string, precomputed once so
    nondeterministic-rule selection can keep the engine's historical
    sorted-by-string order without re-stringifying per round (id order
    is *not* a drop-in replacement: it front-loads branching on global
    GCI disjuncts and blows up the search on ∃-rich inputs).
    """

    __slots__ = ("kind", "mask", "ids", "a", "role", "n", "neg", "skey")

    def __init__(self, kind: int) -> None:
        self.kind = kind
        self.mask = 0
        self.ids: tuple[int, ...] = ()
        self.a = -1
        self.role = -1
        self.n = 0
        self.neg = -1
        self.skey = ""

    def below(self, cut: int) -> "_Info":
        """A copy for a table cut at ``cut`` ids (``neg`` past it is unset)."""
        copy = _Info(self.kind)
        copy.mask, copy.ids, copy.a = self.mask, self.ids, self.a
        copy.role, copy.n, copy.skey = self.role, self.n, self.skey
        copy.neg = self.neg if self.neg < cut else -1
        return copy


class _State:
    """A completion graph: labels, role edges, distinctness, provenance.

    ``labels`` maps node → label bitmask over the owning tableau's
    concept table; ``edges`` is keyed by interned role ids; ``applied``
    holds ``(node, concept_id)`` one-shot markers.
    """

    __slots__ = ("owner", "labels", "edges", "parent", "named", "distinct", "counter", "applied")

    def __init__(self, owner: "Tableau") -> None:
        self.owner = owner
        self.labels: dict[int, int] = {}
        self.edges: dict[int, dict[int, set[int]]] = {}
        self.parent: dict[int, Optional[int]] = {}
        self.named: set[int] = set()
        self.distinct: set[frozenset[int]] = set()
        self.counter: int = 0
        # (node, concept id) pairs for one-shot generating rules
        self.applied: set[tuple[int, int]] = set()

    def new_node(self, parent: Optional[int], named: bool = False) -> int:
        _obs.incr("tableau.expansions")
        node = self.counter
        self.counter += 1
        self.labels[node] = 0
        self.edges[node] = {}
        self.parent[node] = parent
        if named:
            self.named.add(node)
        return node

    def add_edge(self, u: int, role: int, v: int) -> None:
        self.edges[u].setdefault(role, set()).add(v)

    def successors(self, node: int, role: int) -> set[int]:
        return self.edges[node].get(role, set())

    def apart(self, u: int, v: int) -> bool:
        """True iff ``u`` and ``v`` may not be merged: a ``≥``-rule
        generated them apart, or both are named individuals."""
        return frozenset((u, v)) in self.distinct or (
            u in self.named and v in self.named
        )

    def atomic_names(self, node: int = 0) -> frozenset[str]:
        """The names of the atomic concepts in ``node``'s label.

        Node 0 is the root: the individual a concept's graph was built
        for (:meth:`Tableau.find_model`).
        """
        table = self.owner.concepts
        names = []
        mask = self.labels[node] & self.owner._kinds[_ATOM]
        while mask:
            low = mask & -mask
            mask ^= low
            names.append(table[low.bit_length() - 1].name)
        return frozenset(names)

    def copy(self) -> "_State":
        _obs.incr("tableau.branch_copies")
        s = _State(self.owner)
        s.labels = dict(self.labels)  # int-valued: a flat copy suffices
        s.edges = {n: {r: set(vs) for r, vs in by_role.items()} for n, by_role in self.edges.items()}
        s.parent = dict(self.parent)
        s.named = set(self.named)
        s.distinct = set(self.distinct)
        s.counter = self.counter
        s.applied = set(self.applied)
        return s

    def ancestors(self, node: int) -> Iterable[int]:
        current = self.parent[node]
        while current is not None:
            yield current
            current = self.parent[current]

    def is_blocked(self, node: int) -> bool:
        """Subset blocking: some ancestor label includes this node's label."""
        if node in self.named:
            return False
        label = self.labels[node]
        return any(label & self.labels[a] == label for a in self.ancestors(node))

    def merge(self, source: int, target: int) -> None:
        """Merge ``source`` into ``target`` (labels, edges, incoming links)."""
        self.labels[target] |= self.labels[source]
        for role, vs in self.edges[source].items():
            for v in vs:
                self.add_edge(target, role, v)
                if self.parent.get(v) == source:
                    self.parent[v] = target
        for u, by_role in self.edges.items():
            for role, vs in by_role.items():
                if source in vs:
                    vs.discard(source)
                    vs.add(target)
        self.distinct = {
            frozenset(target if n == source else n for n in pair)
            for pair in self.distinct
        }
        self.distinct = {pair for pair in self.distinct if len(pair) == 2}
        self.applied = {
            (target if n == source else n, c) for (n, c) in self.applied
        }
        del self.labels[source]
        del self.edges[source]
        del self.parent[source]
        self.named.discard(source)


class Tableau:
    """Satisfiability engine for concepts/ABoxes w.r.t. a TBox."""

    def __init__(self, tbox: TBox | None = None, *, max_nodes: int = 2000) -> None:
        self.tbox = tbox if tbox is not None else TBox()
        self.max_nodes = max_nodes
        #: concept ↔ dense id (⊤ = 0, ⊥ = 1); shared with the reasoner's
        #: id-keyed caches for the life of this tableau
        self.concepts = ConceptTable()
        self.roles = InternTable()
        self._info: list[_Info] = []
        #: per decomposition kind, the mask of the ids of that kind, so
        #: each rule walks only its own bits of a label
        self._kinds = [0] * len(_KIND_OF)
        self._build_info(TOP_ID)
        self._build_info(BOTTOM_ID)
        # absorption split, interned: per-atomic-id unfolding masks and a
        # single global-GCI mask ORed into every label
        self._lazy_mask: dict[int, int] = {}
        self._global_mask = 0
        for gci in self.tbox.gcis():
            if isinstance(gci.lhs, Atomic):
                lhs_id = self.cid(gci.lhs)
                rhs_bit = 1 << self.cid(to_nnf(gci.rhs))
                self._lazy_mask[lhs_id] = self._lazy_mask.get(lhs_id, 0) | rhs_bit
            else:
                constraint = to_nnf(Or.of([negate(gci.lhs), to_nnf(gci.rhs)]))
                self._global_mask |= 1 << self.cid(constraint)
        #: the atoms that have an unfolding
        self._unfoldable = sum(1 << lhs_id for lhs_id in self._lazy_mask)

    def size(self) -> tuple[int, int]:
        """How many concepts and roles are interned."""
        return len(self.concepts), len(self.roles)

    def truncated(self, size: tuple[int, int]) -> "Tableau":
        """A copy that keeps only the first concepts and roles of ``size``.

        Every id the copy keeps names what it names here, and this
        tableau is left as it is, so a reader still holding it sees no
        id change its concept.  The absorption masks hold only ids
        interned at construction, which a cut at or past the size at
        construction keeps.  A kept ``≤``-restriction whose negated
        filler was interned past the cut interns it again on first use.
        """
        concepts, roles = size
        keep = (1 << concepts) - 1
        copy = object.__new__(Tableau)
        copy.tbox = self.tbox
        copy.max_nodes = self.max_nodes
        copy.concepts = self.concepts.prefix(concepts)
        copy.roles = self.roles.prefix(roles)
        copy._info = [info.below(concepts) for info in self._info[:concepts]]
        copy._kinds = [mask & keep for mask in self._kinds]
        copy._lazy_mask = self._lazy_mask
        copy._global_mask = self._global_mask
        copy._unfoldable = self._unfoldable
        return copy

    # ------------------------------------------------------------------ #
    # interning
    # ------------------------------------------------------------------ #

    def cid(self, concept: Concept) -> int:
        """The dense id of ``concept``, interning it (and its parts) on miss."""
        i = self.concepts.get(concept)
        if i is not None:
            return i
        i = self.concepts.intern(concept)
        self._build_info(i)
        return i

    def _build_info(self, i: int) -> None:
        concept = self.concepts[i]
        kind = _KIND_OF.get(type(concept))
        if kind is None:  # pragma: no cover - defensive
            raise ReasonerError(f"unknown concept node {concept!r}")
        info = _Info(kind)
        self._info.append(info)  # reserve the slot before interning operands
        self._kinds[kind] |= 1 << i
        if kind == _NOT:
            info.a = self.cid(concept.operand)
        elif kind == _AND:
            for op in concept.operands:
                info.mask |= 1 << self.cid(op)
        elif kind == _OR:
            info.skey = str(concept)
            info.ids = tuple(self.cid(op) for op in concept.operands)
            for op_id in info.ids:
                info.mask |= 1 << op_id
        elif kind in (_EXISTS, _FORALL, _ATLEAST, _ATMOST):
            info.skey = str(concept)
            info.role = self.roles.intern(concept.role.name)
            info.a = self.cid(concept.filler)
            info.n = getattr(concept, "n", 0)

    def _neg_filler(self, info: _Info) -> int:
        """The id of the negated filler of a ≤-restriction (choose-rule)."""
        if info.neg < 0:
            info.neg = self.cid(negate(self.concepts[info.a]))
        return info.neg

    def _new_state(self) -> _State:
        return _State(self)

    # ------------------------------------------------------------------ #
    # public entry points
    # ------------------------------------------------------------------ #

    def is_satisfiable(self, concept: Concept) -> bool:
        """True iff ``concept`` is satisfiable w.r.t. the TBox."""
        return self.find_model(concept) is not None

    def find_model(
        self, concept: Concept, budget: Optional[Budget] = None
    ) -> Optional[_State]:
        """A complete clash-free completion graph for ``concept``, or None.

        Use :func:`extract_interpretation` to turn the graph into a
        checkable :class:`repro.dl.interpretation.Interpretation`, or
        :meth:`_State.atomic_names` to read the names at its root.
        Under a ``budget`` the run is governed: running out raises
        :class:`~repro.robust.BudgetExhausted`.
        """
        _obs.incr("tableau.solve_calls")
        return self._traced_solve(self._concept_state(concept), budget)

    def _concept_state(self, concept: Concept) -> _State:
        state = self._new_state()
        root = state.new_node(None, named=True)
        state.labels[root] |= 1 << self.cid(to_nnf(concept))
        return state

    def is_consistent(self, abox: ABox) -> bool:
        """True iff ``abox`` is consistent w.r.t. the TBox."""
        _obs.incr("tableau.solve_calls")
        return self._solve(self._abox_state(abox)) is not None

    def _abox_state(self, abox: ABox) -> _State:
        state = self._new_state()
        node_of: dict[str, int] = {}
        for name in sorted(abox.individuals()):
            node_of[name] = state.new_node(None, named=True)
        # unique-name assumption: named individuals are pairwise distinct
        for a, b in itertools.combinations(sorted(node_of.values()), 2):
            state.distinct.add(frozenset({a, b}))
        for assertion in abox:
            if isinstance(assertion, ConceptAssertion):
                state.labels[node_of[assertion.individual]] |= 1 << self.cid(
                    to_nnf(assertion.concept)
                )
            elif isinstance(assertion, RoleAssertion):
                state.add_edge(
                    node_of[assertion.subject],
                    self.roles.intern(assertion.role.name),
                    node_of[assertion.object],
                )
        return state

    # ------------------------------------------------------------------ #
    # governed entry points: verdicts instead of exhaustion errors
    # ------------------------------------------------------------------ #

    def solve_governed(self, concept: Concept, budget: Budget) -> Verdict:
        """Satisfiability of ``concept`` under ``budget``.

        PROVED = satisfiable, DISPROVED = unsatisfiable, UNKNOWN = the
        budget (or the engine's own ``max_nodes``) ran out first.  Never
        raises on exhaustion — that is the whole point.
        """
        _obs.incr("tableau.solve_calls")
        return self._verdict_of(self._concept_state(concept), budget)

    def consistent_governed(self, abox: ABox, budget: Budget) -> Verdict:
        """ABox consistency under ``budget`` (PROVED = consistent)."""
        _obs.incr("tableau.solve_calls")
        return self._verdict_of(self._abox_state(abox), budget)

    def _verdict_of(self, state: _State, budget: Budget) -> Verdict:
        try:
            solved = self._traced_solve(state, budget)
        except BudgetExhausted as exc:
            return Verdict.unknown(exc.reason)
        return Verdict.from_bool(solved is not None)

    def _traced_solve(
        self, state: _State, budget: Optional[Budget]
    ) -> Optional[_State]:
        try:
            with _obs.trace("tableau.solve"):
                return self._solve(state, budget)
        except BudgetExhausted:
            _obs.incr("robust.exhaustions")
            raise

    # ------------------------------------------------------------------ #
    # the algorithm
    # ------------------------------------------------------------------ #

    def _solve(self, state: _State, budget: Optional[Budget] = None) -> Optional[_State]:
        while True:
            if budget is not None:
                budget.check_deadline()
                budget.note_nodes(state.counter)
                if state.counter > self.max_nodes:
                    raise BudgetExhausted(
                        f"nodes: {state.counter} > engine max_nodes={self.max_nodes}"
                    )
            elif state.counter > self.max_nodes:
                raise ReasonerError(
                    f"completion graph exceeded {self.max_nodes} nodes; "
                    "possible non-terminating input for subset blocking"
                )
            changed = self._deterministic_round(state)
            if self._has_clash(state):
                _obs.incr("tableau.clashes")
                return None
            if changed:
                continue

            branch = self._find_disjunction(state)
            if branch is not None:
                node, or_id = branch
                _obs.incr("tableau.disjunction_branches")
                for disjunct in self._info[or_id].ids:
                    if budget is not None:
                        budget.charge_branch()
                    attempt = state.copy()
                    attempt.applied.add((node, or_id))
                    attempt.labels[node] |= 1 << disjunct
                    solved = self._solve(attempt, budget)
                    if solved is not None:
                        return solved
                return None

            choose = self._find_choose(state)
            if choose is not None:
                succ, filler_id, neg_id = choose
                _obs.incr("tableau.choose_applications")
                for variant in (filler_id, neg_id):
                    if budget is not None:
                        budget.charge_branch()
                    attempt = state.copy()
                    attempt.labels[succ] |= 1 << variant
                    solved = self._solve(attempt, budget)
                    if solved is not None:
                        return solved
                return None

            merge = self._find_atmost_violation(state)
            if merge is not None:
                node, atmost_id = merge
                succ = sorted(self._atmost_candidates(state, node, atmost_id))
                mergeable = [
                    (u, v)
                    for u, v in itertools.combinations(succ, 2)
                    if not state.apart(u, v)
                ]
                # with no mergeable pair the candidates are pairwise
                # apart, a ≤-clash that _has_clash has already found
                assert mergeable, "≤-restriction past its bound with no clash"
                for u, v in mergeable:
                    _obs.incr("tableau.merges")
                    if budget is not None:
                        budget.charge_branch()
                    attempt = state.copy()
                    # merge the generated node into the other
                    if u in attempt.named:
                        attempt.merge(v, u)
                    else:
                        attempt.merge(u, v)
                    solved = self._solve(attempt, budget)
                    if solved is not None:
                        return solved
                return None

            generated = self._generating_round(state)
            if self._has_clash(state):
                _obs.incr("tableau.clashes")
                return None
            if not generated:
                return state  # complete and clash-free

    # -- deterministic rules ------------------------------------------- #

    def _deterministic_round(self, state: _State) -> bool:
        changed = False
        info = self._info
        lazy = self._lazy_mask
        unfoldable, conjunctions = self._unfoldable, self._kinds[_AND]
        universals = self._kinds[_FORALL]
        labels = state.labels
        for node in list(labels):
            label = labels[node]
            # global GCIs: one mask OR covers every propagated constraint
            adds = self._global_mask
            mask = label & unfoldable  # lazy unfolding of absorbed axioms
            while mask:
                low = mask & -mask
                mask ^= low
                adds |= lazy[low.bit_length() - 1]
            mask = label & conjunctions
            while mask:
                low = mask & -mask
                mask ^= low
                adds |= info[low.bit_length() - 1].mask
            mask = label & universals
            while mask:
                low = mask & -mask
                mask ^= low
                i = info[low.bit_length() - 1]
                filler_bit = 1 << i.a
                for succ in state.successors(node, i.role):
                    if not labels[succ] & filler_bit:
                        labels[succ] |= filler_bit
                        changed = True
            additions = adds & ~label
            if additions:
                labels[node] = label | additions
                changed = True
        return changed

    # -- clash detection ------------------------------------------------ #

    def _has_clash(self, state: _State) -> bool:
        info = self._info
        negations, atmosts = self._kinds[_NOT], self._kinds[_ATMOST]
        for node, label in state.labels.items():
            if label & _BOTTOM_BIT:
                return True
            mask = label & negations
            while mask:
                low = mask & -mask
                mask ^= low
                if label >> info[low.bit_length() - 1].a & 1:
                    return True
            mask = label & atmosts
            while mask:
                low = mask & -mask
                mask ^= low
                if self._atmost_clash(state, node, low.bit_length() - 1):
                    return True
        return False

    def _atmost_clash(self, state: _State, node: int, atmost_id: int) -> bool:
        """True iff more than ``n`` candidates of ``≤n r.C`` are pairwise distinct."""
        bound = self._info[atmost_id].n
        candidates = self._atmost_candidates(state, node, atmost_id)
        return len(candidates) > bound and _distinct_clique(
            state, candidates, bound + 1
        )

    def _atmost_candidates(self, state: _State, node: int, atmost_id: int) -> set[int]:
        """The r-successors that count against ``≤n r.C``.

        With ``C = ⊤`` every r-successor counts; otherwise only those
        whose label contains ``C``.  The choose-rule guarantees that by
        saturation every successor carries ``C`` or ``¬C``, so this count
        is exact on complete graphs.
        """
        info = self._info[atmost_id]
        succ = state.successors(node, info.role)
        if info.a == TOP_ID:
            return set(succ)
        filler_bit = 1 << info.a
        return {s for s in succ if state.labels[s] & filler_bit}

    # -- nondeterministic rule selection -------------------------------- #

    def _find_disjunction(self, state: _State) -> Optional[tuple[int, int]]:
        # candidates are ordered by rendered string, not interned id: id
        # order front-loads branching on global-GCI disjuncts and blows
        # the search up exponentially on ∃-rich inputs (see _Info.skey)
        info = self._info
        disjunctions = self._kinds[_OR]
        for node in sorted(state.labels):
            label = state.labels[node]
            best = -1
            best_key = ""
            mask = label & disjunctions
            while mask:
                low = mask & -mask
                mask ^= low
                cid = low.bit_length() - 1
                i = info[cid]
                if (node, cid) not in state.applied:
                    if not label & i.mask:
                        if best < 0 or i.skey < best_key:
                            best = cid
                            best_key = i.skey
            if best >= 0:
                return (node, best)
        return None

    def _find_choose(self, state: _State) -> Optional[tuple[int, int, int]]:
        """The choose-rule: under ``≤n r.C`` every r-successor must decide
        between ``C`` and ``¬C`` before counting is meaningful."""
        info = self._info
        atmosts_mask = self._kinds[_ATMOST]
        for node in sorted(state.labels):
            mask = state.labels[node] & atmosts_mask
            atmosts = []
            while mask:
                low = mask & -mask
                mask ^= low
                i = info[low.bit_length() - 1]
                if i.a != TOP_ID:
                    atmosts.append(i)
            atmosts.sort(key=lambda i: i.skey)
            for i in atmosts:
                neg_id = self._neg_filler(i)
                undecided = ~((1 << i.a) | (1 << neg_id))
                for succ in sorted(state.successors(node, i.role)):
                    if state.labels[succ] | undecided == undecided:
                        return (succ, i.a, neg_id)
        return None

    def _find_atmost_violation(self, state: _State) -> Optional[tuple[int, int]]:
        """The first ``≤n r.C`` with more than ``n`` candidates.

        Called after :meth:`_has_clash` found no ``≤``-clash, so no
        ``n + 1`` of those candidates are pairwise distinct as far as
        the clique search sees, and some pair of them is mergeable.
        """
        info = self._info
        atmosts_mask = self._kinds[_ATMOST]
        for node in sorted(state.labels):
            mask = state.labels[node] & atmosts_mask
            atmosts = []
            while mask:
                low = mask & -mask
                mask ^= low
                cid = low.bit_length() - 1
                i = info[cid]
                atmosts.append((i.skey, cid, i))
            atmosts.sort()
            for _, cid, i in atmosts:
                if len(self._atmost_candidates(state, node, cid)) > i.n:
                    return (node, cid)
        return None

    # -- generating rules ------------------------------------------------ #

    def _generating_round(self, state: _State) -> bool:
        generated = False
        info = self._info
        generating = self._kinds[_EXISTS] | self._kinds[_ATLEAST]
        for node in sorted(state.labels):
            if node not in state.labels:
                continue
            if state.is_blocked(node):
                _obs.incr("tableau.blocking_hits")
                continue
            mask = state.labels[node] & generating
            while mask:
                low = mask & -mask
                mask ^= low
                cid = low.bit_length() - 1
                i = info[cid]
                if i.kind == _EXISTS:
                    if (node, cid) in state.applied:
                        continue
                    filler_bit = 1 << i.a
                    if any(
                        state.labels[s] & filler_bit
                        for s in state.successors(node, i.role)
                    ):
                        state.applied.add((node, cid))
                        continue
                    child = state.new_node(node)
                    state.labels[child] = filler_bit
                    state.add_edge(node, i.role, child)
                    state.applied.add((node, cid))
                    generated = True
                elif i.kind == _ATLEAST and i.n >= 1:
                    if (node, cid) in state.applied:
                        continue
                    filler_bit = 1 << i.a
                    children = []
                    for _ in range(i.n):
                        child = state.new_node(node)
                        state.labels[child] = filler_bit
                        state.add_edge(node, i.role, child)
                        children.append(child)
                    for u, v in itertools.combinations(children, 2):
                        state.distinct.add(frozenset({u, v}))
                    state.applied.add((node, cid))
                    generated = True
        return generated


def _distinct_clique(state: _State, nodes: set[int], size: int) -> bool:
    """True iff ``size`` of ``nodes`` are pairwise :meth:`~_State.apart`,
    by a greedy search.

    From each node in turn the search keeps, in id order, every node
    apart from all it has kept, which finds each ``≥``-group and the
    named individuals.  A clique it misses still ends in a clash: the
    merge rule merges only pairs that are not apart, so the clique
    survives every merge, and once no pair is left to merge the whole
    candidate set is one clique.
    """
    if len(nodes) < size:
        return False
    if size <= 1:
        return True
    order = sorted(nodes)
    apart: dict[int, set[int]] = {u: set() for u in order}
    for u, v in itertools.combinations(order, 2):
        if state.apart(u, v):
            apart[u].add(v)
            apart[v].add(u)
    for start in order:
        common = apart[start]
        found = 1
        for v in order:
            if len(common) < size - found:
                break
            if v in common:
                found += 1
                if found == size:
                    return True
                common = common & apart[v]
    return False


def extract_interpretation(state: _State) -> "Interpretation":
    """Read a finite interpretation off a complete clash-free graph.

    Blocked nodes stay in the domain and are *unraveled lazily*: each one
    borrows the outgoing edges of its blocker (the ancestor whose label
    includes its own).  Since a blocked node's constraints are a subset
    of its blocker's, and the blocker satisfies them with exactly those
    successors, the borrowed edges satisfy the blocked node's ∃/∀/≥/≤
    constraints too — without ever merging nodes that a ≥-rule made
    distinct.  The result is independently checkable with
    :meth:`repro.dl.interpretation.Interpretation.satisfies`.
    """
    from .interpretation import Interpretation

    role_table = state.owner.roles

    def resolve(node: int) -> int:
        """Follow blockers until a non-blocked node is reached."""
        seen = set()
        current = node
        while state.is_blocked(current) and current not in seen:
            seen.add(current)
            label = state.labels[current]
            for ancestor in state.ancestors(current):
                if label & state.labels[ancestor] == label:
                    current = ancestor
                    break
            else:  # pragma: no cover - blocked implies a superset ancestor
                break
        return current

    domain = list(state.labels)
    concepts: dict[str, set[int]] = {}
    for node in domain:
        for name in state.atomic_names(node):
            concepts.setdefault(name, set()).add(node)
    roles: dict[str, set[tuple[int, int]]] = {}
    for node in domain:
        source = resolve(node) if state.is_blocked(node) else node
        for role_id, targets in state.edges[source].items():
            role = role_table[role_id]
            for target in targets:
                roles.setdefault(role, set()).add((node, target))
    return Interpretation(domain, concepts, roles)
