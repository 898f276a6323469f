"""Consequence-based saturation for the Horn/EL fragment.

Most real ontonomies — and every corpus in this repo — are dominated by
axioms of four shapes: ``A ⊑ B``, ``A ⊓ B ⊑ C``, ``A ⊑ ∃r.B``, and
``∃r.A ⊑ B``.  For that fragment subsumption is decidable *without
search*: normalize the TBox into rule tables over interned atom ids,
then run a worklist to a fixpoint, deriving

* ``S(A)`` — the bitmask of told-and-derived subsumers of each atom, and
* ``R(r)`` — the derived role edges ``(A, B)`` meaning ``A ⊑ ∃r.B``,

with the classic completion rules (Baader/Brandt/Lutz style)::

    CR1   A' ⊆ S(A), (⋀A' ⊑ B) ∈ T            →  B ∈ S(A)
    CR2   A' ⊆ S(A), (⋀A' ⊑ ∃r.B) ∈ T         →  (A,B) ∈ R(r)
    CR3   (A,B) ∈ R(r), B' ∈ S(B), (∃r.B' ⊑ C) ∈ T  →  C ∈ S(A)
    CR4   (A,B) ∈ R(r), ⊥ ∈ S(B)              →  ⊥ ∈ S(A)

``A ⊑ B`` then holds iff ``B ∈ S(A)`` or ``⊥ ∈ S(A)`` — one bit test.

Axioms outside the fragment (∀, ≤, ¬, ⊔ on the right, ≥n with n ≥ 2 on
the left) form the **residue**.  When the residue is empty the computed
``S`` is sound *and complete*, so classification needs zero tableau
tests; otherwise ``S`` stays sound (every derived subsumption is real)
and classification takes it as each name's known subsumers, bounding
the rest by one tableau model per name (:mod:`repro.dl.hierarchy`),
with or without a budget.  ``≥n r.C`` on the right
is weakened to ``∃r.C`` — sound always, and complete whenever the
residue is empty, because a canonical EL model can duplicate successors
freely with no ∀/≤ constraint to forbid it.

Complex fillers get fresh internal names (``⟨C⟩``) linked by axioms in
both directions, so nesting costs one atom per distinct subterm.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ..obs import recorder as _obs
from .intern import BOTTOM_ID, TOP_ID, BitSet, InternTable
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

#: Interned names of ⊤ and ⊥ in every saturation's atom table (they
#: double as the hierarchy's virtual top/bottom node names).
TOP_NAME = "⊤"
BOTTOM_NAME = "⊥"

_TOP_BIT = 1 << TOP_ID
_BOTTOM_BIT = 1 << BOTTOM_ID


class Saturation:
    """Saturated Horn/EL consequences of a TBox, queryable in O(1).

    Build once per TBox revision (the reasoner caches one per epoch);
    the fixpoint runs lazily on first query.  ``complete`` tells the
    caller whether negative answers are trustworthy.
    """

    def __init__(self, tbox: TBox) -> None:
        self.tbox = tbox
        # atoms: ⊤=0, ⊥=1, then every named concept in sorted order so id
        # assignment is deterministic regardless of axiom order
        self.atoms = InternTable()
        assert self.atoms.intern(TOP_NAME) == TOP_ID
        assert self.atoms.intern(BOTTOM_NAME) == BOTTOM_ID
        self._named_mask = _TOP_BIT | _BOTTOM_BIT
        for name in sorted(tbox.atomic_names()):
            self._named_mask |= 1 << self.atoms.intern(name)
        self.roles = InternTable()
        #: axioms the EL normalizer could not (fully) translate
        self.residue: list = []
        # rule tables, all over interned ids:
        #   atom rules    trigger_atom -> [(premise_mask, rhs_atom)]
        #   exists rules  trigger_atom -> [(premise_mask, role, filler_atom)]
        #   lhs-exists    filler -> [(role, rhs)]  and  role -> [(filler, rhs)]
        self._atom_rules: dict[int, list[tuple[int, int]]] = {}
        self._exists_rules: dict[int, list[tuple[int, int, int]]] = {}
        self._lhs_by_filler: dict[int, list[tuple[int, int]]] = {}
        self._lhs_by_role: dict[int, list[tuple[int, int]]] = {}
        self._fresh: dict[object, int] = {}
        for gci in tbox.gcis():
            self._normalize(gci.lhs, gci.rhs)
        # saturation state, computed lazily
        self._S: Optional[list[int]] = None
        self._succ: dict[int, dict[int, int]] = {}
        self._pred: dict[int, dict[int, int]] = {}

    # ------------------------------------------------------------------ #
    # normalization
    # ------------------------------------------------------------------ #

    @property
    def complete(self) -> bool:
        """True iff every axiom normalized — negative answers are exact."""
        return not self.residue

    def _atom_for(self, concept: Concept) -> int:
        """The atom id standing for ``concept`` (fresh name if complex).

        Fresh names are defined in both directions (``X ⊑ C`` via rules
        with X as premise, ``C ⊑ X`` via rules concluding X), so they are
        transparent: anything derived about the subterm flows through.
        """
        if isinstance(concept, Atomic):
            return self.atoms.intern(concept.name)
        if isinstance(concept, _Top):
            return TOP_ID
        if isinstance(concept, _Bottom):
            return BOTTOM_ID
        found = self._fresh.get(concept)
        if found is not None:
            return found
        fresh = self.atoms.intern(f"⟨{len(self._fresh)}⟩")
        self._fresh[concept] = fresh
        # X ⊑ C and C ⊑ X; recursion happens before rules reference `fresh`
        ok = self._norm_rhs(1 << fresh, concept)
        premises = self._lhs_premises(concept)
        if premises is None:
            ok = False
        else:
            for premise in premises:
                self._add_atom_rule(premise, fresh)
        if not ok:  # pragma: no cover - callers atomize EL-safe fillers only
            raise ValueError(f"cannot atomize non-EL subterm {concept!r}")
        return fresh

    def _add_atom_rule(self, premise_mask: int, rhs: int) -> None:
        rule = (premise_mask, rhs)
        for trigger in BitSet.bits(premise_mask):
            self._atom_rules.setdefault(trigger, []).append(rule)

    def _add_exists_rule(self, premise_mask: int, role: int, filler: int) -> None:
        rule = (premise_mask, role, filler)
        for trigger in BitSet.bits(premise_mask):
            self._exists_rules.setdefault(trigger, []).append(rule)

    def _lhs_premises(self, c: Concept) -> Optional[list[int]]:
        """Alternative premise masks for ``c`` on the left of ⊑.

        Returns a list of bitmasks — the axiom fires under *any* of them
        (⊔ on the left is Horn: split into one rule per disjunct).  An
        empty list means the LHS is unsatisfiable (axiom trivially
        valid); ``None`` means the shape is outside the fragment.
        """
        if isinstance(c, Atomic):
            return [1 << self.atoms.intern(c.name)]
        if isinstance(c, _Top):
            return [_TOP_BIT]
        if isinstance(c, _Bottom):
            return []
        if isinstance(c, Or):
            out: list[int] = []
            for op in c.operands:
                alts = self._lhs_premises(op)
                if alts is None:
                    return None
                out.extend(alts)
            return out
        if isinstance(c, And):
            # distribute: premises of a conjunction are the cross-products
            combos = [0]
            for op in c.operands:
                alts = self._lhs_premises(op)
                if alts is None:
                    return None
                combos = [base | alt for base in combos for alt in alts]
                if not combos:
                    return []
            return combos
        if isinstance(c, Exists) or (isinstance(c, AtLeast) and c.n == 1):
            # ∃r.C ⊑ … normalizes to C ⊑ Y, ∃r.Y ⊑ X (standard EL
            # structural transformation); only the C ⊑ Y direction is
            # needed for completeness of CR3
            found = self._fresh.get(c)
            if found is not None:
                return [1 << found]
            filler_alts = self._lhs_premises(c.filler)
            if filler_alts is None:
                return None
            role = self.roles.intern(c.role.name)
            fresh = self.atoms.intern(f"⟨∃{len(self._fresh)}:{c.role.name}⟩")
            self._fresh[c] = fresh
            for alt in filler_alts:
                if alt.bit_count() == 1:
                    filler_atom = alt.bit_length() - 1
                else:
                    conj_key = ("⊓", alt)
                    filler_atom = self._fresh.get(conj_key, -1)
                    if filler_atom < 0:
                        filler_atom = self.atoms.intern(f"⟨⊓{len(self._fresh)}⟩")
                        self._fresh[conj_key] = filler_atom
                        self._add_atom_rule(alt, filler_atom)
                self._lhs_by_filler.setdefault(filler_atom, []).append((role, fresh))
                self._lhs_by_role.setdefault(role, []).append((filler_atom, fresh))
            return [1 << fresh]
        # ≥n (n≥2), ∀, ≤, ¬ on the left are outside the Horn fragment
        return None

    def _norm_rhs(self, premise_mask: int, rhs: Concept) -> bool:
        """Register rules for ``premise ⊑ rhs``; False if outside EL."""
        if isinstance(rhs, Atomic):
            self._add_atom_rule(premise_mask, self.atoms.intern(rhs.name))
            return True
        if isinstance(rhs, _Bottom):
            self._add_atom_rule(premise_mask, BOTTOM_ID)
            return True
        if isinstance(rhs, _Top):
            return True  # vacuous
        if isinstance(rhs, And):
            ok = True
            for op in rhs.operands:
                ok &= self._norm_rhs(premise_mask, op)
            return ok
        if isinstance(rhs, Exists):
            if not _is_el(rhs.filler):
                return False
            role = self.roles.intern(rhs.role.name)
            self._add_exists_rule(premise_mask, role, self._atom_for(rhs.filler))
            return True
        if isinstance(rhs, AtLeast):
            if rhs.n == 0:
                return True  # ≥0 is ⊤
            if not _is_el(rhs.filler):
                return False
            # ≥n r.C ⊒ ∃r.C: sound weakening; complete when residue empty
            # (an EL canonical model duplicates successors at will)
            role = self.roles.intern(rhs.role.name)
            self._add_exists_rule(premise_mask, role, self._atom_for(rhs.filler))
            return rhs.n == 1 or self._note_weakened()
        # ∀, ≤, ¬, ⊔ on the right: not Horn
        return False

    def _note_weakened(self) -> bool:
        """≥n (n≥2) on the right was weakened to ∃ — record but don't residue.

        The weakening only loses completeness if some axiom could cap or
        constrain successors, and any such axiom lands in the residue on
        its own; so the ∃-approximation alone never flips ``complete``.
        """
        return True

    def _normalize(self, lhs: Concept, rhs: Concept) -> None:
        premises = self._lhs_premises(lhs)
        if premises is None:
            self.residue.append((lhs, rhs))
            return
        ok = True
        for premise in premises:
            # partial emission is sound: every rule we *do* register is a
            # genuine consequence; the residue routing restores completeness
            ok &= self._norm_rhs(premise, rhs)
        if not ok:
            self.residue.append((lhs, rhs))

    # ------------------------------------------------------------------ #
    # the fixpoint
    # ------------------------------------------------------------------ #

    def _saturate(self) -> list[int]:
        if self._S is not None:
            return self._S
        with _obs.trace("saturation.saturate"):
            n = len(self.atoms)
            S = [0] * n
            work: deque = deque()
            for a in range(n):
                S[a] = (1 << a) | _TOP_BIT
                work.append((a, a))
                if a != TOP_ID:
                    work.append((a, TOP_ID))
            succ = self._succ
            pred = self._pred
            fired = 0

            def add(a: int, b: int) -> None:
                if not S[a] >> b & 1:
                    S[a] |= 1 << b
                    work.append((a, b))

            def add_edge(a: int, r: int, b: int) -> None:
                by_role = succ.setdefault(r, {})
                if by_role.get(a, 0) >> b & 1:
                    return
                by_role[a] = by_role.get(a, 0) | 1 << b
                by_pred = pred.setdefault(r, {})
                by_pred[b] = by_pred.get(b, 0) | 1 << a
                work.append((a, r, b))

            while work:
                item = work.popleft()
                if len(item) == 2:
                    a, x = item
                    sa = S[a]
                    # CR1: conjunction rules triggered by x
                    for premise, rhs in self._atom_rules.get(x, ()):
                        if premise & ~sa:
                            continue
                        fired += 1
                        add(a, rhs)
                    # CR2: existential introductions triggered by x
                    for premise, role, filler in self._exists_rules.get(x, ()):
                        if premise & ~sa:
                            continue
                        fired += 1
                        add_edge(a, role, filler)
                    # CR3 (new subsumer side): x ∈ S(a) and ∃r.x ⊑ c with
                    # some predecessor p of a via r
                    for role, rhs in self._lhs_by_filler.get(x, ()):
                        mask = self._pred.get(role, {}).get(a, 0)
                        for p in BitSet.bits(mask):
                            fired += 1
                            add(p, rhs)
                    # CR4 (⊥ side): a became unsatisfiable — poison preds
                    if x == BOTTOM_ID:
                        for role_preds in list(pred.values()):
                            mask = role_preds.get(a, 0)
                            for p in BitSet.bits(mask):
                                fired += 1
                                add(p, BOTTOM_ID)
                else:
                    a, r, b = item
                    # CR3 (new edge side)
                    sb = S[b]
                    for filler, rhs in self._lhs_by_role.get(r, ()):
                        if sb >> filler & 1:
                            fired += 1
                            add(a, rhs)
                    # CR4 (new edge side)
                    if sb & _BOTTOM_BIT:
                        fired += 1
                        add(a, BOTTOM_ID)
            _obs.incr("saturation.rules_fired", fired)
            self._S = S
        return self._S

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def subsumers_of(self, name: str) -> int:
        """The subsumer bitmask S(name) over this table's atom ids."""
        S = self._saturate()
        i = self.atoms.get(name)
        if i is None:
            # name absent from the TBox: it behaves like a fresh atom, so
            # its subsumers are exactly ⊤'s (global axioms like ⊤ ⊑ A
            # still apply to it)
            return S[TOP_ID]
        return S[i]

    def named_mask(self) -> int:
        """Bits of ⊤, ⊥ and every TBox-named atom (no fresh names)."""
        return self._named_mask

    def subsumes_names(self, specific: str, general: str) -> Optional[bool]:
        """Does ``specific ⊑ general`` hold?  ``None`` = can't tell.

        True is always trustworthy.  False is only returned when the
        residue is empty; with residue present an underived subsumption
        might still follow from the non-Horn axioms, so we answer None.
        """
        if specific == general:
            return True
        S = self._saturate()
        i = self.atoms.get(specific)
        j = self.atoms.get(general)
        # an unknown specific behaves like a fresh atom: its subsumers
        # are ⊤'s consequences (⊤ ⊑ A reaches it too)
        si = S[i] if i is not None else S[TOP_ID]
        if si & _BOTTOM_BIT:
            return True  # unsatisfiable LHS is below everything
        if j is not None and si >> j & 1:
            return True
        return False if self.complete else None

    def satisfiable(self, name: str) -> Optional[bool]:
        """Satisfiability of an atom; None when the residue blocks a 'yes'."""
        S = self._saturate()
        i = self.atoms.get(name)
        if i is None:
            i = TOP_ID  # unknown atoms inherit exactly ⊤'s consequences
        if S[i] & _BOTTOM_BIT:
            return False  # sound: derived ⊥ is real
        return True if self.complete else None


def _is_el(c: Concept) -> bool:
    """True iff ``c`` is a positive EL concept (⊤/⊥/atoms/⊓/∃/≥1)."""
    if isinstance(c, (Atomic, _Top, _Bottom)):
        return True
    if isinstance(c, And):
        return all(_is_el(op) for op in c.operands)
    if isinstance(c, Exists):
        return _is_el(c.filler)
    if isinstance(c, AtLeast):
        return c.n <= 1 and _is_el(c.filler)
    if isinstance(c, (Or, Not, Forall, AtMost)):
        return False
    return False
