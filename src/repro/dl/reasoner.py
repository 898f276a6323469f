"""High-level reasoning services on top of the tableau.

Subsumption, satisfiability, equivalence, disjointness, ABox consistency,
instance checking and retrieval — the standard DL service suite, reduced
to tableau satisfiability in the usual way (``C ⊑ D`` iff ``C ⊓ ¬D`` is
unsatisfiable w.r.t. the TBox).

A reasoner builds its tableau on the first question that needs one, so
a Horn/EL TBox whose saturation classifies it completely never builds
one.  What queries teach it is bounded: the concept table's size when
:meth:`Reasoner.classify` first returns is a pinned watermark, and a
query that leaves the table more than :data:`LEARNED_CAP` concepts past
it forgets every concept above the watermark and every cached sat or
subsumption answer that uses one, and empties the process-wide NNF memo
(:mod:`repro.dl.nnf`), which holds the same concepts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from ..obs import recorder as _obs
from ..robust import Budget, BudgetExhausted, Verdict
from .abox import ABox, ConceptAssertion
from .nnf import negate, nnf_cache_clear
from .syntax import And, Atomic, Concept, TOP
from .tableau import ReasonerError, Tableau
from .tbox import TBox

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .hierarchy import ConceptHierarchy
    from .saturation import Saturation

#: concepts that queries may intern past a classified reasoner's
#: watermark before it forgets them; :meth:`Reasoner.adopt_caches`
#: carries at most the newest ``LEARNED_CAP // 8`` answers of each cache
#: that use one
LEARNED_CAP = 1024

#: cached answers in transit: the concepts of a sat (one) or subsumption
#: (general, specific) question, and the answer
_Entry = tuple[tuple[Concept, ...], bool]


class _Learned:
    """A tableau and the sat/subsumption answers keyed by its concept ids.

    Replaced whole when traffic is forgotten, never cut in place: a
    thread that read one reference — :meth:`Reasoner.adopt_caches`
    reading a predecessor that still serves — sees ids and concepts that
    agree however often the owner forgets.  ``pinned`` is the tableau's
    :meth:`~Tableau.size` when the reasoner was classified (``None``
    before); ids below it are kept.
    """

    __slots__ = ("tableau", "sat", "subs", "pinned")

    def __init__(
        self,
        tableau: Tableau,
        sat: dict[int, bool],
        subs: dict[tuple[int, int], bool],
        pinned: Optional[tuple[int, int]],
    ) -> None:
        self.tableau = tableau
        self.sat = sat
        self.subs = subs
        self.pinned = pinned


class Reasoner:
    """Reasoning services for a knowledge base ``(TBox, ABox)``.

    >>> from repro.dl.syntax import Atomic
    >>> from repro.dl.tbox import TBox, Subsumption
    >>> car, mv = Atomic("car"), Atomic("motorvehicle")
    >>> r = Reasoner(TBox([Subsumption(car, mv)]))
    >>> r.subsumes(mv, car)
    True
    """

    def __init__(self, tbox: TBox | None = None, *, max_nodes: int = 2000) -> None:
        # `tbox or TBox()` would discard a caller's *empty* TBox (falsy),
        # breaking the revision guard for TBoxes populated after the fact
        self.tbox = tbox if tbox is not None else TBox()
        self._max_nodes = max_nodes
        # caches are keyed by the tableau's interned concept ids: int keys
        # hash/compare in nanoseconds where frozen dataclass trees don't,
        # and the id space resets with the tableau.  None until the
        # first tableau question.
        self._learned: Optional[_Learned] = None
        self._hierarchy_cache: dict[str, "ConceptHierarchy"] = {}
        self._saturation: Optional["Saturation"] = None
        #: set when classify() first returns; pins the watermark
        self._classified = False
        #: traffic answers adopted before classify(), interned after it
        self._carried: list[_Entry] = []
        self._resets = 0
        self._tbox_revision = self.tbox.revision

    # ------------------------------------------------------------------ #
    # cache lifecycle
    # ------------------------------------------------------------------ #

    def invalidate(self) -> None:
        """Drop all cached answers and the tableau.

        Required after mutating the TBox in place; :meth:`_check_revision`
        calls it automatically when :attr:`TBox.revision` has moved, so
        mutations through :meth:`TBox.add` are picked up without manual
        intervention.  Mutations the revision counter cannot see (e.g.
        editing an axiom object in place) still need an explicit call.
        The next tableau question builds the tableau afresh.
        """
        _obs.incr("reasoner.invalidations")
        self._forget_all()
        self._tbox_revision = self.tbox.revision

    def _check_revision(self) -> None:
        if self.tbox.revision != self._tbox_revision:
            self.invalidate()

    def release(self) -> None:
        """Drop every cache and the tableau with its concept table.

        A serving snapshot being retired (see :mod:`repro.serve.snapshot`)
        calls this once its last in-flight request finishes, so the
        sat / subsumption / hierarchy caches and the interned concepts
        of a superseded TBox version do not stay memory-resident for
        the life of the process.  The reasoner remains usable
        afterwards — a later query simply starts from cold caches.
        """
        _obs.incr("reasoner.releases")
        self._forget_all()

    def _forget_all(self) -> None:
        self._learned = None
        self._hierarchy_cache.clear()
        self._saturation = None
        self._classified = False
        self._carried = []

    def cache_stats(self) -> dict[str, int]:
        """Sizes of the memory-resident state (for tests/metrics).

        ``table`` is the concept table's size (0 before the tableau is
        built), ``pinned`` its watermark (0 before :meth:`classify`),
        and ``resets`` counts how often traffic past
        :data:`LEARNED_CAP` was forgotten.
        """
        learned = self._learned
        if learned is None:
            sat = subs = table = pinned = 0
        else:
            sat, subs = len(learned.sat), len(learned.subs)
            table = len(learned.tableau.concepts)
            pinned = 0 if learned.pinned is None else learned.pinned[0]
        return {
            "sat": sat,
            "subs": subs,
            "hierarchy": len(self._hierarchy_cache),
            "table": table,
            "pinned": pinned,
            "resets": self._resets,
        }

    def _state(self) -> _Learned:
        """The learned state, building the tableau on the first question."""
        self._check_revision()
        learned = self._learned
        if learned is None:
            tableau = Tableau(self.tbox, max_nodes=self._max_nodes)
            pinned = tableau.size() if self._classified else None
            learned = self._learned = _Learned(tableau, {}, {}, pinned)
        return learned

    def _bound(self, learned: _Learned) -> None:
        """Forget what traffic taught once it passes :data:`LEARNED_CAP`.

        Keeps the ids below the watermark and the answers that use only
        those, published as one new :class:`_Learned`.
        """
        pinned = learned.pinned
        if (
            pinned is None
            or len(learned.tableau.concepts) - pinned[0] <= LEARNED_CAP
            or self._learned is not learned
        ):
            return
        cut = pinned[0]
        self._learned = _Learned(
            learned.tableau.truncated(pinned),
            {key: value for key, value in learned.sat.items() if key < cut},
            {key: value for key, value in learned.subs.items() if max(key) < cut},
            pinned,
        )
        self._resets += 1
        _obs.incr("reasoner.resets")
        # the process-wide NNF memo holds the same traffic concepts, as
        # keys and results; it refills with what later queries need
        nnf_cache_clear()

    # read views of the learned state, for tests and debugging
    @property
    def _tableau(self) -> Tableau:
        return self._state().tableau

    @property
    def _sat_cache(self) -> dict[int, bool]:
        return self._state().sat

    @property
    def _subs_cache(self) -> dict[tuple[int, int], bool]:
        return self._state().subs

    # ------------------------------------------------------------------ #
    # concept-level services
    # ------------------------------------------------------------------ #

    def is_satisfiable(self, concept: Concept) -> bool:
        """True iff ``concept`` has a model consistent with the TBox."""
        learned = self._state()
        try:
            key = learned.tableau.cid(concept)
            answer = learned.sat.get(key)
            if answer is None:
                _obs.incr("reasoner.sat_cache_misses")
                answer = learned.sat[key] = learned.tableau.is_satisfiable(concept)
            else:
                _obs.incr("reasoner.sat_cache_hits")
            return answer
        finally:
            self._bound(learned)

    def extract_model(self, concept: Concept):
        """A finite witness interpretation for ``concept``, or ``None``.

        The returned :class:`repro.dl.interpretation.Interpretation` can
        be verified independently of the tableau — and the test suite
        does exactly that.  Note the witness is a model of the *concept*;
        blocked (cyclic) completion graphs are unraveled lazily, so for
        TBoxes with cycles the witness may not satisfy every GCI at
        every surrogate node.
        """
        from .tableau import extract_interpretation

        learned = self._state()
        try:
            state = learned.tableau.find_model(concept)
            return None if state is None else extract_interpretation(state)
        finally:
            self._bound(learned)

    def model_names(
        self, concept: Concept, budget: Optional[Budget] = None
    ) -> Optional[frozenset[str]]:
        """The atomic names at the root of one model of ``concept``.

        ``None`` iff ``concept`` is unsatisfiable.  The set bounds the
        named subsumers of ``concept``: the model places its root in
        ``concept`` and outside every name the set lacks.  The answer
        lands in the sat cache, and a cached "unsatisfiable" is
        returned without running the tableau.  Under a ``budget`` the
        tableau is governed: running out raises
        :class:`~repro.robust.BudgetExhausted` and caches nothing, just
        as :meth:`is_satisfiable_governed` caches only definite verdicts.
        """
        learned = self._state()
        try:
            key = learned.tableau.cid(concept)
            if learned.sat.get(key) is False:
                _obs.incr("reasoner.sat_cache_hits")
                return None
            try:
                state = learned.tableau.find_model(concept, budget)
            except BudgetExhausted:
                _obs.incr("robust.unknown_verdicts")
                raise
            learned.sat[key] = state is not None
            return None if state is None else state.atomic_names()
        finally:
            self._bound(learned)

    def is_satisfiable_governed(
        self, concept: Concept, budget: Optional[Budget] = None
    ) -> Verdict:
        """Satisfiability under a budget: PROVED / DISPROVED / UNKNOWN.

        Definite verdicts agree with :meth:`is_satisfiable` bit for bit
        (a completed tableau run is the same run either way) and are
        cached in the shared sat cache; UNKNOWN verdicts are *never*
        cached, so a later attempt with a bigger budget starts clean.
        """
        learned = self._state()
        try:
            key = learned.tableau.cid(concept)
            cached = learned.sat.get(key)
            if cached is not None:
                _obs.incr("reasoner.sat_cache_hits")
                return Verdict.from_bool(cached)
            _obs.incr("reasoner.sat_cache_misses")
            budget = budget if budget is not None else Budget.unlimited()
            verdict = learned.tableau.solve_governed(concept, budget)
            if verdict.is_definite:
                learned.sat[key] = verdict.as_bool()
            else:
                _obs.incr("robust.unknown_verdicts")
            return verdict
        finally:
            self._bound(learned)

    def subsumes(self, general: Concept, specific: Concept) -> bool:
        """True iff ``specific ⊑ general`` w.r.t. the TBox."""
        learned = self._state()
        try:
            tableau = learned.tableau
            key = (tableau.cid(general), tableau.cid(specific))
            answer = learned.subs.get(key)
            if answer is not None:
                _obs.incr("reasoner.subs_cache_hits")
                return answer
            _obs.incr("reasoner.subs_cache_misses")
            test = And.of([specific, negate(general)])
            test_satisfiable = tableau.is_satisfiable(test)
            answer = learned.subs[key] = not test_satisfiable
            if test_satisfiable and key[1] not in learned.sat:
                # the model of ``specific ⊓ ¬general`` witnesses that
                # ``specific`` itself is satisfiable: cross-seed the sat
                # cache so a later is_satisfiable(specific) is a hit
                learned.sat[key[1]] = True
                _obs.incr("reasoner.sat_cross_seeds")
            return answer
        finally:
            self._bound(learned)

    def subsumes_governed(
        self, general: Concept, specific: Concept, budget: Optional[Budget] = None
    ) -> Verdict:
        """``specific ⊑ general`` under a budget (PROVED = subsumption holds).

        Same reduction as :meth:`subsumes`; shares its caches, caches
        only definite verdicts, and cross-seeds the sat cache from a
        disproved subsumption exactly like the boolean service.
        """
        learned = self._state()
        try:
            tableau = learned.tableau
            key = (tableau.cid(general), tableau.cid(specific))
            cached = learned.subs.get(key)
            if cached is not None:
                _obs.incr("reasoner.subs_cache_hits")
                return Verdict.from_bool(cached)
            _obs.incr("reasoner.subs_cache_misses")
            budget = budget if budget is not None else Budget.unlimited()
            test = And.of([specific, negate(general)])
            test_verdict = tableau.solve_governed(test, budget)
            if test_verdict.is_unknown:
                _obs.incr("robust.unknown_verdicts")
                return test_verdict
            test_satisfiable = test_verdict.as_bool()
            learned.subs[key] = not test_satisfiable
            if test_satisfiable and key[1] not in learned.sat:
                learned.sat[key[1]] = True
                _obs.incr("reasoner.sat_cross_seeds")
            return test_verdict.negated()
        finally:
            self._bound(learned)

    def equivalent(self, c: Concept, d: Concept) -> bool:
        """True iff ``c ≡ d`` w.r.t. the TBox."""
        return self.subsumes(c, d) and self.subsumes(d, c)

    def disjoint(self, c: Concept, d: Concept) -> bool:
        """True iff ``c ⊓ d`` is unsatisfiable w.r.t. the TBox."""
        return not self.is_satisfiable(And.of([c, d]))

    def is_coherent(self) -> bool:
        """True iff every named concept of the TBox is satisfiable."""
        return not self.unsatisfiable_names()

    def unsatisfiable_names(self) -> list[str]:
        """Named concepts that the TBox forces to be empty."""
        return [
            name
            for name in sorted(self.tbox.atomic_names())
            if not self.is_satisfiable(Atomic(name))
        ]

    def saturation(self) -> "Saturation":
        """The Horn/EL saturation of the TBox, built once per revision.

        Classification reads the whole hierarchy off it when
        :attr:`Saturation.complete`; otherwise its sound True answers
        are the known subsumers that one tableau model per name
        completes, with or without a budget.
        """
        from .saturation import Saturation

        self._check_revision()
        if self._saturation is None:
            self._saturation = Saturation(self.tbox)
        return self._saturation

    def classify(
        self,
        *,
        algorithm: str = "saturation",
        budget: Optional[Budget] = None,
    ) -> "ConceptHierarchy":
        """The classified concept hierarchy of the TBox, cached.

        The hierarchy is computed once per algorithm and reused until
        the TBox revision moves, at which point :meth:`invalidate` drops
        it along with the sat/subs caches.  Consumers that repeatedly
        need hierarchy answers (e.g. :func:`repro.store.materialize`)
        should go through this service rather than reclassifying.

        A ``budget`` governs the same saturation-and-models run
        (:mod:`repro.dl.hierarchy`): unknown answers land in
        :attr:`ConceptHierarchy.incomplete` instead of raising.  Only
        *complete* hierarchies enter the cache (a cached complete
        hierarchy is returned even to budgeted calls — it is a strictly
        better answer than a partial one).

        The first return pins the concept table's size as the
        watermark below which nothing is forgotten, then interns the
        traffic answers :meth:`adopt_caches` carried above it.
        """
        from .hierarchy import ConceptHierarchy

        self._check_revision()
        hierarchy = self._hierarchy_cache.get(algorithm)
        if hierarchy is None:
            _obs.incr("reasoner.classify_cache_misses")
            hierarchy = ConceptHierarchy(
                self.tbox, reasoner=self, algorithm=algorithm, budget=budget
            )
            if not hierarchy.incomplete:
                self._hierarchy_cache[algorithm] = hierarchy
        else:
            _obs.incr("reasoner.classify_cache_hits")
        if not self._classified:
            self._classified = True
            if self._learned is not None:
                self._learned.pinned = self._learned.tableau.size()
            carried, self._carried = self._carried, []
            self._take(carried)
        return hierarchy

    def adopt_caches(self, other: "Reasoner", *, invalid: frozenset[str]) -> int:
        """Copy still-valid cached answers from ``other``.

        A sat/subsumption entry is carried over iff no atomic name of
        its concept(s) touches ``invalid`` — the caller's set of names
        whose reachable definitions differ between the two reasoners'
        TBoxes (:func:`repro.dl.diff.change_impact`).  Only sound for
        TBoxes that agree outside ``invalid``: a concept whose names all
        lie outside the change-impact set unfolds to the same
        definitional web in both, so the old tableau answer stands.
        With nothing invalid the TBoxes agree on every name, so the
        saturation and the classified hierarchies carry over too and a
        following :meth:`classify` is a cache hit.  Existing local
        entries win over adopted ones.

        Every answer below ``other``'s watermark is a candidate; of the
        answers that use a concept traffic interned past it, only the
        newest ``LEARNED_CAP // 8`` of each cache are, and they land
        above this reasoner's watermark — at once when it is
        classified, else when :meth:`classify` first returns.
        ``other`` is read through one reference, so it may keep
        answering, and forgetting, on another thread meanwhile.
        Returns the number of sat and subsumption entries carried.
        """
        self._check_revision()
        theirs = other._learned  # one read: a reset publishes a new state
        pinned: list[_Entry] = []
        traffic: list[_Entry] = []
        if theirs is not None:
            table = theirs.tableau.concepts
            cut = None if theirs.pinned is None else theirs.pinned[0]
            # list() snapshots are atomic under the GIL
            for entries in (
                [((key,), value) for key, value in list(theirs.sat.items())],
                list(theirs.subs.items()),
            ):
                learned = []
                for entry in entries:
                    below = cut is None or max(entry[0]) < cut
                    (pinned if below else learned).append(entry)
                traffic += learned[-(LEARNED_CAP // 8):]
            pinned = _valid(pinned, table, invalid)
            traffic = _valid(traffic, table, invalid)
        carried = self._take(pinned)
        if self._classified:
            carried += self._take(traffic)
        else:
            self._carried += traffic
            carried += len(traffic)
        if not invalid:
            if self._saturation is None:
                self._saturation = other._saturation
            for key, hierarchy in list(other._hierarchy_cache.items()):
                self._hierarchy_cache.setdefault(key, hierarchy)
        return carried

    def _take(self, entries: list[_Entry]) -> int:
        """Intern carried answers locally; the number not already cached."""
        if not entries:
            return 0
        learned = self._state()
        tableau = learned.tableau
        taken = 0
        for concepts, value in entries:
            if len(concepts) == 1:
                key, cache = tableau.cid(concepts[0]), learned.sat
            else:
                key = (tableau.cid(concepts[0]), tableau.cid(concepts[1]))
                cache = learned.subs
            if key not in cache:
                cache[key] = value
                taken += 1
        self._bound(learned)
        return taken

    # ------------------------------------------------------------------ #
    # ABox services
    # ------------------------------------------------------------------ #

    def is_consistent(self, abox: ABox) -> bool:
        """True iff the knowledge base ``(TBox, abox)`` is consistent."""
        learned = self._state()
        try:
            return learned.tableau.is_consistent(abox)
        finally:
            self._bound(learned)

    def is_instance(self, abox: ABox, individual: str, concept: Concept) -> bool:
        """True iff the KB entails ``individual : concept``.

        Standard reduction: entailed iff adding ``individual : ¬concept``
        makes the ABox inconsistent.
        """
        if individual not in abox.individuals():
            raise ReasonerError(f"unknown individual {individual!r}")
        probe = abox.extended([ConceptAssertion(individual, negate(concept))])
        return not self.is_consistent(probe)

    def is_consistent_governed(
        self, abox: ABox, budget: Optional[Budget] = None
    ) -> Verdict:
        """ABox consistency under a budget (PROVED = consistent)."""
        learned = self._state()
        budget = budget if budget is not None else Budget.unlimited()
        try:
            verdict = learned.tableau.consistent_governed(abox, budget)
        finally:
            self._bound(learned)
        if verdict.is_unknown:
            _obs.incr("robust.unknown_verdicts")
        return verdict

    def is_instance_governed(
        self,
        abox: ABox,
        individual: str,
        concept: Concept,
        budget: Optional[Budget] = None,
    ) -> Verdict:
        """Instance checking under a budget (PROVED = entailed)."""
        if individual not in abox.individuals():
            raise ReasonerError(f"unknown individual {individual!r}")
        probe = abox.extended([ConceptAssertion(individual, negate(concept))])
        # probe consistent ⇒ membership NOT entailed, hence the negation
        return self.is_consistent_governed(probe, budget).negated()

    def retrieve(self, abox: ABox, concept: Concept) -> list[str]:
        """All named individuals the KB entails to be instances of ``concept``."""
        return [
            individual
            for individual in sorted(abox.individuals())
            if self.is_instance(abox, individual, concept)
        ]

    def retrieve_indexed(
        self, backend, concept: Concept, *, limit: Optional[int] = None
    ) -> list[str]:
        """Retrieval pushed down to a materialized instance backend.

        ``backend`` is a :class:`repro.instdb.InstanceBackend` that has
        been materialized against this reasoner's TBox: an atomic query
        answers straight from its by-concept index (no tableau, no scan
        over individuals — the backend pages with ``limit``).  A complex
        concept falls back to tableau :meth:`retrieve` over the told
        export, which is only viable at small scale — counted separately
        so the fallback shows up in metrics before it shows up in p99.
        """
        from .syntax import Atomic

        if isinstance(concept, Atomic):
            _obs.incr("reasoner.indexed_retrievals")
            return backend.instances(concept.name, limit=limit)
        _obs.incr("reasoner.retrieval_fallbacks")
        members = self.retrieve(backend.to_abox(), concept)
        return members if limit is None else members[:limit]


def _valid(
    entries: list[tuple[tuple[int, ...], bool]],
    table,
    invalid: frozenset[str],
) -> list[_Entry]:
    """Entries by concept rather than id, minus those touching ``invalid``."""
    valid = []
    for ids, value in entries:
        concepts = tuple(table[i] for i in ids)
        if not any(concept.atomic_names() & invalid for concept in concepts):
            valid.append((concepts, value))
    return valid
