"""High-level reasoning services on top of the tableau.

Subsumption, satisfiability, equivalence, disjointness, ABox consistency,
instance checking and retrieval — the standard DL service suite, reduced
to tableau satisfiability in the usual way (``C ⊑ D`` iff ``C ⊓ ¬D`` is
unsatisfiable w.r.t. the TBox).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from ..obs import recorder as _obs
from ..robust import Budget, BudgetExhausted, Verdict
from .abox import ABox, ConceptAssertion
from .nnf import negate
from .syntax import And, Atomic, Concept, TOP
from .tableau import ReasonerError, Tableau
from .tbox import TBox

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .hierarchy import ConceptHierarchy
    from .saturation import Saturation


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
        self._tableau = Tableau(self.tbox, max_nodes=max_nodes)
        # caches are keyed by the tableau's interned concept ids: int keys
        # hash/compare in nanoseconds where frozen dataclass trees don't,
        # and the id space resets with the tableau on invalidation
        self._sat_cache: dict[int, bool] = {}
        self._subs_cache: dict[tuple[int, int], bool] = {}
        self._hierarchy_cache: dict[str, "ConceptHierarchy"] = {}
        self._saturation: Optional["Saturation"] = None
        self._tbox_revision = self.tbox.revision

    # ------------------------------------------------------------------ #
    # cache lifecycle
    # ------------------------------------------------------------------ #

    def invalidate(self) -> None:
        """Drop all cached answers and rebuild the tableau.

        Required after mutating the TBox in place; :meth:`_check_revision`
        calls it automatically when :attr:`TBox.revision` has moved, so
        mutations through :meth:`TBox.add` are picked up without manual
        intervention.  Mutations the revision counter cannot see (e.g.
        editing an axiom object in place) still need an explicit call.
        """
        _obs.incr("reasoner.invalidations")
        self._sat_cache.clear()
        self._subs_cache.clear()
        self._hierarchy_cache.clear()
        self._saturation = None
        self._tableau = Tableau(self.tbox, max_nodes=self._max_nodes)
        self._tbox_revision = self.tbox.revision

    def _check_revision(self) -> None:
        if self.tbox.revision != self._tbox_revision:
            self.invalidate()

    def release(self) -> None:
        """Drop every cache without rebuilding the tableau.

        The terminal counterpart of :meth:`invalidate`: a serving
        snapshot being retired (see :mod:`repro.serve.snapshot`) calls
        this once its last in-flight request finishes, so the sat /
        subsumption / hierarchy caches of a superseded TBox version do
        not stay memory-resident for the life of the process.  The
        reasoner remains usable afterwards — a later query simply starts
        from cold caches.
        """
        _obs.incr("reasoner.releases")
        self._sat_cache.clear()
        self._subs_cache.clear()
        self._hierarchy_cache.clear()
        self._saturation = None

    def cache_stats(self) -> dict[str, int]:
        """Entry counts of the memory-resident caches (for tests/metrics)."""
        return {
            "sat": len(self._sat_cache),
            "subs": len(self._subs_cache),
            "hierarchy": len(self._hierarchy_cache),
        }

    # ------------------------------------------------------------------ #
    # concept-level services
    # ------------------------------------------------------------------ #

    def is_satisfiable(self, concept: Concept) -> bool:
        """True iff ``concept`` has a model consistent with the TBox."""
        self._check_revision()
        key = self._tableau.cid(concept)
        if key not in self._sat_cache:
            _obs.incr("reasoner.sat_cache_misses")
            self._sat_cache[key] = self._tableau.is_satisfiable(concept)
        else:
            _obs.incr("reasoner.sat_cache_hits")
        return self._sat_cache[key]

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

        self._check_revision()
        state = self._tableau.find_model(concept)
        if state is None:
            return None
        return extract_interpretation(state)

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
        self._check_revision()
        key = self._tableau.cid(concept)
        if self._sat_cache.get(key) is False:
            _obs.incr("reasoner.sat_cache_hits")
            return None
        try:
            state = self._tableau.find_model(concept, budget)
        except BudgetExhausted:
            _obs.incr("robust.unknown_verdicts")
            raise
        self._sat_cache[key] = state is not None
        return None if state is None else state.atomic_names()

    def is_satisfiable_governed(
        self, concept: Concept, budget: Optional[Budget] = None
    ) -> Verdict:
        """Satisfiability under a budget: PROVED / DISPROVED / UNKNOWN.

        Definite verdicts agree with :meth:`is_satisfiable` bit for bit
        (a completed tableau run is the same run either way) and are
        cached in the shared sat cache; UNKNOWN verdicts are *never*
        cached, so a later attempt with a bigger budget starts clean.
        """
        self._check_revision()
        key = self._tableau.cid(concept)
        cached = self._sat_cache.get(key)
        if cached is not None:
            _obs.incr("reasoner.sat_cache_hits")
            return Verdict.from_bool(cached)
        _obs.incr("reasoner.sat_cache_misses")
        budget = budget if budget is not None else Budget.unlimited()
        verdict = self._tableau.solve_governed(concept, budget)
        if verdict.is_definite:
            self._sat_cache[key] = verdict.as_bool()
        else:
            _obs.incr("robust.unknown_verdicts")
        return verdict

    def subsumes(self, general: Concept, specific: Concept) -> bool:
        """True iff ``specific ⊑ general`` w.r.t. the TBox."""
        self._check_revision()
        key = (self._tableau.cid(general), self._tableau.cid(specific))
        if key not in self._subs_cache:
            _obs.incr("reasoner.subs_cache_misses")
            test = And.of([specific, negate(general)])
            test_satisfiable = self._tableau.is_satisfiable(test)
            self._subs_cache[key] = not test_satisfiable
            if test_satisfiable and key[1] not in self._sat_cache:
                # the model of ``specific ⊓ ¬general`` witnesses that
                # ``specific`` itself is satisfiable: cross-seed the sat
                # cache so a later is_satisfiable(specific) is a hit
                self._sat_cache[key[1]] = True
                _obs.incr("reasoner.sat_cross_seeds")
        else:
            _obs.incr("reasoner.subs_cache_hits")
        return self._subs_cache[key]

    def subsumes_governed(
        self, general: Concept, specific: Concept, budget: Optional[Budget] = None
    ) -> Verdict:
        """``specific ⊑ general`` under a budget (PROVED = subsumption holds).

        Same reduction as :meth:`subsumes`; shares its caches, caches
        only definite verdicts, and cross-seeds the sat cache from a
        disproved subsumption exactly like the boolean service.
        """
        self._check_revision()
        key = (self._tableau.cid(general), self._tableau.cid(specific))
        cached = self._subs_cache.get(key)
        if cached is not None:
            _obs.incr("reasoner.subs_cache_hits")
            return Verdict.from_bool(cached)
        _obs.incr("reasoner.subs_cache_misses")
        budget = budget if budget is not None else Budget.unlimited()
        test = And.of([specific, negate(general)])
        test_verdict = self._tableau.solve_governed(test, budget)
        if test_verdict.is_unknown:
            _obs.incr("robust.unknown_verdicts")
            return test_verdict
        test_satisfiable = test_verdict.as_bool()
        self._subs_cache[key] = not test_satisfiable
        if test_satisfiable and key[1] not in self._sat_cache:
            self._sat_cache[key[1]] = True
            _obs.incr("reasoner.sat_cross_seeds")
        return test_verdict.negated()

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
        entries win over adopted ones.  Returns the number of sat and
        subsumption entries carried.
        """
        self._check_revision()
        carried = 0
        # ids are per-tableau: translate through the other reasoner's
        # concept table and re-intern locally.  list() snapshots are
        # atomic under the GIL; `other` may still be serving requests
        # while its successor adopts from it.
        other_concepts = other._tableau.concepts
        for old_id, value in list(other._sat_cache.items()):
            concept = other_concepts[old_id]
            if concept.atomic_names() & invalid:
                continue
            key = self._tableau.cid(concept)
            if key in self._sat_cache:
                continue
            self._sat_cache[key] = value
            carried += 1
        for (general_id, specific_id), value in list(other._subs_cache.items()):
            general = other_concepts[general_id]
            specific = other_concepts[specific_id]
            if (general.atomic_names() | specific.atomic_names()) & invalid:
                continue
            key = (self._tableau.cid(general), self._tableau.cid(specific))
            if key in self._subs_cache:
                continue
            self._subs_cache[key] = value
            carried += 1
        if not invalid:
            if self._saturation is None:
                self._saturation = other._saturation
            for key, hierarchy in list(other._hierarchy_cache.items()):
                self._hierarchy_cache.setdefault(key, hierarchy)
        return carried

    # ------------------------------------------------------------------ #
    # ABox services
    # ------------------------------------------------------------------ #

    def is_consistent(self, abox: ABox) -> bool:
        """True iff the knowledge base ``(TBox, abox)`` is consistent."""
        self._check_revision()
        return self._tableau.is_consistent(abox)

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
        self._check_revision()
        budget = budget if budget is not None else Budget.unlimited()
        verdict = self._tableau.consistent_governed(abox, budget)
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
