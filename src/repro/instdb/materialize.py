"""Hierarchy-propagated materialization into an instance backend.

The store-level materializer (:mod:`repro.store.materialize`) walks the
classified hierarchy *per individual*, with a tableau check per
undecided candidate — the right tool for small, role-rich ABoxes, and
a dead end at 10⁶ individuals.  At instance-store scale the workload
inverts: there are millions of individuals but only tens of distinct
*told* concepts, and every derived type of an individual whose
assertions are atomic told types is exactly the upward closure of those
told types in the hierarchy (told subsumption is free — the same
observation the store materializer exploits before its tableau walk).

So this materializer propagates **per told concept**, not per
individual: for each distinct told concept ``C`` it computes
``closure(C)`` — the equivalents of ``C`` and of every ancestor, minus
``C`` itself and ⊤/⊥ — once, and asks the backend for one set-based
``insert_derived(C, closure(C))``.  The sqlite backend turns that into
indexed ``INSERT .. SELECT`` statements; a million individuals cost as
many *row inserts*, but only ``(told concepts × closure size)``
statements.  The whole delta runs inside ONE backend transaction, in
per-source batches, so a crash mid-materialization leaves zero derived
rows, never a torso.

Every derived row records its ``materialized_from`` source, which is
what makes TBox swaps cheap: :func:`refresh` compares each told
concept's closure under the new hierarchy against the closure map the
previous materialization returned and re-derives **only the changed
sources** — the swap's change-impact set bounds which sources can
change, everything else is untouched rows.  ⊤-equivalent names (which
hold of *every* individual regardless of told types) are folded into
every source's closure, so they need no per-individual pass either.

Counters: ``instdb.materialize_runs``, ``instdb.refresh_runs``,
``instdb.refresh_sources`` (changed sources re-derived),
``instdb.refresh_skipped_sources`` (sources proven untouched).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dl import BOTTOM_NAME, TOP_NAME, ConceptHierarchy
from ..obs import recorder as _obs
from .backend import InstanceBackend

#: closure-map key for the ⊤-equivalent names every individual receives;
#: not a concept name (it cannot collide with one)
TOP_SOURCE = "⊤*"


@dataclass
class MaterializeResult:
    """One materialization (or refresh) delta, plus the closure map the
    *next* refresh diffs against."""

    derived_rows: int
    removed_rows: int = 0
    sources: list[str] = field(default_factory=list)
    skipped_sources: list[str] = field(default_factory=list)
    #: told concept -> the names derived from it (the provenance map);
    #: keep it with the backend's owner and hand it to :func:`refresh`
    closures: dict[str, frozenset[str]] = field(default_factory=dict)


def closure_of(hierarchy: ConceptHierarchy, name: str) -> frozenset[str]:
    """The names entailed for an individual told to be a ``name``.

    Equivalents of ``name`` and of every strict ancestor, minus the
    told name itself and the ⊤/⊥ sentinels.  Unknown names (told data
    ahead of the terminology) derive nothing.
    """
    rep = hierarchy.group_of.get(name)
    if rep is None or rep == BOTTOM_NAME:
        return frozenset()
    out: set[str] = set(hierarchy.equivalents(rep)) if rep != TOP_NAME else set()
    if rep != TOP_NAME:
        for ancestor in hierarchy.ancestors(rep):
            if ancestor not in (TOP_NAME, BOTTOM_NAME):
                out |= hierarchy.equivalents(ancestor)
    out |= hierarchy.top_equivalents()
    out.discard(name)
    out.discard(TOP_NAME)
    out.discard(BOTTOM_NAME)
    return frozenset(out)


def closure_map(
    hierarchy: ConceptHierarchy, told: list[str]
) -> dict[str, frozenset[str]]:
    """Per-source closures for ``told`` concepts, plus the ⊤ entry."""
    closures = {name: closure_of(hierarchy, name) for name in told}
    closures[TOP_SOURCE] = frozenset(
        hierarchy.top_equivalents() - {TOP_NAME, BOTTOM_NAME}
    )
    return closures


def materialize(
    backend: InstanceBackend, hierarchy: ConceptHierarchy
) -> MaterializeResult:
    """Full (re)materialization: drop every derived row, re-derive all.

    One transaction end to end; the per-source inserts are the delta
    batches inside it.
    """
    _obs.incr("instdb.materialize_runs")
    told = backend.told_concepts()
    closures = closure_map(hierarchy, told)
    result = MaterializeResult(0, closures=closures)
    with _obs.trace("instdb.materialize"), backend.transaction():
        result.removed_rows = backend.delete_derived()
        for source in told:
            derived = closures[source]
            if not derived:
                continue
            result.derived_rows += backend.insert_derived(source, sorted(derived))
            result.sources.append(source)
    return result


def refresh(
    backend: InstanceBackend,
    hierarchy: ConceptHierarchy,
    previous: dict[str, frozenset[str]],
    *,
    affected: frozenset[str] | None = None,
) -> MaterializeResult:
    """Re-derive only the sources the TBox swap actually moved.

    ``previous`` is the closure map of the materialization currently in
    the backend (``result.closures``); a source whose new closure equals
    its recorded one keeps all its rows untouched.  ``affected`` — the
    swap's change-impact set (:func:`repro.dl.diff.change_impact`), the
    names whose meaning the edit can move — is an optional pre-filter:
    a source absent from it whose old closure is disjoint from it
    cannot have moved (a name outside the set keeps its definitional
    web, so its ancestry stands), so its closure is not even
    recomputed.  ``None`` recomputes every closure.  New told concepts
    (data loaded since the last run) are always candidates.
    """
    _obs.incr("instdb.refresh_runs")
    told = backend.told_concepts()
    new_top = frozenset(hierarchy.top_equivalents() - {TOP_NAME, BOTTOM_NAME})
    top_changed = previous.get(TOP_SOURCE) != new_top
    known = hierarchy.group_of.keys()

    result = MaterializeResult(0)
    changed: dict[str, frozenset[str]] = {}
    for source in told:
        old = previous.get(source)
        if (
            old is not None
            and not top_changed
            and affected is not None
            and source not in affected
            and not (old & affected)
            # the impact set omits names *removed* from the
            # vocabulary — a closure referencing one must be recomputed
            and source in known
            and old <= known
        ):
            result.skipped_sources.append(source)
            result.closures[source] = old
            continue
        new = closure_of(hierarchy, source)
        result.closures[source] = new
        if new == old:
            result.skipped_sources.append(source)
        else:
            changed[source] = new
    result.closures[TOP_SOURCE] = new_top

    if changed:
        with _obs.trace("instdb.refresh"), backend.transaction():
            result.removed_rows = backend.delete_derived(sorted(changed))
            for source in sorted(changed):
                if changed[source]:
                    result.derived_rows += backend.insert_derived(
                        source, sorted(changed[source])
                    )
                result.sources.append(source)
    _obs.incr("instdb.refresh_sources", len(result.sources))
    _obs.incr("instdb.refresh_skipped_sources", len(result.skipped_sources))
    return result
