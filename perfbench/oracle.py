"""Answer oracles, computed in the benchmark process outside the timed window.

* Atomic ``/v1/subsumes`` and ``/v1/satisfiable`` answers are checked
  against the hierarchy of the ``tbox_version`` the response reports;
  every successor of an edit chain is classified in advance.
* ``/v1/instances`` answers are checked against a ``MemoryBackend``
  loaded with the same told rows as the served sqlite store and
  materialized for the response's ``materialized_version``.
* Complex answers are checked against an in-process ``Reasoner`` whose
  budget is far larger than the server's per-request slice; what it
  still leaves undecided is counted, not guessed.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.dl import Reasoner, parse_concept, parse_tbox
from repro.dl.hierarchy import BOTTOM_NAME
from repro.instdb import materialize, refresh
from repro.instdb.memory import MemoryBackend
from repro.robust import Budget


class HierarchyOracle:
    """Classified hierarchies keyed by TBox version."""

    def __init__(self, versions: dict[int, str]) -> None:
        by_text = {
            text: Reasoner(parse_tbox(text)).classify()
            for text in set(versions.values())
        }
        self.hierarchies = {
            version: by_text[text] for version, text in versions.items()
        }

    def subsumes(self, version: int, general: str, specific: str) -> Optional[bool]:
        hierarchy = self.hierarchies.get(version)
        if hierarchy is None:
            return None
        return hierarchy.is_subsumed_by(specific, general)

    def satisfiable(self, version: int, name: str) -> Optional[bool]:
        hierarchy = self.hierarchies.get(version)
        if hierarchy is None:
            return None
        return hierarchy.group_of[name] != BOTTOM_NAME


class InstanceOracle:
    """``instances(concept, limit)`` per materialized version.

    ``told`` is the ``(individual, concept)`` load order of the served
    store, so dense ids (and so the order a ``limit`` cuts) match.
    """

    def __init__(
        self,
        told: Iterable[tuple[str, str]],
        roles: Iterable[tuple[str, str, str]],
        hierarchies: HierarchyOracle,
    ) -> None:
        self.backend = MemoryBackend()
        with self.backend.transaction():
            for individual, concept in told:
                self.backend.assert_type(individual, concept)
            for subject, role, obj in roles:
                self.backend.assert_role(subject, role, obj)
        self.hierarchies = hierarchies

    def answers(
        self, wanted: dict[int, set[tuple[str, Optional[int]]]]
    ) -> dict[tuple[int, str, Optional[int]], list[str]]:
        """Answer every ``(concept, limit)`` query at its version."""
        out: dict[tuple[int, str, Optional[int]], list[str]] = {}
        closures = None
        for version in sorted(wanted):
            hierarchy = self.hierarchies.hierarchies[version]
            if closures is None:
                closures = materialize(self.backend, hierarchy).closures
            else:
                closures = refresh(self.backend, hierarchy, closures).closures
            for concept, limit in wanted[version]:
                out[version, concept, limit] = self.backend.instances(
                    concept, limit=limit
                )
        return out


class ComplexOracle:
    """Governed reasoning with a budget far above the server's slice."""

    def __init__(self, tbox_text: str, *, max_nodes: int, max_ms: float) -> None:
        self.reasoner = Reasoner(parse_tbox(tbox_text), max_nodes=max_nodes)
        self.reasoner.classify()
        self.max_nodes = max_nodes
        self.max_ms = max_ms

    def decide(self, kind: str, concepts: tuple[str, ...]) -> Optional[bool]:
        """The definite answer, or ``None`` when the budget runs out."""
        budget = Budget(max_nodes=self.max_nodes, max_ms=self.max_ms)
        parsed = [parse_concept(text) for text in concepts]
        if kind == "subsumes":
            verdict = self.reasoner.subsumes_governed(parsed[0], parsed[1], budget)
        else:
            verdict = self.reasoner.is_satisfiable_governed(parsed[0], budget)
        return None if verdict.is_unknown else verdict.as_bool()
