"""Definition graphs: the paper's "structural meaning" made computable.

Section 3 of the paper proposes (in order to refute it) that the meaning
of a defined term is the *structure* of its definition: strip the names
from the ontonomy

    car ⊑ motorvehicle ⊓ roadvehicle ⊓ ∃size.small
    ...

and what remains — the paper's diagram (7), dots and arrows — is the
concept CAR.  This module extracts that structure from a TBox as a
labeled digraph, and decides *meaning identity* as graph isomorphism up
to a bijective renaming of concept names **and role names** (the paper's
ρ₁…ρ₃ are anonymous but remain distinct from one another).

``meaning_isomorphic`` is the function that proves the paper's reductio:
the vehicle TBox (4) and the animal TBox (8) have isomorphic definition
graphs, hence structurally CAR = DOG.
"""

from __future__ import annotations

import itertools
from typing import Hashable, Iterable, Optional

from ..graphs import DiGraph, find_isomorphism, reachable_from
from .syntax import (
    And,
    AtLeast,
    AtMost,
    Atomic,
    Concept,
    Exists,
    Forall,
    Not,
    _Bottom,
    _Top,
)
from .tbox import TBox

# edge-label constructors; role names stay identifiable for renaming
ISA = ("isa",)


def _edge_label(kind: str, role: str | None = None, n: int | None = None) -> tuple:
    if kind == "isa":
        return ISA
    if n is None:
        return (kind, role)
    return (kind, role, n)


class DefGraphError(Exception):
    """Raised when a TBox cannot be rendered as a definition graph."""


def definition_graph(tbox: TBox) -> DiGraph:
    """The definition graph of a definitorial TBox.

    Nodes are atomic names (node label = the name itself); each axiom
    ``A ⊑ C1 ⊓ ... ⊓ Cn`` with atomic ``A`` contributes, per conjunct:

    * atomic ``B``            → edge ``A → B`` labeled ``("isa",)``
    * ``∃r.B``                → edge ``A → B`` labeled ``("some", r)``
    * ``∀r.B``                → edge ``A → B`` labeled ``("all", r)``
    * ``≥n r.B``              → edge ``A → B`` labeled ``("atleast", r, n)``
    * ``≤n r.B``              → edge ``A → B`` labeled ``("atmost", r, n)``

    Complex fillers and negations are not part of the paper's structures
    and raise :class:`DefGraphError`.
    """
    graph = DiGraph()
    for name in sorted(tbox.atomic_names()):
        graph.add_node(name, label=name)
    for gci in tbox.gcis():
        if not isinstance(gci.lhs, Atomic):
            raise DefGraphError(
                f"definition graphs require atomic left-hand sides; got {gci.lhs}"
            )
        source = gci.lhs.name
        conjuncts = gci.rhs.operands if isinstance(gci.rhs, And) else (gci.rhs,)
        for conjunct in conjuncts:
            _add_conjunct_edge(graph, source, conjunct)
    return graph


def _add_conjunct_edge(graph: DiGraph, source: str, conjunct: Concept) -> None:
    if isinstance(conjunct, Atomic):
        graph.add_edge(source, conjunct.name, label=ISA)
        return
    if isinstance(conjunct, (Exists, Forall)):
        kind = "some" if isinstance(conjunct, Exists) else "all"
        filler = conjunct.filler
        if not isinstance(filler, Atomic):
            raise DefGraphError(
                f"definition graphs require atomic fillers; got ∃/∀{conjunct.role}.{filler}"
            )
        graph.add_edge(source, filler.name, label=_edge_label(kind, conjunct.role.name))
        return
    if isinstance(conjunct, (AtLeast, AtMost)):
        kind = "atleast" if isinstance(conjunct, AtLeast) else "atmost"
        filler = conjunct.filler
        if isinstance(filler, _Top):
            target = "⊤"
            graph.add_node(target, label=target)
        elif isinstance(filler, Atomic):
            target = filler.name
        else:
            raise DefGraphError(f"definition graphs require atomic fillers; got {filler}")
        graph.add_edge(
            source, target, label=_edge_label(kind, conjunct.role.name, conjunct.n)
        )
        return
    if isinstance(conjunct, (Not, _Bottom, _Top)):
        raise DefGraphError(f"definition graphs do not support conjunct {conjunct}")
    raise DefGraphError(f"unsupported conjunct {conjunct!r}")


def dependents_of(names: Iterable[str], *tboxes: TBox) -> frozenset[str]:
    """All names whose definitions transitively mention one of ``names``.

    Reverse reachability over the union of the TBoxes' name-dependency
    graphs (:meth:`repro.dl.tbox.TBox.dependency_graph`): the result
    contains every name from which some seed is reachable, including the
    seeds themselves when they occur in any of the TBoxes.  This is the
    core of an edit's change-impact set
    (:func:`repro.dl.diff.change_impact`) — a name outside it cannot see
    an edited definition through any chain of definitional references.
    """
    predecessors: dict[str, set[str]] = {}
    vocabulary: set[str] = set()
    for tbox in tboxes:
        graph = tbox.dependency_graph()
        for node in graph.nodes():
            vocabulary.add(node)
            for pred in graph.predecessors(node):
                predecessors.setdefault(node, set()).add(pred)
    seen = {name for name in names if name in vocabulary}
    stack = list(seen)
    while stack:
        node = stack.pop()
        for pred in predecessors.get(node, ()):
            if pred not in seen:
                seen.add(pred)
                stack.append(pred)
    return frozenset(seen)


def structural_meaning(tbox: TBox, name: str) -> DiGraph:
    """The paper's structure (6) for ``name``: the reachable definitional web.

    The subgraph of the definition graph induced by everything reachable
    from ``name`` — "the meaning of the word 'car' is given by ... its
    relation with the terms 'motorvehicle', 'roadvehicle', 'size' and
    'small', together with the relation of these terms with other terms
    and so on".
    """
    graph = definition_graph(tbox)
    if name not in graph:
        raise DefGraphError(f"{name!r} does not occur in the TBox")
    return graph.subgraph(reachable_from(graph, name))


def anonymized_meaning(tbox: TBox, name: str) -> DiGraph:
    """Structure (7): the meaning graph with all concept names erased."""
    return structural_meaning(tbox, name).anonymized()


def rename_roles(graph: DiGraph, role_map: dict[str, str]) -> DiGraph:
    """A copy of ``graph`` with role names in edge labels renamed."""
    out = DiGraph()
    for node in graph.nodes():
        out.add_node(node, graph.node_label(node))
    for u, v, label in graph.edges():
        if isinstance(label, tuple) and len(label) >= 2:
            role = label[1]
            new_label = (label[0], role_map.get(role, role), *label[2:])
        else:
            new_label = label
        out.add_edge(u, v, new_label)
    return out


def graph_roles(graph: DiGraph) -> frozenset[str]:
    """The role names occurring in a definition graph's edge labels."""
    return frozenset(
        label[1]
        for _, _, label in graph.edges()
        if isinstance(label, tuple) and len(label) >= 2
    )


def meaning_isomorphic(
    g1: DiGraph, g2: DiGraph
) -> Optional[tuple[dict[Hashable, Hashable], dict[str, str]]]:
    """Meaning identity: isomorphism up to renaming of concepts AND roles.

    Returns ``(node_map, role_map)`` exhibiting the identification, or
    ``None``.  Node labels are ignored (concepts are anonymous dots);
    edge labels must match up to a bijection of role names — constructor
    kind ("isa"/"some"/"atleast"/…) and cardinalities are preserved, so
    the paper's ρ₂(4) arrow stays a "4-arrow" under renaming.

    This realizes the paper's claim: ``meaning_isomorphic(CAR, DOG)``
    succeeds for the structures (4) and (8), which is the reductio.
    """
    roles1 = sorted(graph_roles(g1))
    roles2 = sorted(graph_roles(g2))
    if len(roles1) != len(roles2):
        return None
    for permutation in itertools.permutations(roles2):
        role_map = dict(zip(roles1, permutation))
        renamed = rename_roles(g1, role_map)
        node_map = find_isomorphism(renamed, g2, respect_node_labels=False)
        if node_map is not None:
            return (node_map, role_map)
    return None


def meanings_identical(tbox1: TBox, name1: str, tbox2: TBox, name2: str) -> bool:
    """Convenience wrapper: structural meaning identity of two defined terms."""
    g1 = structural_meaning(tbox1, name1)
    g2 = structural_meaning(tbox2, name2)
    result = meaning_isomorphic(g1, g2)
    if result is None:
        return False
    node_map, _ = result
    # the compared terms must correspond under the identification
    return node_map.get(name1) == name2
