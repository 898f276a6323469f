"""Description logic: syntax, parser, tableau reasoner, classification,
and the definition-graph machinery behind the paper's structural-meaning
argument.
"""

from .abox import ABox, Assertion, ConceptAssertion, RoleAssertion
from .bisimulation import (
    are_bisimilar,
    bisimulation_classes,
    is_alc_concept,
)
from .diff import AxiomDelta, TBoxDiff, axiom_diff, change_impact, tbox_diff
from .defgraph import (
    DefGraphError,
    anonymized_meaning,
    definition_graph,
    dependents_of,
    graph_roles,
    meaning_isomorphic,
    meanings_identical,
    rename_roles,
    structural_meaning,
)
from .hierarchy import (
    BOTTOM_NAME,
    TOP_NAME,
    ConceptHierarchy,
    classify,
)
from .intern import BOTTOM_ID, TOP_ID, BitSet, ConceptTable, InternTable
from .interpretation import Interpretation
from .nnf import is_nnf, negate, to_nnf
from .parser import ParseError, parse_axiom, parse_concept, parse_tbox
from .serialize import tbox_to_text, to_text
from .reasoner import Reasoner
from .syntax import (
    BOTTOM,
    TOP,
    And,
    AtLeast,
    AtMost,
    Atomic,
    Concept,
    DLSyntaxError,
    Exists,
    Forall,
    Not,
    Or,
    Role,
    at_least,
    at_most,
    only,
    some,
)
from .saturation import Saturation
from .tableau import ReasonerError, Tableau
from .tbox import Axiom, Equivalence, Subsumption, TBox

__all__ = [
    "Concept", "Atomic", "TOP", "BOTTOM", "Not", "And", "Or", "Exists",
    "Forall", "AtLeast", "AtMost", "Role", "some", "only", "at_least",
    "at_most", "DLSyntaxError",
    "to_nnf", "negate", "is_nnf",
    "TBox", "Subsumption", "Equivalence", "Axiom",
    "ABox", "ConceptAssertion", "RoleAssertion", "Assertion",
    "Tableau", "Reasoner", "ReasonerError", "Interpretation",
    "BitSet", "InternTable", "ConceptTable", "TOP_ID", "BOTTOM_ID",
    "Saturation",
    "are_bisimilar", "bisimulation_classes", "is_alc_concept",
    "tbox_diff", "TBoxDiff", "axiom_diff", "AxiomDelta", "change_impact",
    "ConceptHierarchy", "classify", "TOP_NAME", "BOTTOM_NAME",
    "dependents_of",
    "parse_concept", "parse_axiom", "parse_tbox", "ParseError",
    "to_text", "tbox_to_text",
    "definition_graph", "structural_meaning", "anonymized_meaning",
    "meaning_isomorphic", "meanings_identical", "rename_roles",
    "graph_roles", "DefGraphError",
]
