"""Reasoner for ELHr ontologies annotated with semiring provenance.

Decides entailment of annotated axioms and instance queries by rule
saturation, computes the provenance variables relevant to a consequence,
and answers annotated Boolean conjunctive queries by canonical-model
construction and query rewriting.
"""

from .provenance import (
    BOOLEAN,
    FUZZY,
    ONE,
    ZERO,
    MissingAssignmentError,
    Monomial,
    Polynomial,
    SemiringSpec,
    Variable,
    evaluate,
    parse_monomial,
    parse_polynomial,
)
from .ontology import (
    CA,
    GCI,
    RA,
    RI,
    RR,
    AnnotatedAxiom,
    AnnotatedOntology,
    Atomic,
    Concept,
    Conj,
    Exists,
    ExistsQ,
    FreshNames,
    NamespaceError,
    ParseError,
    Ran,
    TOP,
    Top,
    normalize,
    parse_axiom,
    parse_ontology,
    render_annotated,
    render_axiom,
    translate_general_gci,
)
from .completion import (
    Limits,
    ResourceCapExceeded,
    SaturatedSet,
    UnknownNameWarning,
    entails,
    entails_assertion,
    saturate,
)
from .relevance import (
    MergedSet,
    merged_saturate,
    relevant_monomial,
)
from .interpretation import (
    BCQ,
    AnnotatedInterpretation,
    AuxElement,
    ConceptAtom,
    Ind,
    Match,
    Named,
    NonStandardQueryError,
    QueryError,
    RoleAtom,
    UnknownIndividualError,
    Var,
    enumerate_matches,
    parse_query,
    provenance_of_matches,
)
from .canonical import (
    Fork,
    QueryAnswer,
    RewritingConditions,
    answer_query,
    build_canonical_model,
    compute_rewriting,
    render_rewriting,
)

__version__ = "0.1.0"
