"""Canonical model construction and query rewriting for annotated BCQs.

The canonical model of an annotated ontology seeds the named part with
every entailed assertion and then applies three model-building rules to
a fixpoint: concept inclusions push memberships forward, unqualified
existentials attach anonymous elements keyed by role and edge monomial,
and role inclusions copy edges upward. Anonymous elements are
materialized only when an edge first targets them.

A query holds on the ontology exactly when its rewriting holds on the
canonical model. The rewriting keeps the query atoms and adds side
conditions over two sets computed from the query's shape: variables that
can reach a cycle among the role atoms must be matched by named
individuals, and whenever several terms point at one equivalence class
whose representative is matched anonymously, those terms must coincide.
"""

from __future__ import annotations

from dataclasses import dataclass

from .completion import (
    Limits,
    ResourceCapExceeded,
    entailed_range_restrictions,
    saturate,
)
from .interpretation import (
    AnnotatedInterpretation,
    AuxElement,
    BCQ,
    DomainElement,
    Match,
    Named,
    Term,
    UnknownIndividualError,
    Var,
    enumerate_matches,
    provenance_of_matches,
    term_key,
)
from .ontology import (
    CA,
    GCI,
    RA,
    RI,
    RR,
    AnnotatedOntology,
    Atomic,
    Concept,
    Exists,
    Ran,
    normalize,
    render_axiom,
)
from .provenance import Monomial, Polynomial

__all__ = [
    "Fork",
    "RewritingConditions",
    "compute_rewriting",
    "build_canonical_model",
    "QueryAnswer",
    "answer_query",
    "render_rewriting",
]


# --- query rewriting ---------------------------------------------------------


@dataclass(frozen=True)
class Fork:
    pre: tuple[Term, ...]
    representative: Term
    cls: frozenset[Term]


@dataclass(frozen=True)
class RewritingConditions:
    classes: tuple[frozenset[Term], ...]
    cyc: frozenset[Var]
    forks: tuple[Fork, ...]
    merge_count: int

    def same_class(self, a: Term, b: Term) -> bool:
        return any(a in cls and b in cls for cls in self.classes)

    def class_of(self, t: Term) -> frozenset[Term]:
        for cls in self.classes:
            if t in cls:
                return cls
        return frozenset((t,))


def compute_rewriting(query: BCQ) -> RewritingConditions:
    """Equivalence classes, cycle variables and fork constraints of a query.

    Terms are merged whenever two role atoms' targets are already
    equivalent (then their sources must be); a variable is a cycle
    variable when its class can reach a class lying on a directed cycle
    of the source-to-target graph; a fork records a class targeted from
    at least two distinct sources.
    """
    terms = list(query.ordinary_terms())
    parent: dict[Term, Term] = {t: t for t in terms}

    def find(t: Term) -> Term:
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    merge_count = 0
    role_atoms = query.role_atoms()
    changed = True
    while changed:
        changed = False
        for a1 in role_atoms:
            for a2 in role_atoms:
                if find(a1.arg2) == find(a2.arg2) and find(a1.arg1) != find(a2.arg1):
                    parent[find(a1.arg1)] = find(a2.arg1)
                    merge_count += 1
                    changed = True

    groups: dict[Term, set[Term]] = {}
    for t in terms:
        groups.setdefault(find(t), set()).add(t)
    classes = tuple(
        frozenset(g) for g in sorted(groups.values(), key=lambda g: min(term_key(t) for t in g))
    )

    rep = {t: find(t) for t in terms}
    edges: dict[Term, set[Term]] = {}
    for atom in role_atoms:
        edges.setdefault(rep[atom.arg1], set()).add(rep[atom.arg2])

    # classes lying on a directed cycle, then everything that can reach them
    on_cycle: set[Term] = set()
    for start in edges:
        stack, seen = [start], set()
        while stack:
            node = stack.pop()
            for nxt in edges.get(node, ()):
                if nxt == start:
                    on_cycle.add(start)
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    reaches_cycle = set(on_cycle)
    changed = True
    while changed:
        changed = False
        for src, dsts in edges.items():
            if src not in reaches_cycle and dsts & reaches_cycle:
                reaches_cycle.add(src)
                changed = True

    cyc = frozenset(
        t for t in terms if isinstance(t, Var) and rep[t] in reaches_cycle
    )

    forks = []
    for cls in classes:
        pre = {atom.arg1 for atom in role_atoms if atom.arg2 in cls}
        if len(pre) >= 2:
            representative = min(cls, key=term_key)
            forks.append(Fork(tuple(sorted(pre, key=term_key)), representative, cls))
    forks.sort(key=lambda f: term_key(f.representative))

    return RewritingConditions(classes, cyc, tuple(forks), merge_count)


def render_rewriting(query: BCQ, conditions: RewritingConditions) -> str:
    """Rewritten query in the query grammar plus one condition per line."""
    lines = [" & ".join(str(a) for a in query.atoms)]
    for v in sorted(conditions.cyc):
        lines.append(f"!aux({v})")
    for fork in conditions.forks:
        chain = " = ".join(str(t) for t in fork.pre)
        lines.append(f"aux({fork.representative}) -> {chain}")
    return "\n".join(lines) + "\n"


# --- canonical model ---------------------------------------------------------


def build_canonical_model(
    ontology: AnnotatedOntology, limits: Limits | None = None
) -> AnnotatedInterpretation:
    """Universal annotated model of the ontology.

    The ontology is normalized, closed under its entailed range
    restrictions, and fully saturated to seed the named part; the
    model-building rules then run round-robin over the axioms until no
    rule adds a pair, materializing anonymous elements on demand.
    """
    limits = limits or Limits()
    base = normalize(ontology)
    star = base.extended(entailed_range_restrictions(base, limits))
    sat = saturate(star, limits=limits)

    concept_ext: dict[str, dict] = {}
    role_ext: dict[str, dict] = {}
    domain: dict[DomainElement, None] = {Named(i): None for i in star.individuals}
    size = 0

    def cap_check() -> None:
        if size > limits.max_axioms:
            raise ResourceCapExceeded(
                f"canonical model exceeded the cap of {limits.max_axioms} tuples"
            )

    def add_concept(name: str, el: DomainElement, mon: Monomial) -> bool:
        nonlocal size
        bucket = concept_ext.setdefault(name, {})
        if (el, mon) in bucket:
            return False
        bucket[(el, mon)] = None
        size += 1
        cap_check()
        return True

    def add_role(name: str, d: DomainElement, e: DomainElement, mon: Monomial) -> bool:
        nonlocal size
        bucket = role_ext.setdefault(name, {})
        if (d, e, mon) in bucket:
            return False
        bucket[(d, e, mon)] = None
        domain.setdefault(e, None)
        size += 1
        cap_check()
        return True

    for ann in sat.assertions():
        ax = ann.axiom
        if isinstance(ax, CA) and isinstance(ax.concept, Atomic):
            add_concept(ax.concept.name, Named(ax.ind), ann.annotation)
        elif isinstance(ax, RA):
            add_role(ax.role, Named(ax.a), Named(ax.b), ann.annotation)

    def eval_lhs(concept: Concept) -> list[tuple[DomainElement, Monomial]]:
        # normal-form left-hand sides over the current partial structure
        view = AnnotatedInterpretation.__new__(AnnotatedInterpretation)
        view.domain = tuple(domain)
        view._domain_set = frozenset(domain)
        view.concept_ext = {n: frozenset(b) for n, b in concept_ext.items()}
        view.role_ext = {n: frozenset(b) for n, b in role_ext.items()}
        view.individuals = {}
        return sorted(view.extend_concept(concept), key=lambda p: (str(p[0]), p[1]))

    rules = sorted(
        (
            ann
            for ann in star.axioms
            if isinstance(ann.axiom, (GCI, RI, RR))
        ),
        key=lambda ann: (render_axiom(ann.axiom), ann.annotation),
    )

    changed = True
    while changed:
        changed = False
        for ann in rules:
            ax, m = ann.axiom, ann.annotation
            if isinstance(ax, GCI) and isinstance(ax.rhs, Atomic):
                for d, n in eval_lhs(ax.lhs):
                    if add_concept(ax.rhs.name, d, m * n):
                        changed = True
            elif isinstance(ax, GCI) and isinstance(ax.rhs, Exists):
                role = ax.rhs.role
                for d, n in eval_lhs(ax.lhs):
                    mn = m * n
                    if add_role(role, d, AuxElement(role, mn), mn):
                        changed = True
            elif isinstance(ax, RR):
                for d, n in eval_lhs(Ran(ax.role)):
                    if add_concept(ax.filler, d, m * n):
                        changed = True
            elif isinstance(ax, RI):
                for d, e, n in sorted(
                    role_ext.get(ax.sub, {}), key=lambda t: (str(t[0]), str(t[1]), t[2])
                ):
                    if add_role(ax.sup, d, e, m * n):
                        changed = True

    return AnnotatedInterpretation(
        domain=domain,
        concept_ext={n: tuple(b) for n, b in concept_ext.items()},
        role_ext={n: tuple(b) for n, b in role_ext.items()},
        individuals=star.individuals,
    )


@dataclass(frozen=True)
class QueryAnswer:
    """Whether the annotated query is entailed, with the evidence behind it."""

    entailed: bool
    matches: tuple[Match, ...]
    provenance: Polynomial


def answer_query(
    ontology: AnnotatedOntology,
    query: BCQ,
    prov: Polynomial,
    limits: Limits | None = None,
) -> QueryAnswer:
    """Answer an annotated query over the canonical model.

    The query must mention only individuals of the ontology; that is
    checked before the model is built. ``prov`` is entailed when the
    query matches and ``prov`` is contained in the query provenance; a
    polynomial over variables foreign to the ontology never is, and the
    zero polynomial is whenever the query matches.
    """
    known = set(ontology.individuals)
    for name in query.individuals():
        if name not in known:
            raise UnknownIndividualError(
                f"individual {name!r} does not occur in the ontology"
            )
    interp = build_canonical_model(ontology, limits)
    conditions = compute_rewriting(query)
    matches = enumerate_matches(interp, query, conditions)
    provenance = provenance_of_matches(query, matches)
    foreign = not prov.variables() <= set(ontology.variables)
    entailed = bool(matches) and not foreign and prov.contained_in(provenance)
    return QueryAnswer(entailed, matches, provenance)
