"""Canonical model construction and query rewriting for annotated BCQs.

The canonical model of an annotated ontology is read off one saturation
of the normalized ontology plus one probe edge per role, each marked by
its own fresh variable. The entailed assertions on the ontology's
individuals form the named part. An anonymous element is keyed by the
role and monomial of the edge that creates it, and since ELHr has no
inverse roles, what holds of it depends on that key alone: it is the
type of the role's probe target, the marker replaced by the edge
monomial. So each element is unfolded once, with no fixpoint, on the
saturation's own facts and monomial masks. This is the canonical model
of the combined approach (Lutz, Toman & Wolter, *Conjunctive Query
Answering in the Description Logic EL Using a Relational Database
System*, IJCAI 2009).

A query holds on the ontology exactly when its rewriting holds on the
canonical model. The rewriting keeps the query atoms and adds side
conditions over two sets computed from the query's shape: variables that
can reach a cycle among the role atoms must be matched by named
individuals, and whenever several terms point at one equivalence class
whose representative is matched anonymously, those terms must coincide.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .completion import Limits, ResourceCapExceeded, saturate
from .interpretation import (
    AnnotatedInterpretation,
    AuxElement,
    BCQ,
    DomainElement,
    Named,
    Term,
    UnknownIndividualError,
    Var,
    provenance_of_matches,
)
from .ontology import (
    GCI,
    RA,
    AnnotatedAxiom,
    AnnotatedOntology,
    Atomic,
    Exists,
    FreshNames,
    normalize,
)
from .provenance import Monomial, Polynomial, Variable

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


def compute_rewriting(query: BCQ) -> RewritingConditions:
    """Equivalence classes, cycle variables and fork constraints of a query.

    Two role atoms whose targets are equivalent make their sources
    equivalent: a worklist of (source, target) pairs keeps one source per
    target class and merges every other source into it. A variable is a
    cycle variable when its class can reach a directed cycle of the
    source-to-target graph of classes; a fork records a class targeted
    from at least two distinct sources.
    """
    terms = query.ordinary_terms()
    parent: dict[Term, Term] = {t: t for t in terms}

    def find(t: Term) -> Term:
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    role_atoms = query.role_atoms()
    source: dict[Term, Term] = {}  # class root -> one source of an atom into the class
    work = [(atom.arg1, atom.arg2) for atom in role_atoms]
    while work:
        s, t = work.pop()
        a, b = find(source.setdefault(find(t), s)), find(s)
        if a != b:
            parent[a] = b
            if a in source:  # class a's atoms now point into class b
                work.append((source.pop(a), b))

    rep = {t: find(t) for t in terms}
    groups: dict[Term, set[Term]] = {}
    for t in terms:
        groups.setdefault(rep[t], set()).add(t)
    classes = tuple(frozenset(g) for g in sorted(groups.values(), key=min))

    pre: dict[Term, set[Term]] = {}  # class root -> the sources of its atoms
    edges: dict[Term, set[Term]] = {}
    for atom in role_atoms:
        pre.setdefault(rep[atom.arg2], set()).add(atom.arg1)
        edges.setdefault(rep[atom.arg1], set()).add(rep[atom.arg2])

    # the classes left after repeatedly removing classes without successors
    # are those that reach a cycle
    into: dict[Term, list[Term]] = {}
    for src, dsts in edges.items():
        for dst in dsts:
            into.setdefault(dst, []).append(src)
    out = {src: len(dsts) for src, dsts in edges.items()}
    sinks = [c for c in groups if c not in out]
    while sinks:
        for src in into.get(sinks.pop(), ()):
            out[src] -= 1
            if not out[src]:
                sinks.append(src)
    cyc = frozenset(t for t in terms if isinstance(t, Var) and out.get(rep[t]))

    forks = []
    for cls in classes:  # in the order of their representatives
        representative = min(cls)
        sources = pre.get(rep[representative], ())
        if len(sources) >= 2:
            forks.append(Fork(tuple(sorted(sources)), representative, cls))
    return RewritingConditions(classes, cyc, tuple(forks))


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
    """Universal annotated model of the ontology, read off one saturation.

    The saturation covers the normalized ontology plus, per role S, a
    probe edge between fresh individuals annotated with a fresh marker
    ``w_S``. S's *type* is the atomic memberships of its probe target,
    each noting whether its monomial mentions ``w_S``. Each element is
    unfolded once: for every normalized ``A <= some(S) @ m`` and every
    membership ``(A, n)`` of the element (Top at 1 included), it gets an
    edge to the anonymous element ``(S, m*n)`` annotated ``m*n*y`` in
    every role T with an entailed ``S <= T @ y``. A new element gets S's
    type: a marked ``(B, m')`` becomes ``(B, m*n*m')`` without the
    marker; an unmarked one holds of every element and stays as it is.
    The unfolding reads ``sat.facts`` and works on masks, so a product is
    ``|`` and dropping the marker ``& ~bit``; a mask becomes a
    ``Monomial`` once, through the run's ``table``, when it enters the
    model. ``limits`` applies to the saturation as in ``saturate``; it also caps
    the model's tuples, and its time budget, counted from this call, is
    checked once per element. Either raises ``ResourceCapExceeded``.
    """
    limits = limits or Limits()
    deadline = time.monotonic() + limits.max_seconds if limits.max_seconds else None
    base = normalize(ontology)
    fresh = FreshNames(base.all_names())
    probes: list[AnnotatedAxiom] = []
    markers: dict[str, tuple[str, Variable]] = {}  # probe target -> (role, marker)
    for role in base.role_names:
        a, b = fresh.individual(), fresh.individual()
        w = fresh.variable()
        probes.append(AnnotatedAxiom(RA(role, a, b), Monomial((w,))))
        markers[b] = (role, w)
    sat = saturate(base.extended(probes), limits=limits)
    table = sat.table
    monomial = table.monomial

    concept_ext: dict[str, set] = {}
    role_ext: dict[str, set] = {}
    size = 0

    def add(ext: dict[str, set], name: str, fact: tuple) -> None:
        nonlocal size
        bucket = ext.setdefault(name, set())
        if fact not in bucket:
            bucket.add(fact)
            size += 1
            if size > limits.max_axioms:
                raise ResourceCapExceeded(
                    f"canonical model exceeded the cap of {limits.max_axioms} tuples"
                )

    # atomic memberships (name, mask) per element; the keys are the domain
    members: dict[DomainElement, list] = {Named(i): [] for i in base.individuals}
    types: dict[str, list] = {role: [] for role in base.role_names}  # (name, mask, marked)
    sups: dict[str, list] = {}  # role -> entailed (super-role, mask), itself included
    for fact, masks in sat.facts.items():
        for m in masks:
            if fact[0] == "ri":
                sups.setdefault(fact[2], []).append((fact[3], m))
            elif fact[0] == "ra":
                if Named(fact[3]) in members:  # a probe edge joins fresh individuals only
                    add(role_ext, fact[2], (Named(fact[3]), Named(fact[4]), monomial(m)))
            elif fact[0] == "ca" and fact[2] is not None:
                name, x = fact[2], Named(fact[3])
                if x in members:
                    members[x].append((name, m))
                    add(concept_ext, name, (x, monomial(m)))
                elif fact[3] in markers:
                    role, w = markers[fact[3]]
                    w = table.bits[w]
                    types[role].append((name, m & ~w, m & w))
    existentials: dict[str | None, list] = {}  # lhs name, None for Top -> (role, mask)
    for ann in base.axioms:
        ax = ann.axiom
        if isinstance(ax, GCI) and isinstance(ax.rhs, Exists):
            lhs = ax.lhs.name if isinstance(ax.lhs, Atomic) else None
            existentials.setdefault(lhs, []).append((ax.rhs.role, table.mask(ann.annotation)))

    # the model is a set of facts, so the order of the worklist reaches no output
    work = list(members)
    while work:
        x = work.pop()
        if deadline is not None and time.monotonic() > deadline:
            raise ResourceCapExceeded("canonical model wall-clock budget exceeded")
        for name, n in [(None, 0), *members[x]]:
            for role, m in existentials.get(name, ()):
                mn = m | n
                e = AuxElement(role, monomial(mn))
                for sup, y in sups[role]:
                    add(role_ext, sup, (x, e, monomial(mn | y)))
                if e not in members:
                    members[e] = [(b, mn | mb if marked else mb) for b, mb, marked in types[role]]
                    for b, mb in members[e]:
                        add(concept_ext, b, (e, monomial(mb)))
                    work.append(e)

    return AnnotatedInterpretation(members, concept_ext, role_ext, base.individuals)


@dataclass(frozen=True)
class QueryAnswer:
    """Whether the annotated query is entailed, with the evidence behind it."""

    entailed: bool
    matches: int  # how many matches: the sum of the provenance's coefficients
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
    provenance = provenance_of_matches(interp, query, conditions, limits)
    foreign = not prov.variables() <= set(ontology.variables)
    entailed = bool(provenance) and not foreign and prov.contained_in(provenance)
    return QueryAnswer(entailed, sum(k for _, k in provenance.terms()), provenance)
