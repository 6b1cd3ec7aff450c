"""Cross-check routes to what the library decides another way.

Assertion entailment is decided directly by saturation; these encodings
decide the same questions through the GCI and role-inclusion probes
instead, so the two routes can be compared (acceptance criterion 10).
``entailed_range_restrictions`` computes a normal-form ontology's
entailed range restrictions on their own, with a saturation of their
own, so a model can be checked against them. ``fixpoint_canonical_model``
builds the canonical model by another route: the inclusions and range
restrictions run as model-building rules to a fixpoint, so the library's
one-pass unfolding can be compared with it. ``scan_matches`` enumerates
query matches by scanning each atom's whole extension for every partial
binding and checking forks on complete matches only, so the library's
indexed join can be compared with it. ``pairwise_rewriting`` computes a
query's rewriting conditions by comparing every pair of role atoms until
nothing changes, so the library's worklist can be compared with it.
``check_lhs_grammar``, ``concept_names``, ``role_names`` and
``mentions_top`` are the four recursive walks over a concept that
``ontology._walk`` replaced, so the one iterative walk can be compared
with them. ``entails_without_rules`` decides an entailment with some
joining rules left out, so a test can show that it needs them.
``entails_by_k_saturation`` decides an entailment from the k-saturation
of the whole probed ontology, k the queried degree, so the library's run
over the axioms whose annotation divides the monomial can be compared
with it. They serve the tests only.
"""

from __future__ import annotations

import time
from typing import Iterable, Iterator

from elprov.canonical import Fork, RewritingConditions
from elprov.completion import (
    RULE_NAMES,
    Limits,
    ResourceCapExceeded,
    _assertion_signature_gap,
    _fact,
    _Saturator,
    _SetStore,
    entails,
    probe,
    saturate,
)
from elprov.interpretation import (
    BCQ,
    AnnotatedInterpretation,
    AuxElement,
    ConceptAtom,
    DomainElement,
    Ind,
    Match,
    Named,
    Term,
    UnknownIndividualError,
    Var,
    element_key,
    evaluate_concept,
    term_key,
)
from elprov.ontology import (
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
    Ran,
    TOP,
    Top,
    normalize,
)
from elprov.provenance import ONE, Monomial, Variable


def reduce_ca_to_gci(
    ontology: AnnotatedOntology, ind: str
) -> tuple[AnnotatedOntology, str]:
    """Encode the assertional part as inclusions over per-individual concepts.

    Returns the encoding ontology together with the concept name standing
    for ``ind``: a concept assertion B(ind) is entailed with monomial m
    iff the encoding entails C_ind <= B or Top <= B with m.
    """
    if not ontology.is_normal_form():
        raise ValueError("reduction requires a normal-form ontology")

    def c_of(a: str) -> str:
        return f"__c_{a}"

    def cran_of(r: str) -> str:
        return f"__cran_{r}"

    out: list[AnnotatedAxiom] = []
    for ann in ontology.axioms:
        ax = ann.axiom
        if isinstance(ax, CA):
            if isinstance(ax.concept, Atomic):
                out.append(AnnotatedAxiom(GCI(Atomic(c_of(ax.ind)), ax.concept), ann.annotation))
        elif isinstance(ax, RA):
            r_ab = f"__r_{ax.a}_{ax.b}"
            out.append(AnnotatedAxiom(GCI(Atomic(c_of(ax.a)), Exists(r_ab)), ONE))
            out.append(AnnotatedAxiom(RI(r_ab, ax.role), ann.annotation))
            out.append(AnnotatedAxiom(RR(r_ab, c_of(ax.b)), ONE))
            out.append(
                AnnotatedAxiom(GCI(Atomic(c_of(ax.b)), Atomic(cran_of(ax.role))), ann.annotation)
            )
        else:
            out.append(ann)
            if isinstance(ax, RI):
                out.append(
                    AnnotatedAxiom(
                        GCI(Atomic(cran_of(ax.sub)), Atomic(cran_of(ax.sup))), ann.annotation
                    )
                )
            elif isinstance(ax, RR):
                out.append(
                    AnnotatedAxiom(GCI(Atomic(cran_of(ax.role)), Atomic(ax.filler)), ann.annotation)
                )
    return AnnotatedOntology(out), c_of(ind)


def entails_ca_via_gci(
    ontology: AnnotatedOntology,
    concept_name: str,
    ind: str,
    mon: Monomial,
    limits: Limits | None = None,
) -> bool:
    """Cross-check route for entails_assertion on concept assertions."""
    encoding, c_ind = reduce_ca_to_gci(ontology, ind)
    target = Atomic(concept_name)
    return entails(encoding, GCI(Atomic(c_ind), target), mon, limits) or entails(
        encoding, GCI(TOP, target), mon, limits
    )


def reduce_ra_to_ri(
    ontology: AnnotatedOntology, a: str, b: str
) -> tuple[AnnotatedOntology, str]:
    """Encode the role assertions on (a, b) as inclusions of a fresh role."""
    s = "__s_probe"
    out: list[AnnotatedAxiom] = []
    for ann in ontology.axioms:
        ax = ann.axiom
        if isinstance(ax, RA) and ax.a == a and ax.b == b:
            out.append(AnnotatedAxiom(RI(s, ax.role), ann.annotation))
        elif isinstance(ax, RI):
            out.append(ann)
    return AnnotatedOntology(out), s


def entails_ra_via_ri(
    ontology: AnnotatedOntology,
    role: str,
    a: str,
    b: str,
    mon: Monomial,
    limits: Limits | None = None,
) -> bool:
    """Cross-check route for entails_assertion on role assertions."""
    encoding, s = reduce_ra_to_ri(ontology, a, b)
    if s not in encoding.role_names or role not in encoding.role_names:
        # no edge on (a, b) at all, or the queried role occurs in no
        # inclusion: nothing can derive it
        return False
    return entails(encoding, RI(s, role), mon, limits)


# the rules that merge two memberships of one element (TBox, range and
# assertion variants)
CONJUNCTION_RULES = ("conjunction-subsumption", "range-conjunction", "instance-conjunction")


def entails_without_rules(
    ontology: AnnotatedOntology, target, mon: Monomial, rules: Iterable[str]
) -> bool:
    """Membership of ``target`` at ``mon`` in a saturation without ``rules``.

    Probes and normalizes as ``entails`` does, then runs the engine with
    the join plans of the joining rules named in ``rules`` left out
    (``_Saturator.plans`` is the seam), k-bounded by the queried degree,
    and reports whether the probed assertion holds with the probe's
    markers. Shows which rules an entailment needs.
    """
    off = {RULE_NAMES.index(rule) for rule in rules}
    extended, assertion, markers, _ = probe(ontology, target)
    mon = mon * markers
    store = _SetStore(mon.degree)
    sat = _Saturator(normalize(extended), store, None, False)
    sat.plans = {shape: [p for p in plans if p.rule not in off] for shape, plans in sat.plans.items()}
    sat.run()
    return sat.table.mask(mon) in store.by_fact.get(_fact(assertion), ())


def entails_by_k_saturation(
    ontology: AnnotatedOntology, target, mon: Monomial, limits: Limits | None = None
) -> bool:
    """``entails`` decided by membership in the k-saturation, k = the degree.

    Probes as ``entails`` does, saturates the whole normalized extension
    with k the number of variables of the queried monomial times the
    probe's markers, and tests membership of the probed assertion. An
    assertion over unknown names is not entailed (without a warning), nor
    is a monomial with a variable foreign to the ontology.
    """
    extended, assertion, markers, _ = probe(ontology, target)
    if _assertion_signature_gap(extended, assertion):
        return False
    probed = mon * markers
    sat = saturate(normalize(extended), k=probed.degree, limits=limits)
    return sat.contains(assertion, probed) and set(mon.vars) <= set(ontology.variables)


def entailed_range_restrictions(
    ontology: AnnotatedOntology, limits: Limits | None = None
) -> list[AnnotatedAxiom]:
    """All entailed annotated range restrictions of a normal-form ontology.

    One probe edge per role, each carrying its own marker variable, is
    added and the combined ontology saturated once; the marker keeps the
    per-role consequences apart and filters derivations that do not use
    the probe edge.
    """
    fresh = FreshNames(ontology.all_names())
    probes: list[AnnotatedAxiom] = []
    probe_info: list[tuple[str, str, Variable]] = []
    for role in ontology.role_names:
        a, b = fresh.individual(), fresh.individual()
        w = fresh.variable()
        probes.append(AnnotatedAxiom(RA(role, a, b), Monomial((w,))))
        probe_info.append((role, b, w))
    if not probes:
        return []
    sat = saturate(ontology.extended(probes), limits=limits)
    out: list[AnnotatedAxiom] = []
    for role, b, w in probe_info:
        for ann in sat.axioms:
            ax = ann.axiom
            if (
                isinstance(ax, CA)
                and ax.ind == b
                and isinstance(ax.concept, Atomic)
                and not ax.concept.name.startswith("__")
                and ann.annotation.mentions(w)
            ):
                stripped = Monomial(tuple(v for v in ann.annotation.vars if v != w))
                out.append(AnnotatedAxiom(RR(role, ax.concept.name), stripped))
    return out


def fixpoint_canonical_model(
    ontology: AnnotatedOntology, limits: Limits | None = None
) -> AnnotatedInterpretation:
    """Universal annotated model of the ontology.

    The ontology is normalized and saturated once, together with one probe
    edge per role between fresh individuals, each edge annotated with its
    own fresh marker variable. That one saturation seeds the model: its
    assertions on the ontology's individuals form the named part, and a
    membership of a probe edge's target whose monomial mentions the marker
    is an entailed range restriction of the role (the marker stripped).
    The normalized inclusions and range restrictions, those entailed ones
    included, then run as model-building rules until none adds a pair,
    materializing anonymous elements on demand. ``limits`` applies to the
    saturation as in ``saturate``; it also caps the number of model tuples,
    and its time budget, counted from this call, is checked before every
    model rule application. Exceeding either raises ``ResourceCapExceeded``.
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

    concept_ext: dict[str, set] = {}
    role_ext: dict[str, set] = {}
    domain: dict[DomainElement, None] = {Named(i): None for i in base.individuals}
    size = 0

    def add(ext: dict[str, set], name: str, fact: tuple) -> bool:
        nonlocal size
        bucket = ext.setdefault(name, set())
        if fact in bucket:
            return False
        bucket.add(fact)
        domain.setdefault(fact[-2], None)  # an edge's target; a member is in already
        size += 1
        if size > limits.max_axioms:
            raise ResourceCapExceeded(
                f"canonical model exceeded the cap of {limits.max_axioms} tuples"
            )
        return True

    rules = [ann for ann in base.axioms if isinstance(ann.axiom, (GCI, RI, RR))]
    individuals = set(base.individuals)
    for ann in sat.assertions():
        ax, m = ann.axiom, ann.annotation
        if isinstance(ax, RA):
            if ax.a in individuals:  # a probe edge joins fresh individuals only
                add(role_ext, ax.role, (Named(ax.a), Named(ax.b), m))
        elif isinstance(ax.concept, Atomic):
            name = ax.concept.name
            if ax.ind in individuals:
                add(concept_ext, name, (Named(ax.ind), m))
            elif ax.ind in markers and not name.startswith("__"):
                role, w = markers[ax.ind]
                if m.mentions(w):
                    stripped = Monomial(tuple(v for v in m.vars if v != w))
                    rules.append(AnnotatedAxiom(RR(role, name), stripped))

    changed = True
    while changed:
        changed = False
        for ann in rules:
            if deadline is not None and time.monotonic() > deadline:
                raise ResourceCapExceeded("canonical model wall-clock budget exceeded")
            ax, m = ann.axiom, ann.annotation
            if isinstance(ax, RI):
                # snapshot: ri R <= R writes the extension it reads
                for d, e, n in tuple(role_ext.get(ax.sub, ())):
                    changed |= add(role_ext, ax.sup, (d, e, m * n))
                continue
            lhs = Ran(ax.role) if isinstance(ax, RR) else ax.lhs
            for d, n in evaluate_concept(lhs, domain, concept_ext, role_ext):
                mn = m * n
                if isinstance(ax, RR):
                    changed |= add(concept_ext, ax.filler, (d, mn))
                elif isinstance(ax.rhs, Atomic):
                    changed |= add(concept_ext, ax.rhs.name, (d, mn))
                else:
                    role = ax.rhs.role
                    changed |= add(role_ext, role, (d, AuxElement(role, mn), mn))

    return AnnotatedInterpretation(
        domain=domain,
        concept_ext=concept_ext,
        role_ext=role_ext,
        individuals=base.individuals,
    )


def _binding_sort_key(pairs: dict):
    out = []
    for t in sorted(pairs, key=term_key):
        v = pairs[t]
        out.append((term_key(t), element_key(v) if isinstance(v, (Named, AuxElement)) else (2, v)))
    return out


def scan_matches(
    interp: AnnotatedInterpretation,
    query: BCQ,
    conditions: "RewritingConditions | None" = None,
) -> tuple[Match, ...]:
    """All matches of the query, in a deterministic order.

    With ``conditions``, cycle variables may only be matched by named
    individuals and anonymous fork representatives force their
    predecessors to coincide.
    """
    for name in query.individuals():
        if name not in interp.individuals:
            raise UnknownIndividualError(f"individual {name!r} does not occur in the ontology")

    cyc = conditions.cyc if conditions is not None else frozenset()
    forks = conditions.forks if conditions is not None else ()

    def candidates(atom) -> frozenset:
        if isinstance(atom, ConceptAtom):
            return interp.concept_pairs(atom.concept)
        return interp.role_triples(atom.role)

    # the matches are sorted at the end, so candidate order reaches no output
    ordered = sorted(query.atoms, key=lambda a: (len(candidates(a)), str(a)))
    cands = [candidates(a) for a in ordered]
    binding: dict[Term, object] = {
        Ind(name): interp.individuals[name] for name in query.individuals()
    }

    def admissible(t: Term, value) -> bool:
        bound = binding.get(t)
        if bound is not None:
            return bound == value
        if isinstance(t, Var) and t in cyc and isinstance(value, AuxElement):
            return False
        return True

    results: dict[tuple, Match] = {}

    def fork_ok() -> bool:
        for fork in forks:
            rep = binding[fork.representative]
            if isinstance(rep, AuxElement):
                values = [binding[t] for t in fork.pre]
                if any(v != values[0] for v in values[1:]):
                    return False
        return True

    def extend(i: int) -> None:
        if i == len(ordered):
            if not fork_ok():
                return
            key = tuple(_binding_sort_key(binding))
            if key in results:
                raise RuntimeError(f"duplicate match enumerated: {key}")
            items = tuple(sorted(binding.items(), key=lambda kv: term_key(kv[0])))
            results[key] = Match(items)
            return
        atom = ordered[i]
        for row in cands[i]:
            if isinstance(atom, ConceptAtom):
                pairs = ((atom.arg, row[0]), (atom.prov, row[1]))
            else:
                pairs = ((atom.arg1, row[0]), (atom.arg2, row[1]), (atom.prov, row[2]))
            new: dict[Term, object] = {}
            ok = True
            for t, v in pairs:
                if t in new:
                    ok = new[t] == v
                else:
                    ok = admissible(t, v)
                    if t not in binding:
                        new[t] = v
                if not ok:
                    break
            if not ok:
                continue
            binding.update(new)
            extend(i + 1)
            for t in new:
                del binding[t]

    extend(0)
    return tuple(results[k] for k in sorted(results))


def pairwise_rewriting(query: BCQ) -> RewritingConditions:
    """``compute_rewriting`` by fixpoint loops over pairs of role atoms.

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

    role_atoms = query.role_atoms()
    changed = True
    while changed:
        changed = False
        for a1 in role_atoms:
            for a2 in role_atoms:
                if find(a1.arg2) == find(a2.arg2) and find(a1.arg1) != find(a2.arg1):
                    parent[find(a1.arg1)] = find(a2.arg1)
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

    return RewritingConditions(classes, cyc, tuple(forks))


def check_lhs_grammar(c: Concept) -> bool:
    if isinstance(c, (Atomic, Top)):
        return True
    if isinstance(c, Conj):
        return check_lhs_grammar(c.left) and check_lhs_grammar(c.right)
    if isinstance(c, ExistsQ):
        return check_lhs_grammar(c.filler)
    return False


def concept_names(c: Concept) -> Iterator[str]:
    if isinstance(c, Atomic):
        yield c.name
    elif isinstance(c, Conj):
        yield from concept_names(c.left)
        yield from concept_names(c.right)
    elif isinstance(c, ExistsQ):
        yield from concept_names(c.filler)


def role_names(c: Concept) -> Iterator[str]:
    if isinstance(c, (Exists, Ran)):
        yield c.role
    elif isinstance(c, ExistsQ):
        yield c.role
        yield from role_names(c.filler)
    elif isinstance(c, Conj):
        yield from role_names(c.left)
        yield from role_names(c.right)


def mentions_top(c: Concept) -> bool:
    if isinstance(c, Top):
        return True
    if isinstance(c, Conj):
        return mentions_top(c.left) or mentions_top(c.right)
    if isinstance(c, ExistsQ):
        return mentions_top(c.filler)
    return False
