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
with it. ``parse_ontology_by_kinds``, ``parse_axiom_by_kinds`` and
``parse_iq_target_by_kinds`` parse on (kind, value, column) tokens, as
the library did before it read a token's kind off the token itself, so
the string-token parser can be compared with them.
``parse_ontology_recursive``, ``parse_axiom_recursive`` and
``parse_iq_target_recursive`` are the recursive-descent parser that the
one-loop concept parser replaced. ``normalize_dataclasses`` is
``normalize`` as it was on the frozen-dataclass syntax (``Dataclass*``)
that tagged tuples replaced; ``to_dataclass`` and ``from_dataclass``
convert between the two, so both can be compared axiom by axiom.
``is_normal_form`` tells whether every GCI of an ontology is in normal
form, as ``AnnotatedOntology.is_normal_form`` did before ``normalize``
sorted its input itself. ``parse_query_by_kinds``,
``parse_monomial_by_kinds`` and ``parse_polynomial_by_kinds`` are the
query and provenance parsers as they were before the three grammars
shared ``elprov.syntax.Scanner``, so the new parsers can be compared with
them. ``dataclass_monomial_key`` and ``dataclass_element_key`` order monomials
and domain elements by the generated dataclass comparisons the library
sorted by before it compared tuples of variable names, so the name
tuples can be compared with them. They serve the tests only.
"""

from __future__ import annotations

import re
import time
from collections import deque
from dataclasses import dataclass, fields
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
    Atom,
    AnnotatedInterpretation,
    AuxElement,
    ConceptAtom,
    DomainElement,
    Ind,
    Match,
    Named,
    NonStandardQueryError,
    QueryError,
    RoleAtom,
    Term,
    UnknownIndividualError,
    Var,
    evaluate_concept,
    term_key,
)
from elprov.ontology import (
    _CONCEPT_KEYWORDS,
    _NOT_NAMES,
    CA,
    GCI,
    MAX_CONCEPT_DEPTH,
    RA,
    RESERVED_PREFIX,
    RI,
    RR,
    TOP,
    AnnotatedAxiom,
    AnnotatedOntology,
    Atomic,
    Axiom,
    Concept,
    Conj,
    Exists,
    ExistsQ,
    FreshNames,
    NamespaceError,
    ParseError,
    Ran,
    Top,
    _is_normal_gci,
    _walk,
    normalize,
)
from elprov.provenance import ONE, ZERO, Monomial, Polynomial, Variable
from elprov.syntax import LINE_BREAK as _LINE_BREAK, ONTOLOGY_TOKENS as _TOKEN


def is_normal_form(ontology: AnnotatedOntology) -> bool:
    """Whether every GCI of the ontology is in normal form."""
    gcis = (a.axiom for a in ontology if isinstance(a.axiom, GCI))
    return all(_is_normal_gci(ax.lhs, ax.rhs) for ax in gcis)


def reduce_ca_to_gci(
    ontology: AnnotatedOntology, ind: str
) -> tuple[AnnotatedOntology, str]:
    """Encode the assertional part as inclusions over per-individual concepts.

    Returns the encoding ontology together with the concept name standing
    for ``ind``: a concept assertion B(ind) is entailed with monomial m
    iff the encoding entails C_ind <= B or Top <= B with m.
    """
    if not is_normal_form(ontology):
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
    for ann in sat.axioms:
        ax, m = ann.axiom, ann.annotation
        if isinstance(ax, RA):
            if ax.a in individuals:  # a probe edge joins fresh individuals only
                add(role_ext, ax.role, (Named(ax.a), Named(ax.b), m))
        elif isinstance(ax, CA) and isinstance(ax.concept, Atomic):
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


@dataclass(frozen=True, order=True)
class _DataclassVariable:
    name: str


@dataclass(frozen=True, order=True)
class _DataclassMonomial:
    vars: tuple[_DataclassVariable, ...]


def dataclass_monomial_key(mon: Monomial) -> _DataclassMonomial:
    """``mon`` under the order of ``@dataclass(order=True)`` monomials of variables."""
    return _DataclassMonomial(tuple(_DataclassVariable(v.name) for v in mon.vars))


def dataclass_element_key(e: DomainElement):
    if isinstance(e, Named):
        return (0, e.name)
    return (1, e.role, dataclass_monomial_key(e.monomial))


def _binding_sort_key(pairs: dict):
    out = []
    for t in sorted(pairs, key=term_key):
        v = pairs[t]
        key = (2, dataclass_monomial_key(v)) if isinstance(v, Monomial) else dataclass_element_key(v)
        out.append((term_key(t), key))
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


# --- the parser on (kind, value, column) tokens -------------------------------
#
# ``_KindLineParser`` and ``_parse_axiom_by_kinds`` are the parser as it
# was before it read token kinds off plain string tokens, with the three
# entry points built on them; a differential test compares the recursive
# parser below with them.

_LINE_TOKEN = re.compile(r"[ \t]*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<one>1)|(?P<le><=)|(?P<punct>[(),@*]))")

class _KindLineParser:
    def __init__(self, line: str, lineno: int):
        self.line = line
        self.lineno = lineno
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(line):
            m = _LINE_TOKEN.match(line, pos)
            if not m:
                rest = line[pos:].strip()
                if not rest:
                    break
                col = pos + len(line[pos:]) - len(line[pos:].lstrip()) + 1
                raise ParseError(f"unexpected character {rest[0]!r}", lineno, col)
            kind = m.lastgroup
            self.tokens.append((kind, m.group(kind), m.start(kind) + 1))
            pos = m.end()
        self.i = 0

    def error(self, message: str) -> ParseError:
        col = self.tokens[self.i][2] if self.i < len(self.tokens) else len(self.line) + 1
        return ParseError(message, self.lineno, col)

    def peek(self) -> tuple[str, str] | None:
        if self.i < len(self.tokens):
            kind, value, _ = self.tokens[self.i]
            return kind, value
        return None

    def take(self, kind: str, value: str | None = None) -> str:
        tok = self.peek()
        if tok is None or tok[0] != kind or (value is not None and tok[1] != value):
            want = value or kind
            got = tok[1] if tok else "end of line"
            raise self.error(f"expected {want!r}, got {got!r}")
        self.i += 1
        return tok[1]

    def name(self, what: str, allow_keywords: bool = True) -> str:
        tok = self.peek()
        if tok is None or tok[0] != "name":
            got = tok[1] if tok else "end of line"
            raise self.error(f"expected {what}, got {got!r}")
        if not allow_keywords and tok[1] in _CONCEPT_KEYWORDS:
            raise self.error(f"expected {what}, got keyword {tok[1]!r}")
        if tok[1].startswith(RESERVED_PREFIX):
            raise self.error(f"names starting with {RESERVED_PREFIX!r} are reserved: {tok[1]!r}")
        self.i += 1
        return tok[1]

    def concept(self, depth: int = 0) -> Concept:
        tok = self.peek()
        if tok is None:
            raise self.error("expected a concept")
        kind, value = tok
        if kind != "name":
            raise self.error(f"expected a concept, got {value!r}")
        if value == "Top":
            self.i += 1
            return TOP
        if depth == MAX_CONCEPT_DEPTH and value in ("and", "some"):
            raise self.error(f"concept nesting deeper than {MAX_CONCEPT_DEPTH} levels")
        if value == "and":
            self.i += 1
            self.take("punct", "(")
            left = self.concept(depth + 1)
            self.take("punct", ",")
            right = self.concept(depth + 1)
            self.take("punct", ")")
            return Conj(left, right)
        if value == "some":
            self.i += 1
            self.take("punct", "(")
            role = self.name("a role name", allow_keywords=False)
            nxt = self.peek()
            if nxt == ("punct", ","):
                self.i += 1
                filler = self.concept(depth + 1)
                self.take("punct", ")")
                return ExistsQ(role, filler)
            self.take("punct", ")")
            return Exists(role)
        if value == "ran":
            raise self.error("'ran' is only allowed in 'rr' lines")
        return Atomic(self.name("a concept name"))

    def annotation(self) -> Monomial:
        self.take("punct", "@")
        tok = self.peek()
        if tok == ("one", "1"):
            self.i += 1
            mon = ONE
        elif tok is not None and tok[0] == "name":
            mon = Monomial((Variable(self.name("a provenance variable", allow_keywords=False)),))
        else:
            got = tok[1] if tok else "end of line"
            raise self.error(
                f"annotation must be a single variable or 1, got {got!r}"
            )
        if self.i != len(self.tokens):
            raise self.error("annotation must be a single variable or 1")
        return mon

    def finish_without_annotation(self) -> None:
        if self.i != len(self.tokens):
            raise self.error("trailing input after axiom")


def _parse_axiom_by_kinds(p: _KindLineParser) -> Axiom:
    """Check the axiom keyword and parse the axiom it starts."""
    tok = p.peek()
    if tok is None or tok[0] != "name" or tok[1] not in ("gci", "ri", "rr", "ca", "ra"):
        got = tok[1] if tok else "end of input"
        raise p.error(f"expected one of gci/ri/rr/ca/ra, got {got!r}")
    p.i += 1
    keyword = tok[1]
    if keyword == "gci":
        lhs = p.concept()
        p.take("le")
        rhs = p.concept()
        if not _walk(lhs)[3]:
            raise p.error(f"left-hand side violates the concept grammar: {lhs}")
        if not isinstance(rhs, (Atomic, Exists)):
            raise p.error(f"right-hand side must be a concept name or some(R): {rhs}")
        return GCI(lhs, rhs)
    if keyword == "ri":
        sub = p.name("a role name", allow_keywords=False)
        p.take("le")
        sup = p.name("a role name", allow_keywords=False)
        return RI(sub, sup)
    if keyword == "rr":
        p.take("name", "ran")
        p.take("punct", "(")
        role = p.name("a role name", allow_keywords=False)
        p.take("punct", ")")
        p.take("le")
        filler = p.name("a concept name", allow_keywords=False)
        return RR(role, filler)
    if keyword == "ca":
        tok = p.peek()
        if tok == ("name", "Top"):
            p.i += 1
            concept: Concept = TOP
        else:
            concept = Atomic(p.name("a concept name", allow_keywords=False))
        p.take("punct", "(")
        ind = p.name("an individual name", allow_keywords=False)
        p.take("punct", ")")
        return CA(concept, ind)
    role = p.name("a role name", allow_keywords=False)
    p.take("punct", "(")
    a = p.name("an individual name", allow_keywords=False)
    p.take("punct", ",")
    b = p.name("an individual name", allow_keywords=False)
    p.take("punct", ")")
    return RA(role, a, b)


def parse_ontology_by_kinds(text: str) -> AnnotatedOntology:
    """Parse an ontology file; raises ParseError with line:column info.

    A namespace clash is reported at the first token of the line whose
    axiom completes it.
    """
    axioms: list[AnnotatedAxiom] = []
    places: list[tuple[int, int]] = []  # per axiom: its line, its first token's column
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        p = _KindLineParser(line, lineno)
        axioms.append(AnnotatedAxiom(_parse_axiom_by_kinds(p), p.annotation()))
        places.append((lineno, p.tokens[0][2]))
    try:
        return AnnotatedOntology(axioms)
    except NamespaceError as exc:
        # validation sees a repeated axiom at its first occurrence
        raise ParseError(str(exc), *places[axioms.index(exc.axiom)]) from exc


def parse_axiom_by_kinds(text: str) -> Axiom:
    """Parse a single un-annotated axiom, e.g. for CLI --axiom arguments."""
    p = _KindLineParser(text.strip(), 1)
    axiom = _parse_axiom_by_kinds(p)
    p.finish_without_annotation()
    return axiom


def parse_iq_target_by_kinds(text: str) -> tuple[Concept, str]:
    """Parse an instance-query target of the form ``iq CONCEPT(IND)``."""
    p = _KindLineParser(text.strip(), 1)
    p.take("name", "iq")
    concept = p.concept()
    p.take("punct", "(")
    ind = p.name("an individual name", allow_keywords=False)
    p.take("punct", ")")
    p.finish_without_annotation()
    return concept, ind


# --- the recursive-descent parser on string tokens ---------------------------
#
# ``_RecursiveLineParser`` and ``_parse_axiom_recursive`` are the parser as it
# was before it read a concept in one loop over the tokens and checked the
# left-hand side grammar while building it, with the three entry points
# built on them; a differential test compares the library's parser with
# them, and no difference is allowed.

_COVERED = re.compile(rf"(?:[ \t]*(?:{_TOKEN.pattern}))*[ \t]*")


class _RecursiveLineParser:
    """Recursive descent over one line's tokens, plain strings whose kind is
    read off the token; columns are computed only for an error."""

    def __init__(self, line: str, lineno: int):
        self.line = line
        self.lineno = lineno
        self.tokens: list[str] = _TOKEN.findall(line)
        # the tokens, spaces and tabs have to cover the whole line
        if sum(map(len, self.tokens)) + line.count(" ") + line.count("\t") != len(line):
            col = _COVERED.match(line).end() + 1
            raise ParseError(f"unexpected character {line[col - 1]!r}", lineno, col)
        self.i = 0

    def error(self, message: str) -> ParseError:
        """An error at the current token, or just past the line's end."""
        columns = [m.start() + 1 for m in _TOKEN.finditer(self.line)] + [len(self.line) + 1]
        return ParseError(message, self.lineno, columns[self.i])

    def peek(self) -> str | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self, value: str) -> None:
        tok = self.peek()
        if tok != value:
            want = "le" if value == "<=" else value
            raise self.error(f"expected {want!r}, got {tok or 'end of line'!r}")
        self.i += 1

    def name(self, what: str) -> str:
        tok = self.peek()
        if tok is None or tok in _NOT_NAMES:
            raise self.error(f"expected {what}, got {tok or 'end of line'!r}")
        if tok in _CONCEPT_KEYWORDS:
            raise self.error(f"expected {what}, got keyword {tok!r}")
        if tok.startswith(RESERVED_PREFIX):
            raise self.error(f"names starting with {RESERVED_PREFIX!r} are reserved: {tok!r}")
        self.i += 1
        return tok

    def concept(self, depth: int = 0) -> Concept:
        tok = self.peek()
        if tok is None or tok in _NOT_NAMES:
            raise self.error(f"expected a concept, got {tok!r}" if tok else "expected a concept")
        if tok == "Top":
            self.i += 1
            return TOP
        if depth == MAX_CONCEPT_DEPTH and tok in ("and", "some"):
            raise self.error(f"concept nesting deeper than {MAX_CONCEPT_DEPTH} levels")
        if tok == "and":
            self.i += 1
            self.take("(")
            left = self.concept(depth + 1)
            self.take(",")
            right = self.concept(depth + 1)
            self.take(")")
            return Conj(left, right)
        if tok == "some":
            self.i += 1
            self.take("(")
            role = self.name("a role name")
            if self.peek() == ",":
                self.i += 1
                filler = self.concept(depth + 1)
                self.take(")")
                return ExistsQ(role, filler)
            self.take(")")
            return Exists(role)
        if tok == "ran":
            raise self.error("'ran' is only allowed in 'rr' lines")
        return Atomic(self.name("a concept name"))

    def annotation(self, interned: dict[str, Monomial]) -> Monomial:
        """The ``@`` annotation ending the line; ``interned`` maps ``1`` and
        the variable names seen so far in a file to their monomials."""
        self.take("@")
        tok = self.peek()
        if tok in interned:
            self.i += 1
            mon = interned[tok]
        elif tok is not None and tok not in _NOT_NAMES:
            mon = interned[tok] = Monomial((Variable(self.name("a provenance variable")),))
        else:
            got = tok or "end of line"
            raise self.error(f"annotation must be a single variable or 1, got {got!r}")
        self.finish("annotation must be a single variable or 1")
        return mon

    def finish(self, message: str) -> None:
        if self.i != len(self.tokens):
            raise self.error(message)


def _parse_axiom_recursive(p: _RecursiveLineParser) -> Axiom:
    """Check the axiom keyword and parse the axiom it starts."""
    keyword = p.peek()
    if keyword not in ("gci", "ri", "rr", "ca", "ra"):
        raise p.error(f"expected one of gci/ri/rr/ca/ra, got {keyword or 'end of input'!r}")
    p.i += 1
    if keyword == "gci":
        lhs = p.concept()
        p.take("<=")
        rhs = p.concept()
        if not _walk(lhs)[3]:
            raise p.error(f"left-hand side violates the concept grammar: {lhs}")
        if not isinstance(rhs, (Atomic, Exists)):
            raise p.error(f"right-hand side must be a concept name or some(R): {rhs}")
        return GCI(lhs, rhs)
    if keyword == "ri":
        sub = p.name("a role name")
        p.take("<=")
        sup = p.name("a role name")
        return RI(sub, sup)
    if keyword == "rr":
        p.take("ran")
        p.take("(")
        role = p.name("a role name")
        p.take(")")
        p.take("<=")
        filler = p.name("a concept name")
        return RR(role, filler)
    if keyword == "ca":
        if p.peek() == "Top":
            p.i += 1
            concept: Concept = TOP
        else:
            concept = Atomic(p.name("a concept name"))
        p.take("(")
        ind = p.name("an individual name")
        p.take(")")
        return CA(concept, ind)
    role = p.name("a role name")
    p.take("(")
    a = p.name("an individual name")
    p.take(",")
    b = p.name("an individual name")
    p.take(")")
    return RA(role, a, b)


def parse_ontology_recursive(text: str) -> AnnotatedOntology:
    """Parse an ontology file; raises ParseError with line:column info.

    Lines break at ``\\n``, ``\\r\\n`` and ``\\r`` only. A namespace clash is
    reported at the first token of the line whose axiom completes it.
    """
    axioms: list[AnnotatedAxiom] = []
    places: list[tuple[int, str]] = []  # per axiom: its line number and text
    interned = {"1": ONE}
    for lineno, raw in enumerate(_LINE_BREAK.split(text), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line:
            continue
        p = _RecursiveLineParser(line, lineno)
        axioms.append(AnnotatedAxiom(_parse_axiom_recursive(p), p.annotation(interned)))
        places.append((lineno, line))
    try:
        return AnnotatedOntology(axioms)
    except NamespaceError as exc:
        # validation sees a repeated axiom at its first occurrence
        lineno, line = places[axioms.index(exc.axiom)]
        raise ParseError(str(exc), lineno, len(line) - len(line.lstrip(" \t")) + 1) from exc


def parse_axiom_recursive(text: str) -> Axiom:
    """Parse a single un-annotated axiom, e.g. for CLI --axiom arguments."""
    p = _RecursiveLineParser(text.strip(), 1)
    axiom = _parse_axiom_recursive(p)
    p.finish("trailing input after axiom")
    return axiom


def parse_iq_target_recursive(text: str) -> tuple[Concept, str]:
    """Parse an instance-query target of the form ``iq CONCEPT(IND)``."""
    p = _RecursiveLineParser(text.strip(), 1)
    p.take("iq")
    concept = p.concept()
    p.take("(")
    ind = p.name("an individual name")
    p.take(")")
    p.finish("trailing input after axiom")
    return concept, ind


# --- the syntax as frozen dataclasses, and normalize on them ------------------
#
# The concept and axiom types as they were before they became tuples, and
# ``normalize`` as it was on them: one FIFO queue of annotated axioms, each
# rewrite building a new ``GCI`` and ``AnnotatedAxiom``. ``to_dataclass`` and
# ``from_dataclass`` convert between the two representations.


class DataclassConcept:
    __slots__ = ()


@dataclass(frozen=True)
class DataclassTop(DataclassConcept):
    pass


@dataclass(frozen=True)
class DataclassAtomic(DataclassConcept):
    name: str


@dataclass(frozen=True)
class DataclassConj(DataclassConcept):
    left: DataclassConcept
    right: DataclassConcept


@dataclass(frozen=True)
class DataclassExists(DataclassConcept):
    role: str


@dataclass(frozen=True)
class DataclassExistsQ(DataclassConcept):
    role: str
    filler: DataclassConcept


@dataclass(frozen=True)
class DataclassRan(DataclassConcept):
    role: str


@dataclass(frozen=True)
class DataclassGCI:
    lhs: DataclassConcept
    rhs: DataclassConcept


@dataclass(frozen=True)
class DataclassRI:
    sub: str
    sup: str


@dataclass(frozen=True)
class DataclassRR:
    role: str
    filler: str


@dataclass(frozen=True)
class DataclassCA:
    concept: DataclassConcept
    ind: str


@dataclass(frozen=True)
class DataclassRA:
    role: str
    a: str
    b: str


@dataclass(frozen=True)
class DataclassAnnotatedAxiom:
    axiom: object
    annotation: Monomial


_DATACLASS_OF = {
    Top: DataclassTop,
    Atomic: DataclassAtomic,
    Conj: DataclassConj,
    Exists: DataclassExists,
    ExistsQ: DataclassExistsQ,
    Ran: DataclassRan,
    GCI: DataclassGCI,
    RI: DataclassRI,
    RR: DataclassRR,
    CA: DataclassCA,
    RA: DataclassRA,
    AnnotatedAxiom: DataclassAnnotatedAxiom,
}
_NODE_OF = {dc: node for node, dc in _DATACLASS_OF.items()}


def to_dataclass(node):
    """A syntax node as the dataclass of the same name; fields that are not
    nodes (names, monomials) are shared."""
    cls = _DATACLASS_OF.get(type(node))
    return node if cls is None else cls(*map(to_dataclass, node[1:]))


def from_dataclass(dc):
    cls = _NODE_OF.get(type(dc))
    if cls is None:
        return dc
    return cls(*(from_dataclass(getattr(dc, f.name)) for f in fields(dc)))


def _dc_atomic_or_top(c) -> bool:
    return isinstance(c, (DataclassAtomic, DataclassTop))


def _dc_is_normal_gci(ax: DataclassGCI) -> bool:
    lhs, rhs = ax.lhs, ax.rhs
    if isinstance(rhs, DataclassAtomic):
        if _dc_atomic_or_top(lhs):
            return True
        if isinstance(lhs, DataclassConj):
            return _dc_atomic_or_top(lhs.left) and _dc_atomic_or_top(lhs.right)
        if isinstance(lhs, DataclassExistsQ):
            return _dc_atomic_or_top(lhs.filler)
        return False
    if isinstance(rhs, DataclassExists):
        return _dc_atomic_or_top(lhs)
    return False


def normalize_dataclasses(
    axioms: Iterable[DataclassAnnotatedAxiom], used: Iterable[str]
) -> tuple[DataclassAnnotatedAxiom, ...]:
    """The normalized axioms of deduplicated ``axioms`` in output order, fresh
    names avoiding ``used``; the axioms themselves when they are normal."""
    axioms = tuple(axioms)
    if all(_dc_is_normal_gci(a.axiom) for a in axioms if isinstance(a.axiom, DataclassGCI)):
        return axioms
    fresh = FreshNames(used)
    memo: dict = {}
    out: list[DataclassAnnotatedAxiom] = []
    work = deque(axioms)

    def name_for(c) -> DataclassAtomic:
        a = memo.get(c)
        if a is None:
            a = DataclassAtomic(fresh.concept())
            memo[c] = a
            work.append(DataclassAnnotatedAxiom(DataclassGCI(c, a), ONE))
        return a

    while work:
        ann = work.popleft()
        ax = ann.axiom
        if not isinstance(ax, DataclassGCI) or _dc_is_normal_gci(ax):
            out.append(ann)
            continue
        lhs = ax.lhs
        if isinstance(lhs, DataclassConj) and not _dc_atomic_or_top(lhs.right):
            lhs = DataclassConj(lhs.left, name_for(lhs.right))
        elif isinstance(lhs, DataclassConj) and not _dc_atomic_or_top(lhs.left):
            lhs = DataclassConj(name_for(lhs.left), lhs.right)
        elif isinstance(lhs, DataclassExistsQ) and not _dc_atomic_or_top(lhs.filler):
            lhs = DataclassExistsQ(lhs.role, name_for(lhs.filler))
        else:
            lhs = name_for(lhs)
        work.append(DataclassAnnotatedAxiom(DataclassGCI(lhs, ax.rhs), ann.annotation))
    return tuple(dict.fromkeys(out))


# --- the query and provenance parsers on (kind, value) tokens -----------------
#
# ``parse_query_by_kinds`` is the query parser as it was before query files
# were read by ``elprov.syntax.Scanner``: one regex loop over the lines
# joined by ``\n``, a hand-indexed loop over the tokens and ``QueryError``
# without a position. ``parse_monomial_by_kinds`` and
# ``parse_polynomial_by_kinds`` are the provenance parsers as they were,
# with any Unicode whitespace as a blank and a token list sliced after
# every token read. A differential test compares the library's parsers
# with them.

_QTOKEN = re.compile(r"[ \t\n]*(?:(?P<var>\?[A-Za-z_][A-Za-z0-9_]*)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<punct>[(),&]))")


def parse_query_by_kinds(text: str) -> BCQ:
    text = "\n".join(line.split("#", 1)[0] for line in _LINE_BREAK.split(text))
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _QTOKEN.match(text, pos)
        if not m:
            rest = text[pos:].lstrip(" \t\n")
            if not rest:
                break
            raise QueryError(f"unexpected character {rest[0]!r} in query")
        tokens.append((m.lastgroup, m.group(m.lastgroup)))
        pos = m.end()

    def term(tok: tuple[str, str]) -> Term:
        kind, value = tok
        if kind == "var":
            return Var(value[1:])
        if kind == "name":
            return Ind(value)
        raise QueryError(f"expected a term, got {value!r}")

    atoms: list[Atom] = []
    i = 0
    while i < len(tokens):
        kind, pred = tokens[i]
        if kind != "name":
            raise QueryError(f"expected a predicate name, got {pred!r}")
        if i + 1 >= len(tokens) or tokens[i + 1] != ("punct", "("):
            raise QueryError(f"expected '(' after predicate {pred!r}")
        args: list[Term] = []
        i += 2
        while True:
            if i >= len(tokens):
                raise QueryError("unterminated atom")
            args.append(term(tokens[i]))
            i += 1
            if i >= len(tokens):
                raise QueryError("unterminated atom")
            if tokens[i] == ("punct", ","):
                i += 1
                continue
            if tokens[i] == ("punct", ")"):
                i += 1
                break
            raise QueryError(f"expected ',' or ')', got {tokens[i][1]!r}")
        if len(args) == 2:
            if not isinstance(args[1], Var):
                raise NonStandardQueryError("the last atom argument must be a ?-variable")
            atoms.append(ConceptAtom(pred, args[0], args[1]))
        elif len(args) == 3:
            if not isinstance(args[2], Var):
                raise NonStandardQueryError("the last atom argument must be a ?-variable")
            atoms.append(RoleAtom(pred, args[0], args[1], args[2]))
        else:
            raise QueryError(f"atoms take 2 or 3 arguments, got {len(args)}")
        if i < len(tokens):
            if tokens[i] != ("punct", "&"):
                raise QueryError(f"expected '&' between atoms, got {tokens[i][1]!r}")
            i += 1
    return BCQ(atoms)


_PROV_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>[0-9]+)|(?P<op>[*+]))")


def _prov_tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _PROV_TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"unexpected character {text[pos:].strip()[0]!r} in {text!r}")
            break
        pos = m.end()
        kind = m.lastgroup
        tokens.append((kind, m.group(kind)))
    return tokens


def parse_monomial_by_kinds(text: str) -> Monomial:
    tokens = _prov_tokenize(text)
    mon, rest = _monomial_by_kinds(tokens)
    if rest:
        raise ValueError(f"trailing input after monomial in {text!r}")
    return mon


def _monomial_by_kinds(tokens: list[tuple[str, str]]) -> tuple[Monomial, list[tuple[str, str]]]:
    if not tokens:
        raise ValueError("empty monomial")
    kind, value = tokens[0]
    if kind == "int":
        if value != "1":
            raise ValueError(f"{value!r} is not a monomial (only the unit '1' is numeric)")
        return ONE, tokens[1:]
    if kind != "name":
        raise ValueError(f"expected a variable name, got {value!r}")
    names = [value]
    rest = tokens[1:]
    while len(rest) >= 2 and rest[0] == ("op", "*"):
        kind, value = rest[1]
        if kind != "name":
            raise ValueError(f"expected a variable name after '*', got {value!r}")
        names.append(value)
        rest = rest[2:]
    return Monomial(tuple(Variable(n) for n in names)), rest


def parse_polynomial_by_kinds(text: str) -> Polynomial:
    tokens = _prov_tokenize(text)
    if tokens == [("int", "0")]:
        return ZERO
    terms: list[tuple[Monomial, int]] = []
    while True:
        coeff = 1
        if (
            tokens
            and tokens[0][0] == "int"
            and len(tokens) > 1
            and (tokens[1][0] == "name" or tokens[1] == ("int", "1"))
        ):
            coeff = int(tokens[0][1])
            if coeff == 0:
                raise ValueError("zero coefficient is not allowed; use '0' for the zero polynomial")
            tokens = tokens[1:]
        mon, tokens = _monomial_by_kinds(tokens)
        terms.append((mon, coeff))
        if not tokens:
            break
        if tokens[0] != ("op", "+"):
            raise ValueError(f"expected '+', got {tokens[0][1]!r}")
        tokens = tokens[1:]
    return Polynomial(terms)
