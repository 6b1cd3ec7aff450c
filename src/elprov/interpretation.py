"""Finite annotated interpretations and Boolean conjunctive queries.

An annotated interpretation pairs every concept membership with a
monomial and every role edge with a monomial; the Top concept is not
stored, it holds of every element with the unit annotation. Elements are
either named individuals or anonymous elements remembered by the role and
monomial of the edge that created them.

Queries are conjunctions of atoms whose last argument is a dedicated
provenance variable (occurring nowhere else); a match binds ordinary
terms to domain elements and provenance variables to monomials. The
provenance of a query on an interpretation sums, over all matches, the
canonical product of the matched monomials.

Match enumeration optionally applies rewriting side conditions: variables
in the condition's cycle set must be matched by named individuals, and a
fork whose representative lands on an anonymous element forces all its
predecessor terms to coincide.

Matching is an indexed join: the next atom is the one with the most terms
already bound (the classic bound-argument order; Veldhuizen's *Leapfrog
Triejoin*, ICDT 2014, gives the ideal), its rows are looked up by those
terms, and a condition is tested once its terms are bound. An explicit
stack allows any number of atoms; the ``Limits`` time budget applies.
"""

from __future__ import annotations

import heapq
import time
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from .completion import Limits, ResourceCapExceeded
from .ontology import (
    Atomic,
    AnnotatedAxiom,
    CA,
    Concept,
    Conj,
    Exists,
    ExistsQ,
    GCI,
    RA,
    RI,
    RR,
    Ran,
    Top,
)
from .provenance import ONE, Monomial, Polynomial
from .syntax import QUERY_TOKENS, Scanner, file_lines

if TYPE_CHECKING:  # pragma: no cover - only for annotations
    from .canonical import RewritingConditions

__all__ = [
    "Named",
    "AuxElement",
    "DomainElement",
    "AnnotatedInterpretation",
    "Var",
    "Ind",
    "Term",
    "ConceptAtom",
    "RoleAtom",
    "BCQ",
    "Match",
    "QueryError",
    "NonStandardQueryError",
    "UnknownIndividualError",
    "parse_query",
    "enumerate_matches",
    "provenance_of_matches",
    "evaluate_concept",
    "term_key",
]


class QueryError(ValueError):
    pass


class NonStandardQueryError(QueryError):
    pass


class UnknownIndividualError(QueryError):
    pass


# --- domain elements --------------------------------------------------------


@dataclass(frozen=True)
class Named:
    name: str

    def __hash__(self) -> int:
        return hash(self.name)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class AuxElement:
    """Anonymous element recording the role and monomial of its creator edge; hashed once."""

    role: str
    monomial: Monomial

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.role, self.monomial)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return AuxElement, (self.role, self.monomial)

    def __str__(self) -> str:
        return f"_:{self.role}:{self.monomial}"


DomainElement = Named | AuxElement


def element_key(e: DomainElement):
    if isinstance(e, Named):
        return (0, e.name)
    return (1, e.role, e.monomial.names)


class AnnotatedInterpretation:
    """Immutable finite structure with monomial-annotated extensions."""

    def __init__(
        self,
        domain: Iterable[DomainElement],
        concept_ext: Mapping[str, Iterable[tuple[DomainElement, Monomial]]],
        role_ext: Mapping[str, Iterable[tuple[DomainElement, DomainElement, Monomial]]],
        individuals: Iterable[str] = (),
    ):
        self.domain: tuple[DomainElement, ...] = tuple(sorted(set(domain), key=element_key))
        self._domain_set = frozenset(self.domain)
        self.concept_ext: dict[str, frozenset] = {
            name: frozenset(pairs) for name, pairs in concept_ext.items()
        }
        self.role_ext: dict[str, frozenset] = {
            name: frozenset(triples) for name, triples in role_ext.items()
        }
        self.individuals: dict[str, Named] = {name: Named(name) for name in individuals}
        for name, el in self.individuals.items():
            if el not in self._domain_set:
                raise ValueError(f"individual {name!r} is not in the domain")

    # -- extensions ---------------------------------------------------------

    def concept_pairs(self, name: str) -> frozenset:
        return self.concept_ext.get(name, frozenset())

    def role_triples(self, name: str) -> frozenset:
        return self.role_ext.get(name, frozenset())

    def is_aux(self, e: DomainElement) -> bool:
        return isinstance(e, AuxElement)

    def extend_concept(self, concept: Concept) -> frozenset:
        """Evaluate a complex concept to its set of (element, monomial) pairs."""
        return evaluate_concept(concept, self.domain, self.concept_ext, self.role_ext)

    # -- satisfaction -------------------------------------------------------

    def satisfies(self, annotated: AnnotatedAxiom) -> bool:
        ax, m = annotated.axiom, annotated.annotation
        if isinstance(ax, RI):
            sup = self.role_triples(ax.sup)
            return all(
                (d, e, m * n) in sup for d, e, n in self.role_triples(ax.sub)
            )
        if isinstance(ax, GCI):
            rhs = self.extend_concept(ax.rhs)
            return all((d, m * n) in rhs for d, n in self.extend_concept(ax.lhs))
        if isinstance(ax, RR):
            filler = self.concept_pairs(ax.filler)
            return all(
                (e, m * n) in filler for _, e, n in self.role_triples(ax.role)
            )
        if isinstance(ax, CA):
            el = self.individuals.get(ax.ind)
            if el is None:
                return False
            if isinstance(ax.concept, Top):
                return m == ONE and el in self._domain_set
            return (el, m) in self.concept_pairs(ax.concept.name)
        if isinstance(ax, RA):
            a, b = self.individuals.get(ax.a), self.individuals.get(ax.b)
            return a is not None and b is not None and (a, b, m) in self.role_triples(ax.role)
        raise TypeError(f"not an axiom: {ax!r}")

    # -- serialization ------------------------------------------------------

    def to_json_obj(self) -> dict:
        def el_id(e: DomainElement) -> str:
            return str(e)

        domain_rows = []
        for e in self.domain:
            if isinstance(e, Named):
                domain_rows.append({"id": el_id(e), "kind": "named", "name": e.name})
            else:
                domain_rows.append(
                    {
                        "id": el_id(e),
                        "kind": "aux",
                        "role": e.role,
                        "monomial": str(e.monomial),
                    }
                )
        concepts = {
            name: sorted([el_id(d), str(m)] for d, m in pairs)
            for name, pairs in sorted(self.concept_ext.items())
        }
        roles = {
            name: sorted([el_id(d), el_id(e), str(m)] for d, e, m in triples)
            for name, triples in sorted(self.role_ext.items())
        }
        return {
            "individuals": sorted(self.individuals),
            "domain": domain_rows,
            "concepts": concepts,
            "roles": roles,
        }


def evaluate_concept(
    concept: Concept,
    domain: Iterable[DomainElement],
    concept_ext: Mapping[str, Iterable[tuple[DomainElement, Monomial]]],
    role_ext: Mapping[str, Iterable[tuple[DomainElement, DomainElement, Monomial]]],
) -> frozenset:
    """(element, monomial) pairs of a complex concept over the given extensions.

    The result never aliases a mutable extension, so a caller may add to
    the extensions while it iterates the result.
    """

    def ev(c: Concept) -> frozenset:
        if isinstance(c, Top):
            return frozenset((d, ONE) for d in domain)
        if isinstance(c, Atomic):
            return frozenset(concept_ext.get(c.name, ()))
        if isinstance(c, Exists):
            return frozenset((d, m) for d, _, m in role_ext.get(c.role, ()))
        if isinstance(c, Ran):
            return frozenset((e, m) for _, e, m in role_ext.get(c.role, ()))
        if isinstance(c, Conj):
            right = by_element(ev(c.right))
            return frozenset((d, m * n) for d, m in ev(c.left) for n in right.get(d, ()))
        if isinstance(c, ExistsQ):
            filler = by_element(ev(c.filler))
            return frozenset(
                (d, m * n) for d, e, m in role_ext.get(c.role, ()) for n in filler.get(e, ())
            )
        raise TypeError(f"not a concept: {c!r}")

    def by_element(pairs) -> dict[DomainElement, list[Monomial]]:
        out: dict[DomainElement, list[Monomial]] = {}
        for e, n in pairs:
            out.setdefault(e, []).append(n)
        return out

    return ev(concept)


# --- queries ----------------------------------------------------------------


@dataclass(frozen=True, order=True)
class Ind:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, order=True)
class Var:
    name: str

    def __str__(self) -> str:
        return f"?{self.name}"


Term = Ind | Var


def term_key(t: Term):
    return (0, t.name) if isinstance(t, Ind) else (1, t.name)


@dataclass(frozen=True)
class ConceptAtom:
    concept: str
    arg: Term
    prov: Var

    def __str__(self) -> str:
        return f"{self.concept}({self.arg}, {self.prov})"


@dataclass(frozen=True)
class RoleAtom:
    role: str
    arg1: Term
    arg2: Term
    prov: Var

    def __str__(self) -> str:
        return f"{self.role}({self.arg1}, {self.arg2}, {self.prov})"


Atom = ConceptAtom | RoleAtom


class BCQ:
    """A Boolean conjunctive query in standard form.

    Every atom's last term is a provenance variable that occurs nowhere
    else in the query; atoms are deduplicated.
    """

    def __init__(self, atoms: Iterable[Atom]):
        seen: dict[Atom, None] = {}
        for atom in atoms:
            seen.setdefault(atom, None)
        self.atoms: tuple[Atom, ...] = tuple(seen)
        if not self.atoms:
            raise QueryError("a query needs at least one atom")
        self._validate()

    def _validate(self) -> None:
        ordinary = set(self.ordinary_terms())
        uses = Counter(atom.prov for atom in self.atoms)
        for atom in self.atoms:
            p = atom.prov
            if not isinstance(p, Var):
                raise NonStandardQueryError(f"provenance term {p} must be a variable")
            if uses[p] > 1 or p in ordinary:
                raise NonStandardQueryError(
                    f"provenance variable {p} must occur exactly once in the query"
                )

    @staticmethod
    def _ordinary_terms(atom: Atom) -> tuple[Term, ...]:
        if isinstance(atom, ConceptAtom):
            return (atom.arg,)
        return (atom.arg1, atom.arg2)

    def ordinary_terms(self) -> tuple[Term, ...]:
        out: dict[Term, None] = {}
        for atom in self.atoms:
            for t in self._ordinary_terms(atom):
                out.setdefault(t, None)
        return tuple(out)

    def individuals(self) -> tuple[str, ...]:
        return tuple(sorted({t.name for t in self.ordinary_terms() if isinstance(t, Ind)}))

    def role_atoms(self) -> tuple[RoleAtom, ...]:
        return tuple(a for a in self.atoms if isinstance(a, RoleAtom))

    def __str__(self) -> str:
        return " & ".join(str(a) for a in self.atoms)

    def __eq__(self, other) -> bool:
        return isinstance(other, BCQ) and set(self.atoms) == set(other.atoms)

    def __hash__(self) -> int:
        return hash(frozenset(self.atoms))


@dataclass(frozen=True)
class Match:
    """One homomorphism: terms to elements, provenance variables to monomials."""

    binding: tuple[tuple[Term, object], ...]

    def __getitem__(self, term: Term):
        for t, v in self.binding:
            if t == term:
                return v
        raise KeyError(term)


def _join_plan(interp, atoms, bound, conditions) -> list[tuple]:
    """One step per atom, the atom with the most ordinary terms bound first.

    Ties go to the smaller extension, then to the atom's text. A step is
    (terms bound before it, (position, term) for the terms it binds, its
    rows keyed by the former's values, forks it completes). Rows that
    repeat an unbound term unequally or put an anonymous element on a new
    cycle variable are left out.
    """
    cyc, forks = (conditions.cyc, conditions.forks) if conditions else ((), ())
    exts = [
        interp.role_triples(a.role) if isinstance(a, RoleAtom) else interp.concept_pairs(a.concept)
        for a in atoms
    ]
    bound = dict.fromkeys(bound, 0)  # term -> the step that binds it
    holds: dict[Term, list[int]] = {}  # term -> the atoms it occurs in
    for i, atom in enumerate(atoms):
        for t in set(BCQ._ordinary_terms(atom)):
            holds.setdefault(t, []).append(i)
    count = [len(set(BCQ._ordinary_terms(a)) & bound.keys()) for a in atoms]
    static = [(len(ext), str(a)) for a, ext in zip(atoms, exts)]
    # counts only grow, so an entry whose count is behind is stale
    heap = [(-count[i], *static[i], i) for i in range(len(atoms))]
    heapq.heapify(heap)
    plan = []
    while heap:
        neg, *_, i = heapq.heappop(heap)
        if -neg != count[i]:  # stale, or placed already
            continue
        count[i] = None
        args = (*BCQ._ordinary_terms(atoms[i]), atoms[i].prov)
        first = {t: args.index(t) for t in args}
        key = [(p, t) for p, t in enumerate(args) if t in bound]
        new = [(p, t) for t, p in first.items() if t not in bound]
        repeats = [(first[t], p) for p, t in enumerate(args) if t not in bound and first[t] != p]
        no_aux = [p for p, t in new if t in cyc]
        rows: dict[tuple, list] = {}
        for row in exts[i]:
            if all(row[p] == row[q] for p, q in repeats) and not any(
                isinstance(row[p], AuxElement) for p in no_aux
            ):
                rows.setdefault(tuple(row[p] for p, _ in key), []).append(row)
        for _, t in new:
            bound[t] = len(plan)
            for j in holds.get(t, ()):
                if count[j] is not None:
                    count[j] += 1
                    heapq.heappush(heap, (-count[j], *static[j], j))
        plan.append((tuple(t for _, t in key), tuple(new), rows, []))
    for fork in forks:
        plan[max(bound[t] for t in (fork.representative, *fork.pre))][3].append(fork)
    return plan


def enumerate_matches(
    interp: AnnotatedInterpretation,
    query: BCQ,
    conditions: "RewritingConditions | None" = None,
    limits: Limits | None = None,
) -> tuple[Match, ...]:
    """All matches of the query, sorted by binding.

    With ``conditions``, cycle variables may only be matched by named
    individuals and anonymous fork representatives force their
    predecessors to coincide. The time budget of ``limits``, counted from
    this call, is checked during the join; it raises ``ResourceCapExceeded``.
    """
    deadline = time.monotonic() + limits.max_seconds if limits and limits.max_seconds else None
    binding: dict[Term, object] = {}
    for name in query.individuals():
        if name not in interp.individuals:
            raise UnknownIndividualError(f"individual {name!r} does not occur in the ontology")
        binding[Ind(name)] = interp.individuals[name]
    plan = _join_plan(interp, query.atoms, binding, conditions)
    # a match sorts by its values in term order
    terms = sorted([*query.ordinary_terms(), *(a.prov for a in query.atoms)], key=term_key)
    results: list[tuple[tuple, Match]] = []

    def rows_of(step) -> Iterator:
        lookup, _, rows, _ = step
        return iter(rows.get(tuple(binding[t] for t in lookup), ()))

    # a step always rebinds the same terms, so a row overwrites what the
    # step's previous row bound and nothing needs unbinding
    stack = [rows_of(plan[0])]
    ticks = 0
    while stack:
        _, new, _, ready = plan[len(stack) - 1]
        for row in stack[-1]:
            ticks += 1
            if deadline is not None and not ticks % 1024 and time.monotonic() > deadline:
                raise ResourceCapExceeded("query matching wall-clock budget exceeded")
            for pos, t in new:
                binding[t] = row[pos]
            if all(
                not isinstance(binding[fork.representative], AuxElement)
                or len({binding[t] for t in fork.pre}) == 1
                for fork in ready
            ):
                break
        else:
            stack.pop()
            continue
        if len(stack) < len(plan):
            stack.append(rows_of(plan[len(stack)]))
            continue
        values = [binding[t] for t in terms]
        key = tuple((2, v.names) if isinstance(v, Monomial) else element_key(v) for v in values)
        results.append((key, Match(tuple(zip(terms, values)))))
    results.sort(key=itemgetter(0))
    for (key, _), (following, _) in zip(results, results[1:]):
        if key == following:
            raise RuntimeError(f"duplicate match enumerated: {key}")
    return tuple(match for _, match in results)


def provenance_of_matches(query: BCQ, matches: Iterable[Match]) -> Polynomial:
    """Sum over matches of the product of the matched provenance monomials.

    The matches bind the same terms in the same order, as ``enumerate_matches``
    gives them, so the provenance variables' places are read off the first."""
    terms, places = [], None
    for match in matches:  # a product is canonicalized once, from all its factors' variables
        binding = match.binding
        if places is None:
            places = [[t for t, _ in binding].index(a.prov) for a in query.atoms]
        terms.append((Monomial(tuple(v for i in places for v in binding[i][1].vars)), 1))
    return Polynomial(terms)


# --- query text format -------------------------------------------------------
#
# query := atom ('&' atom)* '&'?
# atom  := NAME '(' term ',' term ')' | NAME '(' term ',' term ',' term ')'
# term  := '?' NAME | NAME        (a '?'-term is an existential variable)
#
# Blanks, comments, line breaks and error positions are those of
# ``elprov.syntax``; a query may run over several lines.


def _term(p: Scanner) -> Term:
    tok = p.tokens[p.i]
    if tok is not None and tok[0] == "?":
        p.i += 1
        return Var(tok[1:])
    return Ind(p.name("a term"))


def parse_query(text: str) -> BCQ:
    """Parse a query file; a syntax error is a ``ParseError`` with line and
    column, a query that is not in standard form a ``NonStandardQueryError``."""
    p = Scanner(QUERY_TOKENS, file_lines(text))
    atoms: list[Atom] = []
    while p.tokens[p.i] is not None:
        start = p.i
        pred = p.name("a predicate name")
        p.take("(")
        args = [_term(p)]
        while p.tokens[p.i] == ",":
            p.i += 1
            args.append(_term(p))
        if p.tokens[p.i] != ")":
            raise p.error(f"expected ',' or ')', got {p.tokens[p.i] or 'end of line'!r}")
        p.i += 1
        if len(args) not in (2, 3):
            raise p.at(start).error(f"atoms take 2 or 3 arguments, got {len(args)}")
        if not isinstance(args[-1], Var):
            raise NonStandardQueryError("the last atom argument must be a ?-variable")
        atoms.append(ConceptAtom(pred, *args) if len(args) == 2 else RoleAtom(pred, *args))
        if p.tokens[p.i] is not None:
            p.take("&")
    return BCQ(atoms)
