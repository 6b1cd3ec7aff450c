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
canonical product of the matched monomials; under idempotency a product
is its set of variables, so the join counts the matches per set and
keeps none of them.

Matching optionally applies rewriting side conditions: variables
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
from collections.abc import Iterable, Iterator, Mapping

from .completion import Limits, ResourceCapExceeded
from .provenance import Monomial, Polynomial, _monomial_of
from .syntax import QUERY_TOKENS, Scanner, _Node, file_text

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
    "QueryError",
    "NonStandardQueryError",
    "UnknownIndividualError",
    "parse_query",
    "provenance_of_matches",
]


class QueryError(ValueError):
    pass


class NonStandardQueryError(QueryError):
    pass


class UnknownIndividualError(QueryError):
    pass


# --- domain elements --------------------------------------------------------


class Named(_Node, fields=("name",)):
    __slots__ = ()
    _text = "%s"


class AuxElement(_Node, fields=("role", "monomial")):
    """Anonymous element recording the role and monomial of its creator edge."""

    __slots__ = ()
    _text = "_:%s:%s"


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
        self.concept_ext: dict[str, frozenset] = {
            name: frozenset(pairs) for name, pairs in concept_ext.items()
        }
        self.role_ext: dict[str, frozenset] = {
            name: frozenset(triples) for name, triples in role_ext.items()
        }
        self.individuals: dict[str, Named] = {name: Named(name) for name in individuals}
        domain_set = frozenset(self.domain)
        for name, el in self.individuals.items():
            if el not in domain_set:
                raise ValueError(f"individual {name!r} is not in the domain")

    # -- extensions ---------------------------------------------------------

    def concept_pairs(self, name: str) -> frozenset:
        return self.concept_ext.get(name, frozenset())

    def role_triples(self, name: str) -> frozenset:
        return self.role_ext.get(name, frozenset())

    def is_aux(self, e: DomainElement) -> bool:
        return isinstance(e, AuxElement)

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


# --- queries ----------------------------------------------------------------


# a term sorts individuals first, then by name
class Ind(_Node, fields=("name",)):
    __slots__ = ()
    _text = "%s"


class Var(_Node, fields=("name",)):
    __slots__ = ()
    _text = "?%s"


Term = Ind | Var


# an atom's terms, atom[2:], line up with the rows of its extension
class ConceptAtom(_Node, fields=("concept", "arg", "prov")):
    __slots__ = ()
    _text = "%s(%s, %s)"


class RoleAtom(_Node, fields=("role", "arg1", "arg2", "prov")):
    __slots__ = ()
    _text = "%s(%s, %s, %s)"


Atom = ConceptAtom | RoleAtom


class BCQ:
    """A Boolean conjunctive query in standard form.

    Every atom's last term is a provenance variable that occurs nowhere
    else in the query; atoms are deduplicated.
    """

    def __init__(self, atoms: Iterable[Atom]):
        self.atoms: tuple[Atom, ...] = tuple(dict.fromkeys(atoms))
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

    def ordinary_terms(self) -> tuple[Term, ...]:
        return tuple(dict.fromkeys(t for atom in self.atoms for t in atom[2:-1]))

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
        for t in set(atom[2:-1]):
            holds.setdefault(t, []).append(i)
    count = [len(set(a[2:-1]) & bound.keys()) for a in atoms]
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
        args = atoms[i][2:]
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


def provenance_of_matches(
    interp: AnnotatedInterpretation,
    query: BCQ,
    conditions: "RewritingConditions | None" = None,
    limits: Limits | None = None,
) -> Polynomial:
    """Sum over the query's matches of the product of the matched monomials.

    A product is the set of its factors' variables, so each match adds 1
    to the count of that set and no match is kept. With ``conditions``,
    cycle variables may only be matched by named individuals and
    anonymous fork representatives force their predecessors to coincide.
    The time budget of ``limits``, counted from this call, is checked
    during the join; it raises ``ResourceCapExceeded``.
    """
    budget = limits and limits.max_seconds
    deadline = None if budget is None else time.monotonic() + budget
    binding: dict[Term, object] = {}
    for name in query.individuals():
        if name not in interp.individuals:
            raise UnknownIndividualError(f"individual {name!r} does not occur in the ontology")
        binding[Ind(name)] = interp.individuals[name]
    plan = _join_plan(interp, query.atoms, binding, conditions)
    provs = [a.prov for a in query.atoms]
    tally: Counter = Counter()  # variables of a product -> matches with that product

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
            if not ready or all(
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
        tally[frozenset([name for t in provs for name in binding[t].names])] += 1
    return Polynomial((_monomial_of(tuple(sorted(names))), k) for names, k in tally.items())


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
    p = Scanner(QUERY_TOKENS, file_text(text), " \t\n")  # a line end is a blank
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
