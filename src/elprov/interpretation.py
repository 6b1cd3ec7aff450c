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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

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

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class AuxElement:
    """Anonymous element recording the role and monomial of its creator edge."""

    role: str
    monomial: Monomial

    def __str__(self) -> str:
        return f"_:{self.role}:{self.monomial}"


DomainElement = Named | AuxElement


def element_key(e: DomainElement):
    if isinstance(e, Named):
        return (0, e.name)
    return (1, e.role, e.monomial)


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
        occurrences: dict[Term, int] = {}
        for atom in self.atoms:
            for t in self._ordinary_terms(atom):
                occurrences[t] = occurrences.get(t, 0) + 1
        for atom in self.atoms:
            p = atom.prov
            if not isinstance(p, Var):
                raise NonStandardQueryError(f"provenance term {p} must be a variable")
            uses = sum(1 for a in self.atoms if a.prov == p)
            if uses > 1 or p in occurrences:
                raise NonStandardQueryError(
                    f"provenance variable {p} must occur exactly once in the query"
                )

    @staticmethod
    def _ordinary_terms(atom: Atom) -> tuple[Term, ...]:
        if isinstance(atom, ConceptAtom):
            return (atom.arg,)
        return (atom.arg1, atom.arg2)

    def terms(self) -> tuple[Term, ...]:
        out: dict[Term, None] = {}
        for atom in self.atoms:
            for t in self._ordinary_terms(atom):
                out.setdefault(t, None)
            out.setdefault(atom.prov, None)
        return tuple(out)

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


def _binding_sort_key(pairs: dict):
    out = []
    for t in sorted(pairs, key=term_key):
        v = pairs[t]
        out.append((term_key(t), element_key(v) if isinstance(v, (Named, AuxElement)) else (2, v)))
    return out


def enumerate_matches(
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

    def candidates(atom: Atom) -> frozenset:
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


def provenance_of_matches(query: BCQ, matches: Iterable[Match]) -> Polynomial:
    """Sum over matches of the product of the matched provenance monomials."""
    terms = []
    for match in matches:
        mon = ONE
        for atom in query.atoms:
            mon = mon * match[atom.prov]
        terms.append((mon, 1))
    return Polynomial(terms)


# --- query text format -------------------------------------------------------
#
# atom  := NAME '(' term ',' term ')' | NAME '(' term ',' term ',' term ')'
# term  := '?' NAME | NAME        (a '?'-term is an existential variable)
# query := atom ('&' atom)*       (newlines are whitespace; '#' comments)

_QTOKEN = re.compile(r"\s*(?:(?P<var>\?[A-Za-z_][A-Za-z0-9_]*)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<punct>[(),&]))")


def parse_query(text: str) -> BCQ:
    text = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _QTOKEN.match(text, pos)
        if not m:
            rest = text[pos:].strip()
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
