"""Provenance algebra: canonical monomials and multiset polynomials.

Annotations live in the polynomial semiring over a set of provenance
variables, quotiented by multiplicative idempotency: a product of
variables is determined by the *set* of variables it mentions, so every
monomial is kept in a canonical form (duplicate-free, sorted by name).
Sums keep multiplicity: a polynomial is a multiset of canonical
monomials with positive integer coefficients.

Values of either kind are immutable and hashable, and every operation
here is a pure function, so they can be shared freely.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Mapping

__all__ = [
    "Variable",
    "Monomial",
    "ONE",
    "Polynomial",
    "ZERO",
    "SemiringSpec",
    "BOOLEAN",
    "FUZZY",
    "MissingAssignmentError",
    "evaluate",
    "parse_monomial",
    "parse_polynomial",
]

NAME_PATTERN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_name, _names = attrgetter("name"), attrgetter("names")


class MissingAssignmentError(KeyError):
    """A variable of the polynomial has no value in the assignment."""

    def __init__(self, variable: "Variable"):
        super().__init__(variable.name)
        self.variable = variable

    def __str__(self) -> str:
        return f"no value assigned to variable {self.variable.name!r}"


@dataclass(frozen=True, order=True)
class Variable:
    """A provenance variable, identified by its name."""

    name: str

    def __post_init__(self) -> None:
        if not NAME_PATTERN.match(self.name) or self.name == "1":
            raise ValueError(f"invalid variable name: {self.name!r}")

    def __hash__(self) -> int:
        return hash(self.name)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, order=True)
class Monomial:
    """An idempotent product of variables; the empty product is the unit 1.

    The constructor canonicalizes: duplicates collapse and variables are
    sorted by name, so equality and hashing coincide with equality of the
    products modulo commutativity, associativity and idempotency.
    ``names``, the variables' names, sorts like the dataclass order and gives the hash, computed
    once; a pickle carries only ``vars``, as string hashes differ between processes.
    """

    vars: tuple[Variable, ...] = ()

    def __post_init__(self) -> None:
        self._set(tuple(sorted(set(self.vars), key=_name)))

    @classmethod
    def _canonical(cls, vs: tuple[Variable, ...]) -> "Monomial":
        """The monomial of ``vs``, which must be duplicate-free and sorted by name."""
        return object.__new__(cls)._set(vs)

    def _set(self, vs: tuple[Variable, ...]) -> "Monomial":
        object.__setattr__(self, "vars", vs)
        object.__setattr__(self, "names", tuple(map(_name, vs)))
        object.__setattr__(self, "_hash", hash(self.names))
        return self

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Monomial, (self.vars,)

    @property
    def degree(self) -> int:
        return len(self.vars)

    def variables(self) -> frozenset[Variable]:
        return frozenset(self.vars)

    def mentions(self, v: Variable) -> bool:
        return v in self.vars

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not isinstance(other, Monomial):
            return NotImplemented
        if not (self.vars and other.vars):  # a factor is 1
            return self if not other.vars else other
        return Monomial(self.vars + other.vars)

    def __iter__(self) -> Iterator[Variable]:
        return iter(self.vars)

    def __str__(self) -> str:
        return "*".join(v.name for v in self.vars) if self.vars else "1"


ONE = Monomial()


class Polynomial:
    """A finite multiset of canonical monomials.

    Coefficients are positive Python ints (arbitrary precision), so match
    counts never overflow. The zero polynomial has no terms.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, int] | Iterable[tuple[Monomial, int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Monomial, int] = {}
        for mon, coeff in items:
            if coeff < 0:
                raise ValueError(f"negative coefficient {coeff} for {mon}")
            if coeff:
                acc[mon] = acc.get(mon, 0) + coeff
        self._terms: dict[Monomial, int] = {m: acc[m] for m in sorted(acc, key=_names)}

    @classmethod
    def of(cls, *monomials: Monomial) -> "Polynomial":
        """Sum of monomial occurrences; repeats add up."""
        return cls((m, 1) for m in monomials)

    def terms(self) -> tuple[tuple[Monomial, int], ...]:
        return tuple(self._terms.items())

    def coefficient(self, mon: Monomial) -> int:
        return self._terms.get(mon, 0)

    def monomials(self) -> tuple[Monomial, ...]:
        return tuple(self._terms)

    def variables(self) -> frozenset[Variable]:
        out: set[Variable] = set()
        for mon in self._terms:
            out.update(mon.vars)
        return frozenset(out)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return Polynomial(list(self._terms.items()) + list(other._terms.items()))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        out: list[tuple[Monomial, int]] = []
        for m, a in self._terms.items():
            for n, b in other._terms.items():
                out.append((m * n, a * b))
        return Polynomial(out)

    def contained_in(self, big: "Polynomial") -> bool:
        """Multiset inclusion: every occurrence here occurs in ``big``."""
        return all(k <= big.coefficient(m) for m, k in self._terms.items())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polynomial) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(tuple(self._terms.items()))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for mon, k in self._terms.items():
            parts.append(str(mon) if k == 1 else f"{k} {mon}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({str(self)!r})"


ZERO = Polynomial()


@dataclass(frozen=True)
class SemiringSpec:
    """A commutative semiring the caller asserts to be x-idempotent."""

    zero: object
    one: object
    add: Callable
    mul: Callable


BOOLEAN = SemiringSpec(zero=False, one=True, add=lambda a, b: a or b, mul=lambda a, b: a and b)
FUZZY = SemiringSpec(zero=0.0, one=1.0, add=max, mul=min)


def evaluate(p: Polynomial, assignment: Mapping[Variable, object], semiring: SemiringSpec):
    """Semiring homomorphism: map variables through ``assignment``.

    Monomials become mul-products (the unit maps to ``one``), coefficients
    fold with ``add``. Terms are folded in the polynomial's canonical
    order so the result is deterministic for non-associative callables.
    """
    total = None
    for mon, coeff in p.terms():
        value = semiring.one
        for v in mon:
            if v not in assignment:
                raise MissingAssignmentError(v)
            value = semiring.mul(value, assignment[v])
        for _ in range(coeff):
            total = value if total is None else semiring.add(total, value)
    return semiring.zero if total is None else total


# --- textual syntax -------------------------------------------------------
#
# monomial   := '1' | NAME ('*' NAME)*
# polynomial := '0' | term ('+' term)*
# term       := INT? monomial        (integer coefficient prefix, e.g. "2 v1*v2")

_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>[0-9]+)|(?P<op>[*+]))")


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"unexpected character {text[pos:].strip()[0]!r} in {text!r}")
            break
        pos = m.end()
        kind = m.lastgroup
        tokens.append((kind, m.group(kind)))
    return tokens


def parse_monomial(text: str) -> Monomial:
    tokens = _tokenize(text)
    mon, rest = _parse_monomial_tokens(tokens)
    if rest:
        raise ValueError(f"trailing input after monomial in {text!r}")
    return mon


def _parse_monomial_tokens(tokens: list[tuple[str, str]]) -> tuple[Monomial, list[tuple[str, str]]]:
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


def parse_polynomial(text: str) -> Polynomial:
    tokens = _tokenize(text)
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
        mon, tokens = _parse_monomial_tokens(tokens)
        terms.append((mon, coeff))
        if not tokens:
            break
        if tokens[0] != ("op", "+"):
            raise ValueError(f"expected '+', got {tokens[0][1]!r}")
        tokens = tokens[1:]
    return Polynomial(terms)
