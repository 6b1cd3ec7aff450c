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
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Iterator, Mapping

from .syntax import PROVENANCE_TOKENS, Scanner, _new, _Node

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
_name, _names = itemgetter(1), attrgetter("names")  # a variable is ("Variable", name)


class MissingAssignmentError(KeyError):
    """A variable of the polynomial has no value in the assignment."""

    def __init__(self, variable: "Variable"):
        super().__init__(variable.name)
        self.variable = variable

    def __str__(self) -> str:
        return f"no value assigned to variable {self.variable.name!r}"


class Variable(_Node, fields=("name",)):
    """A provenance variable, identified by its name."""

    __slots__ = ()
    _text = "%s"

    def __new__(cls, name: str) -> "Variable":
        if not NAME_PATTERN.match(name) or name == "1":
            raise ValueError(f"invalid variable name: {name!r}")
        return _new(cls, ("Variable", name))


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

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not isinstance(other, Monomial):
            return NotImplemented
        if not (self.vars and other.vars):  # a factor is 1
            return self if not other.vars else other
        return Monomial(self.vars + other.vars)

    def __iter__(self) -> Iterator[Variable]:
        return iter(self.vars)

    def __str__(self) -> str:
        return "*".join(self.names) or "1"


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
#
# The text is read with its ends stripped, as one line of ``elprov.syntax``:
# space and tab are the blanks, and an error is a ``ParseError``.


def _monomial(p: Scanner) -> Monomial:
    """The monomial at the scanner's place; a ``*`` is always followed by a name."""
    tok = p.tokens[p.i]
    if tok is not None and tok.isdigit():
        if tok != "1":
            raise p.error(f"{tok!r} is not a monomial (only the unit '1' is numeric)")
        p.i += 1
        return ONE
    names = [p.name("a variable name")]
    while p.tokens[p.i] == "*":
        p.i += 1
        names.append(p.name("a variable name after '*'"))
    return Monomial(tuple(map(Variable, names)))


def parse_monomial(text: str) -> Monomial:
    p = Scanner(PROVENANCE_TOKENS, text.strip())
    mon = _monomial(p)
    p.finish("trailing input after monomial")
    return mon


def parse_polynomial(text: str) -> Polynomial:
    p = Scanner(PROVENANCE_TOKENS, text.strip())
    tokens = p.tokens
    if tokens == ["0", None]:
        return ZERO
    terms: list[tuple[Monomial, int]] = []
    while True:
        coeff, tok = 1, tokens[p.i]
        if tok is not None and tok.isdigit():
            # an integer is a coefficient when a name or the unit '1' follows it
            following = tokens[p.i + 1]
            if following == "1" or following is not None and following.isidentifier():
                coeff = int(tok)
                if coeff == 0:
                    raise p.error("zero coefficient is not allowed; use '0' for the zero polynomial")
                p.i += 1
        terms.append((_monomial(p), coeff))
        if tokens[p.i] is None:
            return Polynomial(terms)
        p.take("+")
