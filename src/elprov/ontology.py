"""Annotated ELHr ontologies: AST, parser, printer and normalizer.

The ontology language is a restricted ELHr: left-hand sides of concept
inclusions follow ``C ::= A | some(R, C) | and(C, C) | Top`` while
right-hand sides are atomic or unqualified existentials
(``D ::= A | some(R)``). Role inclusions, range restrictions and atomic
assertions complete the axiom sorts. Every axiom carries a provenance
annotation; in input files the annotation is a single variable or ``1``,
while derived axiom sets may carry arbitrary monomials.

File grammar (UTF-8, one axiom per line, ``#`` starts a comment; the
blanks, line breaks and error positions are those of ``elprov.syntax``):

    concept := 'Top' | NAME | 'and(' concept ',' concept ')'
             | 'some(' NAME ',' concept ')' | 'some(' NAME ')'
    line    := 'gci' concept '<=' concept '@' annot
             | 'ri' NAME '<=' NAME '@' annot
             | 'rr ran(' NAME ') <=' NAME '@' annot
             | 'ca' NAME '(' NAME ')' '@' annot
             | 'ra' NAME '(' NAME ',' NAME ')' '@' annot
    annot   := NAME | '1'

An ``--axiom`` argument is one such line without ``'@' annot``, and an
instance-query target is ``'iq' concept '(' NAME ')'``; both are read with
their ends stripped. Names beginning with ``__`` are reserved for
internally generated symbols and rejected in user input.

Concepts and axioms are tuples tagged with their class name, so ``==``
and ``hash`` run in C. The front end does each job once. A
``syntax.Scanner`` per line splits it into string tokens whose kind is
read off the token; a column is computed only for an error. The parser
reads a concept in one loop and checks the left-hand side grammar as it
builds it. An ontology hashes each axiom once, into the dict that
deduplicates it and answers membership and equality. A derived ontology
(``extended``, ``normalize``) validates only the axioms it adds;
``normalize`` rewrites GCIs as ``(lhs, rhs, annotation)`` triples and
builds only the axioms it outputs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from typing import Iterable, Iterator

from .provenance import ONE, Monomial, Variable
from .syntax import ONTOLOGY_TOKENS, ParseError, Scanner, file_lines

__all__ = [
    "Concept",
    "Top",
    "TOP",
    "Atomic",
    "Conj",
    "Exists",
    "ExistsQ",
    "Ran",
    "Axiom",
    "GCI",
    "RI",
    "RR",
    "CA",
    "RA",
    "AnnotatedAxiom",
    "AnnotatedOntology",
    "Signature",
    "FreshNames",
    "ParseError",
    "NamespaceError",
    "parse_ontology",
    "parse_axiom",
    "parse_iq_target",
    "normalize",
    "translate_general_gci",
    "render_axiom",
    "render_annotated",
    "is_atomic_or_top",
]

RESERVED_PREFIX = "__"


class NamespaceError(ValueError):
    """A name is used in more than one of the disjoint namespaces.

    ``axiom`` is the annotated axiom that completes the first clash.
    """

    def __init__(self, message: str, axiom: "AnnotatedAxiom"):
        super().__init__(message)
        self.axiom = axiom


# --- concepts -------------------------------------------------------------


class _Node(tuple):
    """A syntax node: a tuple of its class name and then its fields, so
    ``==`` and ``hash`` run in C and hashing does not recurse in Python.
    A class names its ``fields``: its constructor takes them and
    ``property(itemgetter(i))`` reads them. ``repr`` is dataclass-style and
    a pickle carries the fields. ``_text``, where a class has it, is the
    node in the file syntax, ``%``-formatted with the fields."""

    __slots__ = ()

    def __init_subclass__(cls, fields: tuple[str, ...] = (), **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__match_args__ = fields
        for i, name in enumerate(fields, 1):
            setattr(cls, name, property(itemgetter(i)))
        # a constructor taking the fields, made as collections.namedtuple makes
        # its own: a plain call is what the parser and normalize pay per node
        args, scope = "".join(f"{f}, " for f in fields), {"new": tuple.__new__}
        exec(f"def __new__(cls, {args}):\n    return new(cls, ({cls.__name__!r}, {args}))", scope)
        cls.__new__ = scope["__new__"]

    def __getnewargs__(self) -> tuple:
        return self[1:]

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self[1:]))
        return f"{type(self).__qualname__}({fields})"


class Concept(_Node):
    __slots__ = ()

    def __str__(self) -> str:
        return self._text % self[1:]


class Top(Concept):
    __slots__ = ()
    _text = "Top"


TOP = Top()


class Atomic(Concept, fields=("name",)):
    __slots__ = ()

    def __str__(self) -> str:  # the most printed concept, without formatting
        return self.name


class Conj(Concept, fields=("left", "right")):
    __slots__ = ()
    _text = "and(%s, %s)"


class Exists(Concept, fields=("role",)):
    __slots__ = ()
    _text = "some(%s)"


class ExistsQ(Concept, fields=("role", "filler")):
    __slots__ = ()
    _text = "some(%s, %s)"


class Ran(Concept, fields=("role",)):
    """Range of a role; usable as an evaluable concept, not in GCIs."""

    __slots__ = ()
    _text = "ran(%s)"


def is_atomic_or_top(c: Concept) -> bool:
    return isinstance(c, (Atomic, Top))


def _walk(c: Concept) -> tuple[list[str], list[str], bool, bool]:
    """One iterative pre-order walk over a concept.

    Returns its concept names and its role names, each in pre-order,
    whether Top occurs in it, and whether it is in the left-hand side
    grammar (``Exists``, ``Ran`` or a non-concept anywhere is outside).
    """
    concepts: list[str] = []
    roles: list[str] = []
    top, lhs = False, True
    stack = [c]
    while stack:
        c = stack.pop()
        if isinstance(c, Atomic):
            concepts.append(c.name)
        elif isinstance(c, Conj):
            stack += (c.right, c.left)
        elif isinstance(c, ExistsQ):
            roles.append(c.role)
            stack.append(c.filler)
        elif isinstance(c, Top):
            top = True
        else:
            lhs = False
            if isinstance(c, (Exists, Ran)):
                roles.append(c.role)
    return concepts, roles, top, lhs


# --- axioms ---------------------------------------------------------------


class Axiom(_Node):
    __slots__ = ()


class GCI(Axiom, fields=("lhs", "rhs")):
    __slots__ = ()
    _text = "gci %s <= %s"


class RI(Axiom, fields=("sub", "sup")):
    __slots__ = ()
    _text = "ri %s <= %s"


class RR(Axiom, fields=("role", "filler")):
    __slots__ = ()
    _text = "rr ran(%s) <= %s"


class CA(Axiom, fields=("concept", "ind")):  # the concept is Atomic, or Top in derived sets
    __slots__ = ()
    _text = "ca %s(%s)"


class RA(Axiom, fields=("role", "a", "b")):
    __slots__ = ()
    _text = "ra %s(%s, %s)"


class AnnotatedAxiom(_Node, fields=("axiom", "annotation")):
    __slots__ = ()

    def __str__(self) -> str:
        return render_annotated(self)


def render_axiom(ax: Axiom) -> str:
    if not isinstance(ax, Axiom):
        raise TypeError(f"not an axiom: {ax!r}")
    return ax._text % ax[1:]


def render_annotated(ann: AnnotatedAxiom) -> str:
    return f"{render_axiom(ann.axiom)} @ {ann.annotation}"


@dataclass(frozen=True)
class Signature:
    concepts: tuple[str, ...]
    roles: tuple[str, ...]
    individuals: tuple[str, ...]
    variables: tuple[Variable, ...]


_VARIABLE = "provenance variable"


def _claim(index: dict, axioms: Iterable[AnnotatedAxiom], kinds: dict[str, str]) -> bool:
    """Add ``axioms`` to the dedup dict ``index`` and validate those it lacked,
    claiming their names in ``kinds``; the first clash in axiom order raises.
    Returns whether Top occurs."""
    known = len(index)
    for ann in axioms:
        if not isinstance(ann, AnnotatedAxiom):
            raise TypeError(f"expected AnnotatedAxiom, got {ann!r}")
        index.setdefault(ann, None)
    top = False

    def claim(name: str, kind: str) -> None:
        prev = kinds.setdefault(name, kind)
        if prev != kind:
            # a provenance variable is named second, whichever came first
            first, second = (kind, prev) if prev == _VARIABLE else (prev, kind)
            raise NamespaceError(f"name {name!r} used both as {first} and as {second}", ann)

    for ann in islice(index, known, None):
        ax = ann.axiom
        if isinstance(ax, GCI):
            lhs = _walk(ax.lhs)
            if not lhs[3]:
                raise ValueError(f"GCI left-hand side violates the concept grammar: {ax.lhs}")
            if not isinstance(ax.rhs, (Atomic, Exists)):
                raise ValueError(f"GCI right-hand side must be atomic or some(R): {ax.rhs}")
            for concepts, roles, side_top, _ in (lhs, _walk(ax.rhs)):
                for n in concepts:
                    claim(n, "concept")
                for n in roles:
                    claim(n, "role")
                top = top or side_top
        elif isinstance(ax, RI):
            claim(ax.sub, "role")
            claim(ax.sup, "role")
        elif isinstance(ax, RR):
            claim(ax.role, "role")
            claim(ax.filler, "concept")
        elif isinstance(ax, CA):
            if isinstance(ax.concept, Atomic):
                claim(ax.concept.name, "concept")
            elif isinstance(ax.concept, Top):
                top = True
            else:
                raise ValueError(f"assertions must use atomic concepts: {ax.concept}")
            claim(ax.ind, "individual")
        elif isinstance(ax, RA):
            claim(ax.role, "role")
            claim(ax.a, "individual")
            claim(ax.b, "individual")
        else:
            raise TypeError(f"unknown axiom kind: {ax!r}")
        for v in ann.annotation.vars:
            claim(v.name, _VARIABLE)
    return top


class AnnotatedOntology:
    """An immutable, deduplicated set of annotated axioms.

    Construction validates the GCI grammar (restricted right-hand sides)
    and the mutual disjointness of the concept/role/individual/variable
    namespaces. A derived ontology (``extended``, ``normalize``) copies its
    parent's dedup dict and name-to-kind table and validates only what it adds.
    """

    __slots__ = ("axioms", "_sig", "_top_occurs", "_index", "_kinds")

    def __init__(self, axioms: Iterable[AnnotatedAxiom]):
        index: dict[AnnotatedAxiom, None] = {}
        kinds: dict[str, str] = {}
        self._fill(index, kinds, 0, Signature((), (), (), ()), _claim(index, axioms, kinds))

    def _derived(self, index: dict, kinds: dict, top: bool) -> "AnnotatedOntology":
        """The ontology over ``index`` and ``kinds``, which extend this one's."""
        out = AnnotatedOntology.__new__(AnnotatedOntology)
        out._fill(index, kinds, len(self._kinds), self._sig, top or self._top_occurs)
        return out

    def _fill(self, index: dict, kinds: dict, known: int, sig: Signature, top: bool) -> None:
        # the dedup dict also answers membership and equality, so each
        # axiom is hashed once per construction; the names ``kinds`` lists
        # after its first ``known`` are merged into the signature ``sig``
        self._index, self._kinds, self._top_occurs = index, kinds, top
        self.axioms: tuple[AnnotatedAxiom, ...] = tuple(index)
        new: dict[str, list] = {"concept": [], "role": [], "individual": [], _VARIABLE: []}
        for name, kind in islice(kinds.items(), known, None):
            new[kind].append(Variable(name) if kind == _VARIABLE else name)
        old = (sig.concepts, sig.roles, sig.individuals, sig.variables)
        merged = (tuple(sorted(o + tuple(n))) if n else o for o, n in zip(old, new.values()))
        self._sig = Signature(*merged)

    # -- views ------------------------------------------------------------

    @property
    def concept_names(self) -> tuple[str, ...]:
        return self._sig.concepts

    @property
    def role_names(self) -> tuple[str, ...]:
        return self._sig.roles

    @property
    def individuals(self) -> tuple[str, ...]:
        return self._sig.individuals

    @property
    def variables(self) -> tuple[Variable, ...]:
        return self._sig.variables

    @property
    def top_occurs(self) -> bool:
        return self._top_occurs

    def all_names(self) -> set[str]:
        return set(self._kinds)

    def __iter__(self) -> Iterator[AnnotatedAxiom]:
        return iter(self.axioms)

    def __len__(self) -> int:
        return len(self.axioms)

    def __contains__(self, ann: AnnotatedAxiom) -> bool:
        return ann in self._index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AnnotatedOntology) and self._index.keys() == other._index.keys()

    def __hash__(self) -> int:
        return hash(frozenset(self._index))

    def extended(self, extra: Iterable[AnnotatedAxiom]) -> "AnnotatedOntology":
        """This ontology plus ``extra``; only the axioms it adds are validated."""
        index, kinds = dict(self._index), dict(self._kinds)
        return self._derived(index, kinds, _claim(index, extra, kinds))

    def __repr__(self) -> str:
        return f"AnnotatedOntology({len(self.axioms)} axioms)"


def _is_normal_gci(lhs: Concept, rhs: Concept) -> bool:
    if isinstance(rhs, Atomic):
        if is_atomic_or_top(lhs):
            return True
        if isinstance(lhs, Conj):
            return is_atomic_or_top(lhs.left) and is_atomic_or_top(lhs.right)
        if isinstance(lhs, ExistsQ):
            return is_atomic_or_top(lhs.filler)
        return False
    if isinstance(rhs, Exists):
        return is_atomic_or_top(lhs)
    return False


# --- fresh names ----------------------------------------------------------


class FreshNames:
    """Deterministic supply of reserved (``__``-prefixed) fresh names."""

    def __init__(self, used: Iterable[str] = ()):
        self._used = set(used)
        self._counters: dict[str, int] = {}

    def _next(self, prefix: str) -> str:
        n = self._counters.get(prefix, 0)
        while True:
            name = f"{prefix}{n}"
            n += 1
            if name not in self._used:
                self._counters[prefix] = n
                self._used.add(name)
                return name

    def named(self, prefix: str) -> str:
        """Fresh name with a caller-chosen reserved prefix."""
        if not prefix.startswith(RESERVED_PREFIX):
            raise ValueError(f"fresh names must use the {RESERVED_PREFIX!r} prefix")
        return self._next(prefix)

    def concept(self) -> str:
        return self._next("__nf")

    def role(self) -> str:
        return self._next("__role")

    def individual(self) -> str:
        return self._next("__ind")

    def variable(self) -> Variable:
        return Variable(self._next("__var"))


# --- normalization --------------------------------------------------------


def normalize(ontology: AnnotatedOntology) -> AnnotatedOntology:
    """Rewrite all GCIs into normal form.

    An axiom passes through when it is not a GCI or ``_is_normal_gci``
    holds. Otherwise one of four rewrites replaces part of its left-hand
    side by a fresh concept name defined with annotation 1: a non-atomic
    right conjunct, else a non-atomic left conjunct, else a non-atomic
    existential filler, else (the right-hand side is ``some(R)``) the
    whole left-hand side. Fresh names are memoized per concept structure
    so repeated subconcepts share one definition. The rewrites run on one
    FIFO queue, which fixes the order of the fresh names and of the output.
    A normal-form ontology is returned as is, with no new construction.
    """
    out: list[AnnotatedAxiom] = []
    work: deque[tuple[Concept, Concept, Monomial]] = deque()  # GCIs to rewrite, unbuilt
    for ann in ontology.axioms:
        ax = ann.axiom
        if isinstance(ax, GCI) and not _is_normal_gci(ax.lhs, ax.rhs):
            work.append((ax.lhs, ax.rhs, ann.annotation))
        else:
            out.append(ann)
    if not work:
        return ontology
    fresh = FreshNames(ontology.all_names())
    memo: dict[Concept, Atomic] = {}

    def name_for(c: Concept) -> Atomic:
        a = memo.get(c)
        if a is None:
            a = memo[c] = Atomic(fresh.concept())
            work.append((c, a, ONE))
        return a

    while work:
        lhs, rhs, annotation = work.popleft()
        if isinstance(lhs, Conj) and not is_atomic_or_top(lhs.right):
            lhs = Conj(lhs.left, name_for(lhs.right))
        elif isinstance(lhs, Conj) and not is_atomic_or_top(lhs.left):
            lhs = Conj(name_for(lhs.left), lhs.right)
        elif isinstance(lhs, ExistsQ) and not is_atomic_or_top(lhs.filler):
            lhs = ExistsQ(lhs.role, name_for(lhs.filler))
        elif isinstance(rhs, Atomic) or is_atomic_or_top(lhs):  # normal; queued GCIs are valid
            out.append(AnnotatedAxiom(GCI(lhs, rhs), annotation))
            continue
        else:
            lhs = name_for(lhs)
        work.append((lhs, rhs, annotation))
    # the output is valid and names the input's names and the fresh ones
    kinds = dict(ontology._kinds)
    kinds.update((a.name, "concept") for a in memo.values())
    return ontology._derived(dict.fromkeys(out), kinds, False)


def _strip_top(c: Concept) -> Concept:
    """Drop redundant Top conjuncts/fillers; preserves annotated extensions."""
    if isinstance(c, Conj):
        left, right = _strip_top(c.left), _strip_top(c.right)
        if isinstance(left, Top):
            return right
        if isinstance(right, Top):
            return left
        return Conj(left, right)
    if isinstance(c, ExistsQ):
        filler = _strip_top(c.filler)
        return Exists(c.role) if isinstance(filler, Top) else ExistsQ(c.role, filler)
    return c


def translate_general_gci(
    lhs: Concept,
    rhs: Concept,
    annotation: Monomial,
    fresh: FreshNames,
) -> list[AnnotatedAxiom]:
    """Translate a GCI with an unrestricted right-hand side.

    Conjunctions on the right are split (same annotation on every part);
    a qualified existential ``some(R, C)`` becomes ``some(S)`` for a fresh
    subrole ``S`` of ``R`` whose range is bounded by ``C``. A non-atomic
    range bound goes through a fresh concept name so the result stays in
    the restricted syntax. ``Top`` as (part of) the right-hand side is
    dropped where it is extensionally redundant and rejected otherwise,
    since an annotated inclusion into Top constrains annotations to 1.
    """
    if not _walk(lhs)[3]:
        raise ValueError(f"left-hand side violates the concept grammar: {lhs}")
    out: list[AnnotatedAxiom] = []
    seen: set[AnnotatedAxiom] = set()

    def emit(ann: AnnotatedAxiom) -> None:
        if ann not in seen:
            seen.add(ann)
            out.append(ann)

    def walk(left: Concept, right: Concept) -> None:
        right = _strip_top(right)
        if isinstance(right, Top):
            raise ValueError(
                "Top on the right-hand side of an annotated GCI is not translatable"
            )
        if isinstance(right, Conj):
            walk(left, right.left)
            walk(left, right.right)
        elif isinstance(right, ExistsQ):
            s = fresh.role()
            emit(AnnotatedAxiom(GCI(left, Exists(s)), annotation))
            emit(AnnotatedAxiom(RI(s, right.role), annotation))
            filler = right.filler
            if isinstance(filler, Atomic):
                emit(AnnotatedAxiom(RR(s, filler.name), annotation))
            else:
                bridge = fresh.concept()
                emit(AnnotatedAxiom(RR(s, bridge), annotation))
                walk(Atomic(bridge), filler)
        else:
            emit(AnnotatedAxiom(GCI(left, right), annotation))

    walk(lhs, rhs)
    return out


# --- parser ---------------------------------------------------------------

_NOT_NAMES = frozenset(("1", "<=", "(", ")", ",", "@", "*", None))  # None ends a line's tokens

_CONCEPT_KEYWORDS = {"Top", "and", "some", "ran"}
_NOT_ROLES = _NOT_NAMES | _CONCEPT_KEYWORDS

# Deepest and/some nesting the parser accepts. Parsing, the grammar and
# name walk, hashing and normalizing no longer recurse in Python, but
# ``str``, ``==`` between distinct trees and the GCI probe still do, once
# per level; a bound well under the interpreter's recursion limit keeps
# them safe, in-process callers' frames included.
MAX_CONCEPT_DEPTH = 200


class _LineParser(Scanner):
    """A scanner over one line of the ontology grammar. Axioms are read by
    recursive descent, a concept by one loop (``concept``); ``name`` also
    rejects keywords and reserved names."""

    __slots__ = ()

    def name(self, what: str) -> str:
        tok = self.tokens[self.i]
        if tok in _NOT_NAMES:
            raise self.error(f"expected {what}, got {tok or 'end of line'!r}")
        if tok in _CONCEPT_KEYWORDS:
            raise self.error(f"expected {what}, got keyword {tok!r}")
        if tok.startswith(RESERVED_PREFIX):
            raise self.error(f"names starting with {RESERVED_PREFIX!r} are reserved: {tok!r}")
        self.i += 1
        return tok

    def concept(self) -> tuple[Concept, bool]:
        """The concept at the current token, and whether it is in the
        left-hand side grammar (has no ``some(R)``). One loop: ``enclosing``
        holds the open ``("and", None)``, ``("and", left)`` and ``("some",
        role)``, innermost last. Errors are a recursive descent's."""
        tokens, i = self.tokens, self.i
        enclosing: list[tuple[str, object]] = []
        lhs = True
        while True:
            tok = tokens[i]
            if tok in _NOT_NAMES:
                raise self.at(i).error("expected a concept" + (f", got {tok!r}" if tok else ""))
            if tok not in _CONCEPT_KEYWORDS:
                if tok.startswith(RESERVED_PREFIX):
                    self.at(i).name("a concept name")
                c: Concept = Atomic(tok)
            elif tok == "Top":
                c = TOP
            elif tok == "ran":
                raise self.at(i).error("'ran' is only allowed in 'rr' lines")
            elif len(enclosing) == MAX_CONCEPT_DEPTH:  # and, some
                raise self.at(i).error(f"concept nesting deeper than {MAX_CONCEPT_DEPTH} levels")
            else:
                if tokens[i + 1] != "(":
                    self.at(i + 1).take("(")
                i += 2
                if tok == "and":
                    enclosing.append(("and", None))
                    continue
                role = tokens[i]
                if role in _NOT_ROLES or role.startswith(RESERVED_PREFIX):
                    self.at(i).name("a role name")
                if tokens[i + 1] == ",":
                    enclosing.append(("some", role))
                    i += 2
                    continue
                if tokens[i + 1] != ")":
                    self.at(i + 1).take(")")
                c, lhs = Exists(role), False
                i += 1
            i += 1
            while enclosing:  # close every construct that ``c`` completes
                kind, held = enclosing[-1]
                if kind == "and" and held is None:
                    if tokens[i] != ",":
                        self.at(i).take(",")
                    enclosing[-1] = ("and", c)
                    i += 1
                    break
                if tokens[i] != ")":
                    self.at(i).take(")")
                enclosing.pop()
                i += 1
                c = Conj(held, c) if kind == "and" else ExistsQ(held, c)
            else:
                self.i = i
                return c, lhs

    def annotation(self, interned: dict[str, Monomial]) -> Monomial:
        """The ``@`` annotation ending the line; ``interned`` maps ``1`` and
        the variable names seen so far in a file to their monomials."""
        self.take("@")
        tok = self.tokens[self.i]
        if tok in interned:
            self.i += 1
            mon = interned[tok]
        elif tok not in _NOT_NAMES:
            mon = interned[tok] = Monomial((Variable(self.name("a provenance variable")),))
        else:
            got = tok or "end of line"
            raise self.error(f"annotation must be a single variable or 1, got {got!r}")
        self.finish("annotation must be a single variable or 1")
        return mon


def _parse_axiom(p: _LineParser) -> Axiom:
    """Check the axiom keyword and parse the axiom it starts."""
    keyword = p.tokens[p.i]
    if keyword not in ("gci", "ri", "rr", "ca", "ra"):
        raise p.error(f"expected one of gci/ri/rr/ca/ra, got {keyword or 'end of input'!r}")
    p.i += 1
    if keyword == "gci":
        lhs, in_grammar = p.concept()
        p.take("<=")
        rhs = p.concept()[0]
        if not in_grammar:
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
        if p.tokens[p.i] == "Top":
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


def parse_ontology(text: str) -> AnnotatedOntology:
    """Parse an ontology file; raises ParseError with line:column info.

    Lines break at ``\\n``, ``\\r\\n`` and ``\\r`` only. A namespace clash is
    reported at the first token of the line whose axiom completes it.
    """
    axioms: list[AnnotatedAxiom] = []
    places: list[tuple[int, str]] = []  # per axiom: its line number and text
    interned = {"1": ONE}
    for lineno, line in file_lines(text):
        line = line.rstrip()
        if not line:
            continue
        place = (lineno, line)
        p = _LineParser(ONTOLOGY_TOKENS, (place,))
        axioms.append(AnnotatedAxiom(_parse_axiom(p), p.annotation(interned)))
        places.append(place)
    try:
        return AnnotatedOntology(axioms)
    except NamespaceError as exc:
        # validation sees a repeated axiom at its first occurrence
        lineno, line = places[axioms.index(exc.axiom)]
        raise ParseError(str(exc), lineno, len(line) - len(line.lstrip(" \t")) + 1) from exc


def parse_axiom(text: str) -> Axiom:
    """Parse a single un-annotated axiom, e.g. for CLI --axiom arguments."""
    p = _LineParser(ONTOLOGY_TOKENS, ((1, text.strip()),))
    axiom = _parse_axiom(p)
    p.finish("trailing input after axiom")
    return axiom


def parse_iq_target(text: str) -> tuple[Concept, str]:
    """Parse an instance-query target of the form ``iq CONCEPT(IND)``."""
    p = _LineParser(ONTOLOGY_TOKENS, ((1, text.strip()),))
    p.take("iq")
    concept = p.concept()[0]
    p.take("(")
    ind = p.name("an individual name")
    p.take(")")
    p.finish("trailing input after axiom")
    return concept, ind
