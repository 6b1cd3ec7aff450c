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

Concepts and axioms are ``elprov.syntax._Node`` tuples tagged with their
class name, so ``==`` and ``hash`` run in C. The front end does each job
once. One parser reads a file's tokens from one scan, a line end being a
token; a line and column are computed only for an error. It claims each
name's kind where the grammar reads it, checks a name only when first
seen, and reads a concept in one loop that checks the left-hand side
grammar. A parsed ontology takes the parser's name table and its dedup
dict; a derived one (``extended``, ``normalize``) validates only the
axioms it adds, and ``normalize``, whose output has no repeats, hashes
none. The sorted name views and the dict answering membership and
equality are built when first needed. ``normalize`` rewrites ``(lhs,
rhs, annotation)`` triples and builds only the axioms it outputs.
"""

from __future__ import annotations

import re
from collections import deque
from collections.abc import Iterable, Iterator
from itertools import count, filterfalse, islice

from .provenance import ONE, Monomial, Variable
from .syntax import ONTOLOGY_FILE_TOKENS, ONTOLOGY_TOKENS, ParseError, Scanner, _new, _Node, file_text

__all__ = [
    "Concept",
    "Top",
    "TOP",
    "Atomic",
    "Conj",
    "Exists",
    "ExistsQ",
    "Axiom",
    "GCI",
    "RI",
    "RR",
    "CA",
    "RA",
    "AnnotatedAxiom",
    "AnnotatedOntology",
    "FreshNames",
    "ParseError",
    "NamespaceError",
    "parse_ontology",
    "parse_axiom",
    "parse_iq_target",
    "normalize",
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


class Concept(_Node):
    __slots__ = ()

    def __str__(self) -> str:
        """The file syntax, from one stack of what is left to write, so a deep
        concept does not recurse; a node of atomic fields is one step."""
        if type(self) is not Conj and type(self) is not ExistsQ:  # no concept inside
            return self._text % self[1:]
        out, stack = [], [self]
        while stack:
            c = stack.pop()
            kind = type(c)
            if kind is Conj and type(c[1]) is Atomic and type(c[2]) is Atomic:
                out.append(f"and({c[1][1]}, {c[2][1]})")
            elif kind is Conj:
                stack += (")", c[2], ", ", c[1], "and(")
            elif kind is ExistsQ and type(c[2]) is Atomic:
                out.append(f"some({c[1]}, {c[2][1]})")
            elif kind is ExistsQ:
                stack += (")", c[2], f"some({c[1]}, ")
            else:  # a piece of text, or a concept with no concept inside
                out.append(c if kind is str else c[1] if kind is Atomic else str(c))
        return "".join(out)


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


def is_atomic_or_top(c: Concept) -> bool:
    return isinstance(c, (Atomic, Top))


def _walk(c: Concept) -> tuple[list[str], list[str], bool, bool]:
    """One iterative pre-order walk over a concept.

    Returns its concept names and its role names, each in pre-order,
    whether Top occurs in it, and whether it is in the left-hand side
    grammar (``Exists`` or any other node anywhere is outside).
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
            if isinstance(c, Exists):
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
    ax = ann[1]
    return f"{ax._text % ax[1:]} @ {ann[2]}"


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
        for name in ann.annotation.names:
            claim(name, _VARIABLE)
    return top


class AnnotatedOntology:
    """An immutable, deduplicated set of annotated axioms.

    Construction validates the GCI grammar (restricted right-hand sides)
    and the mutual disjointness of the concept/role/individual/variable
    namespaces. A derived ontology (``extended``, ``normalize``) copies its
    parent's name-to-kind table and validates only what it adds. The name
    views and the dict answering membership and equality are built when needed.
    """

    __slots__ = ("axioms", "_top_occurs", "_kinds", "_index", "_views")

    def __init__(self, axioms: Iterable[AnnotatedAxiom]):
        index: dict[AnnotatedAxiom, None] = {}
        kinds: dict[str, str] = {}
        top = _claim(index, axioms, kinds)
        self.axioms: tuple[AnnotatedAxiom, ...] = tuple(index)
        self._index, self._kinds, self._top_occurs, self._views = index, kinds, top, None

    def _members(self) -> dict:
        if self._index is None:
            self._index = dict.fromkeys(self.axioms)
        return self._index

    # -- views ------------------------------------------------------------

    def _sorted(self) -> tuple:
        """The concept, role, individual and variable names, each sorted."""
        if self._views is None:
            names: dict[str, list] = {"concept": [], "role": [], "individual": [], _VARIABLE: []}
            for name, kind in self._kinds.items():
                names[kind].append(Variable(name) if kind == _VARIABLE else name)
            self._views = tuple(tuple(sorted(n)) for n in names.values())
        return self._views

    @property
    def concept_names(self) -> tuple[str, ...]:
        return self._sorted()[0]

    @property
    def role_names(self) -> tuple[str, ...]:
        return self._sorted()[1]

    @property
    def individuals(self) -> tuple[str, ...]:
        return self._sorted()[2]

    @property
    def variables(self) -> tuple[Variable, ...]:
        return self._sorted()[3]

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
        return ann in self._members()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AnnotatedOntology) and self._members().keys() == other._members().keys()

    def __hash__(self) -> int:
        return hash(frozenset(self.axioms))

    def extended(self, extra: Iterable[AnnotatedAxiom]) -> "AnnotatedOntology":
        """This ontology plus ``extra``; only the axioms it adds are validated."""
        index, kinds = dict(self._members()), dict(self._kinds)
        top = _claim(index, extra, kinds)
        return _valid(tuple(index), index, kinds, top or self._top_occurs)

    def __repr__(self) -> str:
        return f"AnnotatedOntology({len(self.axioms)} axioms)"


def _valid(axioms: tuple, index: dict | None, kinds: dict, top: bool) -> AnnotatedOntology:
    """The ontology of ``axioms``, valid and distinct, whose names ``kinds``
    claims; ``index`` is their dedup dict, or None until it is needed."""
    out = AnnotatedOntology.__new__(AnnotatedOntology)
    out.axioms, out._index, out._kinds, out._top_occurs, out._views = axioms, index, kinds, top, None
    return out


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
    The output is not deduplicated: a part has one fresh name, so an output
    GCI determines its input, and an axiom passed through has no fresh name.
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
    # the names ``__nf0``, ``__nf1``, ... that the ontology does not use
    fresh = filterfalse(ontology._kinds.__contains__, map("__nf{}".format, count()))
    memo: dict[Concept, Atomic] = {}
    pop, push, leaves = work.popleft, work.append, (Atomic, Top)
    while work:
        # a queued lhs is Atomic, Top, Conj or ExistsQ; ``part`` is named, at ``at``
        lhs, rhs, annotation = pop()
        kind = type(lhs)
        if (kind is Conj or kind is ExistsQ) and type(lhs[2]) not in leaves:
            part, at = lhs[2], 2
        elif kind is Conj and type(lhs[1]) not in leaves:
            part, at = lhs[1], 1
        elif kind in leaves or type(rhs) is Atomic:  # normal
            out.append(_new(AnnotatedAxiom, ("AnnotatedAxiom", _new(GCI, ("GCI", lhs, rhs)), annotation)))
            continue
        else:
            part, at = lhs, 0
        a = memo.get(part)
        if a is None:
            a = memo[part] = _new(Atomic, ("Atomic", next(fresh)))
            push((part, a, ONE))
        push((_new(kind, lhs[:at] + (a,) + lhs[at + 1 :]) if at else a, rhs, annotation))
    # the output is valid and names the input's names and the fresh ones
    kinds = dict(ontology._kinds)
    kinds.update((a.name, "concept") for a in memo.values())
    return _valid(tuple(out), None, kinds, ontology._top_occurs)


# --- parser ---------------------------------------------------------------

_NOT_NAMES = frozenset(("1", "<=", "(", ")", ",", "@", "*", "", None))  # "" ends a line, None the text

_CONCEPT_KEYWORDS = {"Top", "and", "some", "ran"}
_WHAT = {"concept": "a concept name", "role": "a role name", "individual": "an individual name",
         _VARIABLE: "a provenance variable"}  # a kind of name as the error messages word it

# Deepest and/some nesting the parser accepts. Parsing, the grammar and
# name walk, hashing, normalizing, ``str`` and the GCI probe do not recurse
# in Python, but ``==`` between distinct trees (in C) does, once per
# level; a bound well under the interpreter's recursion limit keeps it
# safe, in-process callers' frames included.
MAX_CONCEPT_DEPTH = 200


class _Parser(Scanner):
    """The ontology grammar over a file's or a line's tokens: axioms by
    recursive descent, a concept by one loop (``concept``). A name
    is claimed in ``kinds`` where it is read, checked only when first seen;
    one seen with another kind sets ``clash``. ``atoms`` and ``monomials``
    intern concept names and annotations; ``top`` tells if Top was read."""

    __slots__ = ("kinds", "atoms", "monomials", "top", "clash")

    def __init__(self, alphabet: re.Pattern, text: str, blanks: str = " \t"):
        self.kinds, self.atoms, self.monomials = {}, {}, {"1": ONE}
        self.top = self.clash = False
        super().__init__(alphabet, text, blanks)

    def name(self, kind: str) -> str:
        """The name at the current token, claimed as a ``kind`` name."""
        tok = self.tokens[self.i]
        prev = self.kinds.get(tok)
        if prev is None:
            if tok in _NOT_NAMES:
                raise self.error(f"expected {_WHAT[kind]}, got {tok or 'end of line'!r}")
            if tok in _CONCEPT_KEYWORDS:
                raise self.error(f"expected {_WHAT[kind]}, got keyword {tok!r}")
            if tok.startswith(RESERVED_PREFIX):
                raise self.error(f"names starting with {RESERVED_PREFIX!r} are reserved: {tok!r}")
            self.kinds[tok] = kind
        elif prev != kind:
            self.clash = True
        self.i += 1
        return tok

    def atom(self) -> Atomic:
        """The concept name at the current token, as its one ``Atomic``."""
        name = self.name("concept")
        return self.atoms.get(name) or self.atoms.setdefault(name, _new(Atomic, ("Atomic", name)))

    def concept(self) -> tuple[Concept, bool]:
        """The concept at the current token, and whether it is in the
        left-hand side grammar (has no ``some(R)``). One loop: ``enclosing``
        holds the open ``("and", None)``, ``("and", left)`` and ``("some",
        role)``, innermost last. Errors are a recursive descent's."""
        tokens, i, atoms, kinds = self.tokens, self.i, self.atoms, self.kinds
        enclosing: list[tuple[str, object]] = []
        lhs = True
        while True:
            tok = tokens[i]
            c = atoms.get(tok)
            if c is None:
                if tok in _NOT_NAMES:
                    raise self.at(i).error("expected a concept" + (f", got {tok!r}" if tok else ""))
                if tok not in _CONCEPT_KEYWORDS:
                    c = self.at(i).atom()
                elif tok == "Top":
                    c, self.top = TOP, True
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
                    if kinds.get(role) != "role":
                        self.at(i).name("role")
                    if tokens[i + 1] == ",":
                        enclosing.append(("some", role))
                        i += 2
                        continue
                    if tokens[i + 1] != ")":
                        self.at(i + 1).take(")")
                    c, lhs = _new(Exists, ("Exists", role)), False
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
                c = _new(Conj, ("Conj", held, c)) if kind == "and" else _new(ExistsQ, ("ExistsQ", held, c))
            else:
                self.i = i
                return c, lhs

    def annotation(self) -> Monomial:
        """The ``@`` annotation ending the line."""
        self.take("@")
        tok = self.tokens[self.i]
        mon = self.monomials.get(tok)
        if mon is not None:
            self.i += 1
        elif tok not in _NOT_NAMES:
            name = self.name(_VARIABLE)
            mon = self.monomials[name] = Monomial((Variable(name),))
        else:
            got = tok or "end of line"
            raise self.error(f"annotation must be a single variable or 1, got {got!r}")
        self.finish("annotation must be a single variable or 1")
        return mon


def _parse_axiom(p: _Parser) -> Axiom:
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
        if type(rhs) is not Atomic and type(rhs) is not Exists:
            raise p.error(f"right-hand side must be a concept name or some(R): {rhs}")
        return _new(GCI, ("GCI", lhs, rhs))
    if keyword == "ri":
        sub = p.name("role")
        p.take("<=")
        return _new(RI, ("RI", sub, p.name("role")))
    if keyword == "rr":
        p.take("ran")
        p.take("(")
        role = p.name("role")
        p.take(")")
        p.take("<=")
        return _new(RR, ("RR", role, p.name("concept")))
    if keyword == "ca":
        if p.tokens[p.i] == "Top":
            p.i += 1
            concept, p.top = TOP, True
        else:
            concept = p.atom()
        p.take("(")
        ind = p.name("individual")
        p.take(")")
        return _new(CA, ("CA", concept, ind))
    role = p.name("role")
    p.take("(")
    a = p.name("individual")
    p.take(",")
    b = p.name("individual")
    p.take(")")
    return _new(RA, ("RA", role, a, b))


def parse_ontology(text: str) -> AnnotatedOntology:
    """Parse an ontology file; raises ParseError with line:column info.

    Lines break at ``\\n``, ``\\r\\n`` and ``\\r`` only. An error is the
    first in line order, a stray character first on its line. A namespace
    clash is reported at the first token of the line whose axiom completes
    it; a syntax error on any line is reported before it.
    """
    text, stray = file_text(text) + "\n", None  # every line ends in a line-end token
    try:
        p = _Parser(ONTOLOGY_FILE_TOKENS, text, " \t\n")
    except ParseError as exc:  # the lines before the stray character are read first
        head = "\n".join(text.split("\n")[: exc.line - 1]) + "\n"
        stray, p = exc, _Parser(ONTOLOGY_FILE_TOKENS, head, " \t\n")
    axioms, tokens = [], p.tokens
    while tokens[p.i] is not None:
        if tokens[p.i]:
            axioms.append(_new(AnnotatedAxiom, ("AnnotatedAxiom", _parse_axiom(p), p.annotation())))
        p.i += 1  # the line end
    if stray:
        raise stray
    if not p.clash:  # the names are claimed and valid: build with no second walk
        index = dict.fromkeys(axioms)
        return _valid(tuple(index), index, p.kinds, p.top)
    try:  # the whole file parsed; ``_claim`` finds and words the clash
        return AnnotatedOntology(axioms)
    except NamespaceError as exc:
        # validation sees a repeated axiom at its first occurrence
        starts = [i for i, tok in enumerate(p.tokens) if tok and not p.tokens[i - 1]]
        raise p.at(starts[axioms.index(exc.axiom)]).error(str(exc)) from exc


def parse_axiom(text: str) -> Axiom:
    """Parse a single un-annotated axiom, e.g. for CLI --axiom arguments."""
    p = _Parser(ONTOLOGY_TOKENS, text.strip())
    axiom = _parse_axiom(p)
    p.finish("trailing input after axiom")
    return axiom


def parse_iq_target(text: str) -> tuple[Concept, str]:
    """Parse an instance-query target of the form ``iq CONCEPT(IND)``."""
    p = _Parser(ONTOLOGY_TOKENS, text.strip())
    p.take("iq")
    concept = p.concept()[0]
    p.take("(")
    ind = p.name("individual")
    p.take(")")
    p.finish("trailing input after axiom")
    return concept, ind
