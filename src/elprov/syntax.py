"""Lexical rules of the three input grammars, the one scanner they share,
and the one immutable value type, ``_Node``.

Ontology files and lines (``--axiom``, ``iq`` targets), query files and
provenance monomials and polynomials (``--prov``) are each read by a
recursive descent over the tokens of one ``Scanner`` pass over the text.
Each grammar names its token alphabet as a module constant. The rules here
are the same for all: space and tab are the only blanks, lines break at
``\\n``, ``\\r\\n`` and ``\\r`` only (unlike ``str.splitlines``), any other
character outside a token is an error, and an error carries the line and
column it is at. In a file, ``#`` starts a comment that runs to the end of
the line. A line end is a token of an ontology file and a blank of a query.

Concepts, axioms, provenance variables, query terms and atoms, and the
domain elements of a model are ``_Node`` subclasses.
"""

from __future__ import annotations

import re
from itertools import islice
from operator import itemgetter

__all__ = ["ParseError", "LINE_BREAK", "file_text", "Scanner"]

LINE_BREAK = re.compile(r"\r\n|\r|\n")
_COMMENT = re.compile(r"#[^\n]*")

# the token alphabets: names, then what else each grammar has; in an
# ontology file a line end is a token, which the empty group makes ""
ONTOLOGY_TOKENS = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|1|<=|[(),@*]")
ONTOLOGY_FILE_TOKENS = re.compile(rf"({ONTOLOGY_TOKENS.pattern})|\n")
QUERY_TOKENS = re.compile(r"\??[A-Za-z_][A-Za-z0-9_]*|[(),&]")  # '?' starts a variable
PROVENANCE_TOKENS = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+|[*+]")


_new = tuple.__new__  # builds a node without a Python-level call


class _Node(tuple):
    """An immutable value: a tuple of its class name and then its fields, so
    ``==``, ``hash`` and ``<`` run in C, hashing does not recurse in Python,
    and a node equals the plain tuple of its tag and fields. Nodes of one
    type sort by their fields; nodes of different types never compare
    equal. A class names its ``fields``: its constructor takes them, unless
    the class defines its own ``__new__`` (to check them), and
    ``property(itemgetter(i))`` reads them. ``repr`` is dataclass-style and
    a pickle carries the fields, never a hash, which depends on the
    process's string hash seed. ``_text``, where a class has it, is the
    node written out, ``%``-formatted with the fields. ``==`` between two
    deep trees built apart compares them level by level in C, under the
    recursion limit."""

    __slots__ = ()

    def __init_subclass__(cls, fields: tuple[str, ...] = (), **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__match_args__ = fields
        for i, name in enumerate(fields, 1):
            setattr(cls, name, property(itemgetter(i)))
        if "__new__" in cls.__dict__:
            return
        # a constructor taking the fields, made as collections.namedtuple makes
        # its own: a plain call is what the parser and normalize pay per node
        args, scope = "".join(f"{f}, " for f in fields), {"new": _new}
        exec(f"def __new__(cls, {args}):\n    return new(cls, ({cls.__name__!r}, {args}))", scope)
        cls.__new__ = scope["__new__"]

    def __getnewargs__(self) -> tuple:
        return self[1:]

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self[1:]))
        return f"{type(self).__qualname__}({fields})"

    def __str__(self) -> str:
        return self._text % self[1:]


class ParseError(ValueError):
    """Syntax or well-formedness error with source position.

    ``source`` names where the text came from when the caller knows better
    than the parser (the CLI sets it for ``--axiom``, ``--prov`` and query
    files).
    """

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column
        self.source: str | None = None


def file_text(text: str) -> str:
    """A file's text without its ``#`` comments, every ``LINE_BREAK`` a ``\\n``."""
    return _COMMENT.sub("", text.replace("\r\n", "\n").replace("\r", "\n"))


def _error(text: str, at: int, message: str) -> ParseError:
    """An error at offset ``at`` of ``text``, whose lines break at ``\\n``."""
    return ParseError(message, text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at))


class Scanner:
    """The tokens of a text, for a recursive-descent parser.

    One ``findall`` of the grammar's ``alphabet`` over the whole text gives
    plain string tokens whose kind is read off the token, then ``None``. A
    line end is the token ``""`` where the alphabet has one (an ontology
    file), so it is also one of the ``blanks``: the tokens and the blanks
    have to cover the text. ``i`` is the parser's place; a line and column
    are computed only for an error.
    """

    __slots__ = ("alphabet", "text", "tokens", "i")

    def __init__(self, alphabet: re.Pattern, text: str, blanks: str = " \t"):
        tokens = alphabet.findall(text)
        if len("".join(tokens)) + sum(map(text.count, blanks)) != len(text):
            covered = rf"(?:[{blanks}]*(?:{alphabet.pattern}))*[{blanks}]*"  # ends before the first stray
            at = re.match(covered, text).end()
            raise _error(text, at, f"unexpected character {text[at]!r}")
        tokens.append(None)
        self.alphabet, self.text, self.tokens, self.i = alphabet, text, tokens, 0

    def error(self, message: str) -> ParseError:
        """An error at the current token; at a line end or the end of the
        text just past the token before it."""
        i, text = self.i, self.text
        spans = [m.span() for m in islice(self.alphabet.finditer(text), i + 1)]
        at = spans[i][0] if self.tokens[i] else spans[i - 1][1] if i else 0
        return _error(text, at, message)

    def at(self, i: int) -> "Scanner":
        """This scanner moved to token ``i``, to raise an error there."""
        self.i = i
        return self

    def take(self, value: str) -> None:
        tok = self.tokens[self.i]
        if tok != value:
            raise self.error(f"expected {value!r}, got {tok or 'end of line'!r}")
        self.i += 1

    def name(self, what: str) -> str:
        """The name at the current token: a letter or ``_``, then letters, digits, ``_``."""
        tok = self.tokens[self.i]
        if tok is None or not tok.isidentifier():
            raise self.error(f"expected {what}, got {tok or 'end of line'!r}")
        self.i += 1
        return tok

    def finish(self, message: str) -> None:
        """The current token has to end the line (or the text)."""
        if self.tokens[self.i]:
            raise self.error(message)
