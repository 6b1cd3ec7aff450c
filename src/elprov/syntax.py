"""Lexical rules of the three input grammars, the one scanner they share,
and the one immutable value type, ``_Node``.

Ontology lines (files, ``--axiom``, ``iq`` targets), query files and
provenance monomials and polynomials (``--prov``) are each read by a
recursive descent over the tokens of a ``Scanner``. Each grammar names its
token alphabet as a module constant. The rules here are the same for all:
space and tab are the only blanks, lines break at ``\\n``, ``\\r\\n`` and
``\\r`` only (unlike ``str.splitlines``), any other character outside a
token is an error, and an error carries the line and column it is at.
In a file, ``#`` starts a comment that runs to the end of the line.

Concepts, axioms, provenance variables, query terms and atoms, and the
domain elements of a model are ``_Node`` subclasses.
"""

from __future__ import annotations

import re
from operator import itemgetter
from typing import Sequence

__all__ = ["ParseError", "LINE_BREAK", "file_lines", "Scanner"]

LINE_BREAK = re.compile(r"\r\n|\r|\n")

# the token alphabets: names, then what else each grammar has
ONTOLOGY_TOKENS = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|1|<=|[(),@*]")
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


def file_lines(text: str) -> list[tuple[int, str]]:
    """The numbered lines of a file, each without its ``#`` comment."""
    return [(n, line.split("#", 1)[0]) for n, line in enumerate(LINE_BREAK.split(text), 1)]


class Scanner:
    """The tokens of some numbered lines, for a recursive-descent parser.

    One ``findall`` of the grammar's ``alphabet`` per line gives plain string
    tokens whose kind is read off the token; the tokens, spaces and tabs
    have to cover the line. The lines' tokens follow each other and then
    ``None``. ``i`` is the parser's place; a column is computed only for an
    error. ``read`` moves a scanner on to other lines.
    """

    __slots__ = ("alphabet", "lines", "tokens", "i")

    def __init__(self, alphabet: re.Pattern, lines: Sequence[tuple[int, str]]):
        self.alphabet = alphabet
        self.read(lines)

    def read(self, lines: Sequence[tuple[int, str]]) -> None:
        """Scan ``lines`` in place of the scanner's lines, from their first token."""
        alphabet, tokens = self.alphabet, []
        for lineno, line in lines:
            found = alphabet.findall(line)
            if sum(map(len, found)) + line.count(" ") + line.count("\t") != len(line):
                covered = rf"(?:[ \t]*(?:{alphabet.pattern}))*[ \t]*"  # ends before the first stray
                col = re.match(covered, line).end() + 1
                raise ParseError(f"unexpected character {line[col - 1]!r}", lineno, col)
            tokens += found
        tokens.append(None)
        self.lines, self.tokens, self.i = lines, tokens, 0

    def error(self, message: str) -> ParseError:
        """An error at the current token, or just past the last line with a token."""
        i, end = self.i, self.lines[-1]
        for lineno, line in self.lines:
            starts = [m.start() + 1 for m in self.alphabet.finditer(line)]
            if i < len(starts):
                return ParseError(message, lineno, starts[i])
            i -= len(starts)
            if starts:
                end = (lineno, line)
        return ParseError(message, end[0], len(end[1]) + 1)

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
        if self.tokens[self.i] is not None:
            raise self.error(message)
