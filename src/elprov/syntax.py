"""Lexical rules of the three input grammars, and the one scanner they share.

Ontology lines (files, ``--axiom``, ``iq`` targets), query files and
provenance monomials and polynomials (``--prov``) are each read by a
recursive descent over the tokens of a ``Scanner``. Each grammar names its
token alphabet as a module constant. The rules here are the same for all:
space and tab are the only blanks, lines break at ``\\n``, ``\\r\\n`` and
``\\r`` only (unlike ``str.splitlines``), any other character outside a
token is an error, and an error carries the line and column it is at.
In a file, ``#`` starts a comment that runs to the end of the line.
"""

from __future__ import annotations

import re
from typing import Sequence

__all__ = ["ParseError", "LINE_BREAK", "file_lines", "Scanner"]

LINE_BREAK = re.compile(r"\r\n|\r|\n")

# the token alphabets: names, then what else each grammar has
ONTOLOGY_TOKENS = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|1|<=|[(),@*]")
QUERY_TOKENS = re.compile(r"\??[A-Za-z_][A-Za-z0-9_]*|[(),&]")  # '?' starts a variable
PROVENANCE_TOKENS = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+|[*+]")


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
    error.
    """

    __slots__ = ("alphabet", "lines", "tokens", "i")

    def __init__(self, alphabet: re.Pattern, lines: Sequence[tuple[int, str]]):
        self.alphabet, self.lines = alphabet, lines
        tokens: list[str | None] = []
        for lineno, line in lines:
            found = alphabet.findall(line)
            if sum(map(len, found)) + line.count(" ") + line.count("\t") != len(line):
                covered = rf"(?:[ \t]*(?:{alphabet.pattern}))*[ \t]*"  # ends before the first stray
                col = re.match(covered, line).end() + 1
                raise ParseError(f"unexpected character {line[col - 1]!r}", lineno, col)
            tokens += found
        tokens.append(None)
        self.tokens, self.i = tokens, 0

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
            want = "le" if value == "<=" else value  # the ontology grammar's name for '<='
            raise self.error(f"expected {want!r}, got {tok or 'end of line'!r}")
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
