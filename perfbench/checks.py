"""Answer checker: judges every request against a reference the reasoner
under test did not produce.

``check(request, exit_code, stdout)`` returns ``None`` for a correct
answer and a one-line reason otherwise. References come from the planted
components in ``workloads``: entailment answers and relevant-variable
sets are tabulated by hand, query answers come from an independent
canonical model of the planted graph (``planted_query_model``) and a
brute-force matcher, and normalization is checked by unfolding the fresh
names back into the input axioms.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from pathlib import Path

import workloads

EXIT_ENTAILED, EXIT_NOT_ENTAILED = 0, 1


# --- planted query reference --------------------------------------------------


def planted_query_model(group: list[int], edges: list[tuple[int, int]]) -> dict:
    """Canonical model of the planted graph: predicate -> list of tuples.

    The TBox is ``C <= some(qt) @ wb``, ``ran(qt) <= D @ wc`` and
    ``qt <= qu @ wd``. Each C-member n_i gets an anonymous qt-successor
    shared by its whole group (anonymous elements are identified by role
    and edge monomial); ranges put D on every qt-target, and qu copies
    qt with wd added. Tuples end with their monomial, a frozenset.
    """
    model: dict[str, list[tuple]] = {"C": [], "qt": [], "qu": [], "D": []}
    for i, g in enumerate(group):
        named, aux = ("n", i), ("aux", g)
        model["C"].append((named, frozenset((f"wa{g}",))))
        edge = frozenset((f"wa{g}", "wb"))
        model["qt"].append((named, aux, edge))
        model["qu"].append((named, aux, edge | {"wd"}))
    for g in sorted(set(group)):
        model["D"].append((("aux", g), frozenset((f"wa{g}", "wb", "wc"))))
    for k, (i, j) in enumerate(edges):
        mon = frozenset((f"we{k}",))
        model["qt"].append((("n", i), ("n", j), mon))
        model["qu"].append((("n", i), ("n", j), mon | {"wd"}))
        model["D"].append((("n", j), mon | {"wc"}))
    return model


def match_polynomial(model: dict, atoms, cyc, forks) -> Counter:
    """Query polynomial over ``model``: one summand per match.

    Cycle variables may only be matched by named elements; when a fork's
    representative is matched by an anonymous element, its predecessors
    must coincide.
    """
    out: Counter = Counter()

    def extend(k: int, binding: dict, mon: frozenset) -> None:
        if k == len(atoms):
            if any(binding[v][0] == "aux" for v in cyc):
                return
            for pre, rep in forks:
                if binding[rep][0] == "aux" and len({binding[t] for t in pre}) > 1:
                    return
            out[mon] += 1
            return
        pred, *args = atoms[k]
        for row in model[pred]:
            *values, row_mon = row
            new = dict(binding)
            if all(new.setdefault(a, v) == v for a, v in zip(args, values)):
                extend(k + 1, new, mon | row_mon)

    extend(0, {}, frozenset())
    return out


def planted_query_answer(template: str, group, edges) -> Counter:
    atoms, cyc, forks = workloads.QUERY_TEMPLATES[template]
    return match_polynomial(planted_query_model(group, edges), atoms, cyc, forks)


def parse_polynomial_text(text: str) -> Counter:
    out: Counter = Counter()
    if text.strip() == "0":
        return out
    for part in text.split(" + "):
        count, _, mon = part.strip().rpartition(" ")
        names = frozenset() if mon == "1" else frozenset(mon.split("*"))
        out[names] += int(count) if count else 1
    return out


# --- ingest reference -------------------------------------------------------------

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_NORMAL_LHS = re.compile(rf"(?:{_NAME}|and\({_NAME}, {_NAME}\)|some\({_NAME}, {_NAME}\))\Z")
_ATOMIC = re.compile(rf"{_NAME}\Z")
_EXISTS = re.compile(rf"some\({_NAME}\)\Z")
_FRESH = re.compile(r"__nf\d+")


def _split_gci(line: str) -> tuple[str, str, str]:
    body, _, ann = line.rpartition(" @ ")
    lhs, _, rhs = body[len("gci "):].partition(" <= ")
    return lhs, rhs, ann


def check_normalized(input_path: str, lines: list[str]) -> str | None:
    """Output is in normal form and unfolds to exactly the input axioms."""
    if lines != sorted(lines):
        return "normalized axioms are not sorted"
    defs: dict[str, str] = {}
    kept: list[str] = []
    gcis: list[tuple[str, str, str]] = []
    for line in lines:
        if not line.startswith("gci "):
            kept.append(line)
            continue
        lhs, rhs, ann = _split_gci(line)
        if not _NORMAL_LHS.match(lhs):
            return f"left-hand side not in normal form: {line}"
        if _EXISTS.match(rhs):
            if not _ATOMIC.match(lhs):
                return f"existential with a complex left-hand side: {line}"
        elif not _ATOMIC.match(rhs):
            return f"right-hand side not in normal form: {line}"
        if rhs.startswith("__nf"):
            if rhs in defs or ann != "1":
                return f"fresh name defined twice or annotated: {line}"
            defs[rhs] = lhs
        else:
            gcis.append((lhs, rhs, ann))

    memo: dict[str, str] = {}

    def unfold(text: str, depth: int = 0) -> str:
        if depth > 64:
            raise ValueError("cyclic fresh-name definitions")
        return _FRESH.sub(lambda m: expand(m.group(0), depth), text)

    def expand(name: str, depth: int) -> str:
        if name not in memo:
            memo[name] = unfold(defs[name], depth + 1)
        return memo[name]

    try:
        got = {(unfold(lhs), rhs, ann) for lhs, rhs, ann in gcis}
    except (KeyError, ValueError) as exc:
        return f"fresh names do not unfold: {exc}"
    if len(got) != len(gcis):
        return "two normalized axioms unfold to the same input axiom"
    want_gcis, want_kept = set(), set()
    for line in Path(input_path).read_text(encoding="utf-8").splitlines():
        if line.startswith("gci "):
            want_gcis.add(_split_gci(line))
        elif line:
            want_kept.add(line)
    if got != want_gcis:
        return f"unfolded GCIs differ from the input ({len(got ^ want_gcis)} differ)"
    if set(kept) != want_kept or len(kept) != len(want_kept):
        return "assertions, role inclusions or ranges changed"
    return None


# --- per-request check ------------------------------------------------------------


def check(request: workloads.Request, exit_code: int, stdout: str) -> str | None:
    kind = request.cls.split(":", 1)[0]
    want = request.expect
    if kind == "entail":
        code = EXIT_ENTAILED if want["entailed"] else EXIT_NOT_ENTAILED
        text = "entailed\n" if want["entailed"] else "not entailed\n"
        if exit_code != code or stdout != text:
            return f"expected exit {code} {text.strip()!r}, got exit {exit_code} {stdout.strip()!r}"
        return None
    if kind == "relevant":
        if exit_code != 0:
            return f"exit {exit_code}"
        got = stdout.split()
        return None if got == want["relevant"] else f"relevant {got} != {want['relevant']}"
    if kind == "query":
        code = EXIT_ENTAILED if want["entailed"] else EXIT_NOT_ENTAILED
        if exit_code != code:
            return f"expected exit {code}, got {exit_code}"
        try:
            data = json.loads(stdout)
            poly = parse_polynomial_text(data["query_provenance"])
        except (ValueError, KeyError) as exc:
            return f"unreadable query output: {exc}"
        if data["entailed"] != want["entailed"] or data["matches"] != want["matches"]:
            got = f"{data['entailed']}/{data['matches']}"
            return f"entailed/matches {got} != {want['entailed']}/{want['matches']}"
        return None if poly == want["polynomial"] else "query polynomial differs"
    if kind == "ingest":
        if exit_code != 0:
            return f"exit {exit_code}"
        try:
            lines = json.loads(stdout)["axioms"]
        except (ValueError, KeyError) as exc:
            return f"unreadable normalize output: {exc}"
        return check_normalized(want["input"], lines)
    raise ValueError(f"unknown request class {request.cls!r}")
