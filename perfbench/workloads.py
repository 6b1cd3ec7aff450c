"""Seeded request generators for the four benchmark workloads.

Every request is one ``elprov`` command over its own ontology file. An
ontology is a generated *background* knowledge base that makes the
reasoner work, plus a *planted* component over disjoint names whose
answers are known by construction. Questions are asked only about the
planted component, so the expected answer never comes from the reasoner
under test. EL consequences over one signature cannot be produced by
axioms over another (neither part mentions ``Top``), so the background
cannot change a planted answer.

``make_request(workload, seed, index, directory)`` is a pure function of
its arguments: the same seed gives byte-identical files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("entail-k", "relevant", "query", "ingest")


@dataclass
class Request:
    """One CLI command plus what the checker needs to judge its output."""

    cls: str  # request class, e.g. "entail:gci" or "query:fork"
    argv: list[str]
    expect: dict = field(default_factory=dict)
    props: dict = field(default_factory=dict)  # measured input properties


def request_rng(workload: str, seed: int, index) -> random.Random:
    # str seeds hash with SHA-512 inside random, independent of PYTHONHASHSEED
    return random.Random(f"{workload}/{seed}/{index}")


# --- background: layered normal-form KB ---------------------------------------


def layered_kb(
    rng: random.Random,
    *,
    layers: int,
    width: int,
    roles: int,
    inds: int,
    nvars: int,
    p_one: float = 0.1,
) -> list[str]:
    """Tree ABox plus an acyclic TBox whose GCIs lead from layer l to l+1.

    Every layer-(l+1) concept has two plain subsumers, a conjunction and a
    qualified existential pointing at it, so most facts have several
    derivations; annotations are drawn from a shared variable pool, so
    many of those derivations collapse to the same monomial. One
    unqualified existential and one range restriction per layer make
    ``existential-composition`` fire. The layering bounds derivation
    depth, which bounds the blow-up tail.
    """
    out: list[str] = []

    def var() -> str:
        return "1" if rng.random() < p_one else f"v{rng.randrange(nvars)}"

    def c(layer: int, j: int) -> str:
        return f"A{layer}_{j}"

    role = [f"r{j}" for j in range(roles)]
    for j in range(1, roles):
        out.append(f"ri {role[j]} <= {role[rng.randrange(j)]} @ {var()}")
    for k in range(1, inds):
        out.append(f"ra {rng.choice(role)}(i{(k - 1) // 2}, i{k}) @ {var()}")
    for k in range(inds):
        for j in rng.sample(range(width), 2):
            out.append(f"ca {c(0, j)}(i{k}) @ {var()}")
    for layer in range(layers - 1):
        for j in range(width):
            target = c(layer + 1, j)
            a, b = rng.sample(range(width), 2)
            out.append(f"gci {c(layer, a)} <= {target} @ {var()}")
            out.append(f"gci {c(layer, b)} <= {target} @ {var()}")
            a, b = rng.sample(range(width), 2)
            out.append(f"gci and({c(layer, a)}, {c(layer, b)}) <= {target} @ {var()}")
            filler = c(layer, rng.randrange(width))
            out.append(f"gci some({rng.choice(role)}, {filler}) <= {target} @ {var()}")
        source = c(layer, rng.randrange(width))
        out.append(f"gci {source} <= some({rng.choice(role)}) @ {var()}")
        out.append(f"rr ran({rng.choice(role)}) <= {c(layer + 1, rng.randrange(width))} @ {var()}")
    return out


# --- planted component for entail-k and relevant -------------------------------
#
# Derived planted facts (every derivation, by hand):
#   P0(pa): x1        P1(pa): x1*x2      P2(pa): x1*x3
#   P3(pa): x1*x2*x4 and x1*x3*x5        (P7 is never derived, so x6 is dead)
#   q0(pa,pb): y1     q1(pa,pb): y1*y2   q2(pa,pb): y1*y2*y3
#   P4(pb): y1*z1     P5(pb): y1*z1*z2   P6(pb): y1*y2*z3

PLANTED = (
    "ca P0(pa) @ x1",
    "gci P0 <= P1 @ x2",
    "gci P0 <= P2 @ x3",
    "gci P1 <= P3 @ x4",
    "gci P2 <= P3 @ x5",
    "gci P7 <= P3 @ x6",
    "ra q0(pa, pb) @ y1",
    "ri q0 <= q1 @ y2",
    "ri q1 <= q2 @ y3",
    "rr ran(q0) <= P4 @ z1",
    "gci P4 <= P5 @ z2",
    "rr ran(q1) <= P6 @ z3",
)

# (kind, axiom, entailed monomials, monomials that are not entailed);
# every monomial has degree 1 to 3.
ENTAIL_QUESTIONS = {
    "assertion": (
        ("ca P3(pa)", ("x1*x2*x4", "x1*x3*x5"), ("x1*x2*x5", "x1*x3*x4", "x1*x4")),
        ("ca P1(pa)", ("x1*x2",), ("x1", "x2", "x1*x3")),
        ("ra q2(pa, pb)", ("y1*y2*y3",), ("y1*y3", "y1*y2")),
        ("ca P5(pb)", ("y1*z1*z2",), ("y1*z2", "z1*z2")),
    ),
    "gci": (
        ("gci P0 <= P3", ("x2*x4", "x3*x5"), ("x2*x5", "x1*x2*x4", "x4")),
        ("gci P1 <= P3", ("x4",), ("x5", "x2*x4")),
        ("gci P7 <= P3", ("x6",), ("x4",)),
        ("gci P4 <= P5", ("z2",), ("z1*z2",)),
    ),
    "ri": (
        ("ri q0 <= q2", ("y2*y3",), ("y2", "y3", "y1*y2*y3")),
        ("ri q0 <= q1", ("y2",), ("y1*y2",)),
    ),
    "rr": (
        ("rr ran(q0) <= P5", ("z1*z2",), ("z2", "y1*z1*z2")),
        ("rr ran(q0) <= P6", ("y2*z3",), ("z3",)),
        ("rr ran(q1) <= P6", ("z3",), ("y2*z3",)),
        ("rr ran(q1) <= P4", (), ("z1",)),
    ),
    "iq": (
        ("iq some(q1, P4)(pa)", ("y1*y2*z1",), ("y1*z1", "y1*y2*z2")),
        ("iq some(q0, P5)(pa)", ("y1*z1*z2",), ("y1*z1",)),
        ("iq and(P1, P2)(pa)", ("x1*x2*x3",), ("x1*x2",)),
        ("iq P3(pa)", ("x1*x2*x4", "x1*x3*x5"), ("x1*x2*x3",)),
    ),
}

# relevant variables of each target: the union over all its derivations
RELEVANT_TARGETS = {
    "ca": (("ca P3(pa)", "x1 x2 x3 x4 x5"), ("ca P5(pb)", "y1 z1 z2")),
    "ra": (("ra q2(pa, pb)", "y1 y2 y3"), ("ra q1(pa, pb)", "y1 y2")),
    "gci": (("gci P0 <= P3", "x2 x3 x4 x5"), ("gci P7 <= P3", "x6")),
    "rr": (("rr ran(q0) <= P6", "y2 z3"), ("rr ran(q0) <= P5", "z1 z2")),
    "iq": (("iq some(q1, P4)(pa)", "y1 y2 z1"), ("iq and(P1, P2)(pa)", "x1 x2 x3")),
}

ENTAIL_KINDS = tuple(ENTAIL_QUESTIONS)
RELEVANT_KINDS = tuple(RELEVANT_TARGETS)

ENTAIL_KB = dict(layers=4, width=6, roles=3, inds=14, nvars=30)
RELEVANT_KB = dict(layers=3, width=5, roles=3, inds=16, nvars=24)


def _write(directory: Path, name: str, lines) -> str:
    path = directory / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _planted_kb(rng: random.Random, directory: Path, name: str, shape: dict) -> str:
    lines = layered_kb(rng, **shape) + list(PLANTED)
    rng.shuffle(lines)
    return _write(directory, name, lines)


def _variants(kind: str) -> list[tuple[str, str, bool]]:
    out = []
    for axiom, yes, no in ENTAIL_QUESTIONS[kind]:
        out += [(axiom, mon, True) for mon in yes] + [(axiom, mon, False) for mon in no]
    return out


ENTAIL_VARIANTS = {kind: _variants(kind) for kind in ENTAIL_KINDS}


def entail_request(seed: int, index, directory: Path) -> Request:
    rng = request_rng("entail-k", seed, index)
    slot = _slot(index)
    kind = ENTAIL_KINDS[slot % len(ENTAIL_KINDS)]
    variants = ENTAIL_VARIANTS[kind]
    axiom, mon, entailed = variants[(slot // len(ENTAIL_KINDS)) % len(variants)]
    path = _planted_kb(rng, directory, f"entail-{index}.elp", ENTAIL_KB)
    argv = ["entail", "-i", path, "--kind", kind, "--axiom", axiom, "--prov", mon]
    return Request(f"entail:{kind}", argv, {"entailed": entailed}, {"entailed": entailed})


def relevant_request(seed: int, index, directory: Path) -> Request:
    rng = request_rng("relevant", seed, index)
    slot = _slot(index)
    kind = RELEVANT_KINDS[slot % len(RELEVANT_KINDS)]
    targets = RELEVANT_TARGETS[kind]
    axiom, names = targets[(slot // len(RELEVANT_KINDS)) % len(targets)]
    path = _planted_kb(rng, directory, f"relevant-{index}.elp", RELEVANT_KB)
    argv = ["relevant", "-i", path, "--axiom", axiom]
    return Request(f"relevant:{kind}", argv, {"relevant": sorted(names.split())})


# --- query: structured KB with existentials + planted graph --------------------


def query_kb(rng: random.Random, *, layers: int, width: int, inds: int, nvars: int) -> list[str]:
    """Tree ABox, one defining GCI per concept, existentials with ranges.

    Each layer has an unqualified existential whose role has a range and
    sits below a tree role, so the model creates anonymous elements that
    the next layer's qualified existentials look through.
    """
    out: list[str] = []

    def var() -> str:
        return f"v{rng.randrange(nvars)}"

    def c(layer: int, j: int) -> str:
        return f"A{layer}_{j}"

    out.append(f"ri r1 <= r0 @ {var()}")
    for k in range(1, inds):
        out.append(f"ra r{rng.randrange(2)}(i{(k - 1) // 2}, i{k}) @ {var()}")
    for k in range(inds):
        out.append(f"ca {c(0, rng.randrange(width))}(i{k}) @ {var()}")
    for layer in range(layers - 1):
        s = f"s{layer}"
        out.append(f"ri {s} <= r0 @ {var()}")
        out.append(f"gci {c(layer, rng.randrange(width))} <= some({s}) @ {var()}")
        out.append(f"rr ran({s}) <= {c(layer + 1, rng.randrange(width))} @ {var()}")
        for j in range(width):
            target = c(layer + 1, j)
            if rng.random() < 0.5:
                out.append(f"gci {c(layer, rng.randrange(width))} <= {target} @ {var()}")
            else:
                out.append(f"gci some(r0, {c(layer, rng.randrange(width))}) <= {target} @ {var()}")
    return out


# Planted graph over named individuals n<i>: C(n_i) @ wa<group>, edges
# qt(n_i, n_j) @ we<k>, and the TBox  C <= some(qt) @ wb,
# ran(qt) <= D @ wc,  qt <= qu @ wd.  Its canonical model is built
# independently by ``checks.planted_query_model``.

QUERY_TEMPLATES = {
    # name: (atoms, cycle variables, forks as (predecessors, representative))
    "path": ((("qu", "x", "y"), ("D", "y")), (), ()),
    "fork": ((("qt", "x", "y"), ("qt", "z", "y")), (), ((("x", "z"), "y"),)),
    "cycle": ((("qt", "x", "y"), ("qt", "y", "x")), ("x", "y"), ()),
    "chain3": ((("C", "x"), ("qt", "x", "y"), ("D", "y")), (), ()),
    "fork4": (
        (("C", "x"), ("qu", "x", "y"), ("qt", "z", "y"), ("D", "y")),
        (),
        ((("x", "z"), "y"),),
    ),
}
QUERY_KINDS = tuple(QUERY_TEMPLATES)

QUERY_KB = dict(layers=5, width=4, inds=56, nvars=40)
QUERY_PLANT = dict(named=12, groups=4)


def planted_graph(rng: random.Random, named: int, groups: int):
    group = [rng.randrange(groups) for _ in range(named)]
    edges: dict[tuple[int, int], None] = {}
    for i in range(named):
        for j in rng.sample(range(named), rng.randint(1, 2)):
            edges[(i, j)] = None
    for i in rng.sample(range(named), 2):
        edges[(i, i)] = None
    for _ in range(3):
        i, j = rng.sample(range(named), 2)
        edges[(i, j)] = None
        edges[(j, i)] = None
    return group, list(edges)


def query_text(template: str) -> str:
    atoms, _, _ = QUERY_TEMPLATES[template]
    parts = []
    for k, atom in enumerate(atoms):
        pred, *args = atom
        parts.append(f"{pred}({', '.join('?' + a for a in args)}, ?t{k})")
    return " & ".join(parts) + "\n"


def query_request(seed: int, index, directory: Path) -> Request:
    from checks import planted_query_answer  # the reference lives with the checker

    rng = request_rng("query", seed, index)
    slot = _slot(index)
    template = QUERY_KINDS[slot % len(QUERY_KINDS)]
    group, edges = planted_graph(rng, **QUERY_PLANT)
    lines = query_kb(rng, **QUERY_KB)
    lines += [f"ca C(n{i}) @ wa{g}" for i, g in enumerate(group)]
    lines += [f"ra qt(n{i}, n{j}) @ we{k}" for k, (i, j) in enumerate(edges)]
    lines += ["gci C <= some(qt) @ wb", "rr ran(qt) <= D @ wc", "ri qt <= qu @ wd"]
    rng.shuffle(lines)
    kb = _write(directory, f"query-{index}.elp", lines)
    qpath = directory / f"query-{index}.cq"
    qpath.write_text(query_text(template), encoding="utf-8")

    poly = planted_query_answer(template, group, edges)  # Counter: frozenset -> count
    choice = (slot // len(QUERY_KINDS)) % 4
    mons = sorted(poly, key=sorted)
    if choice == 0 or not mons:
        prov = dict(poly)  # the whole polynomial
    elif choice == 1:
        prov = {rng.choice(mons): 1}
    elif choice == 2:
        mon = rng.choice(mons)
        prov = dict(poly)
        prov[mon] += 1  # one occurrence too many
    else:
        prov = {frozenset(("wb", "wc", "wd")): 1}  # never a match monomial
    entailed = bool(poly) and all(poly.get(m, 0) >= n for m, n in prov.items())
    argv = ["query", "-i", kb, "-q", str(qpath), "--prov", render_polynomial(prov), "--json"]
    expect = {"entailed": entailed, "matches": sum(poly.values()), "polynomial": poly}
    props = {"entailed": entailed, "matches": sum(poly.values())}
    return Request(f"query:{template}", argv, expect, props)


def render_polynomial(poly: dict) -> str:
    parts = []
    for mon, count in sorted(poly.items(), key=lambda kv: sorted(kv[0])):
        text = "*".join(sorted(mon)) or "1"
        parts.append(text if count == 1 else f"{count} {text}")
    return " + ".join(parts) or "0"


# --- ingest: large general ontologies with nested left-hand sides -------------

INGEST_SHAPE = dict(axioms=1200, concepts=80, roles=8, inds=60, nvars=200, depth=4)


def _nested(rng: random.Random, depth: int, concepts: int, roles: int) -> str:
    if depth == 0 or rng.random() < 0.25:
        return f"K{rng.randrange(concepts)}"
    if rng.random() < 0.55:
        left = _nested(rng, depth - 1, concepts, roles)
        right = _nested(rng, depth - 1, concepts, roles)
        return f"and({left}, {right})"
    return f"some(t{rng.randrange(roles)}, {_nested(rng, depth - 1, concepts, roles)})"


def concept_depth(text: str) -> int:
    depth = best = 0
    for ch in text:
        if ch == "(":
            depth += 1
            best = max(best, depth)
        elif ch == ")":
            depth -= 1
    return best


def ingest_request(seed: int, index, directory: Path) -> Request:
    rng = request_rng("ingest", seed, index)
    s = INGEST_SHAPE
    lines = []
    depths = []
    for _ in range(s["axioms"]):
        var = f"u{rng.randrange(s['nvars'])}"
        pick = rng.random()
        if pick < 0.08:
            lines.append(f"ca K{rng.randrange(s['concepts'])}(j{rng.randrange(s['inds'])}) @ {var}")
        elif pick < 0.14:
            a, b = rng.randrange(s["inds"]), rng.randrange(s["inds"])
            lines.append(f"ra t{rng.randrange(s['roles'])}(j{a}, j{b}) @ {var}")
        elif pick < 0.17:
            lines.append(f"ri t{rng.randrange(s['roles'])} <= t{rng.randrange(s['roles'])} @ {var}")
        elif pick < 0.20:
            lines.append(f"rr ran(t{rng.randrange(s['roles'])}) <= K{rng.randrange(s['concepts'])} @ {var}")
        else:
            lhs = _nested(rng, s["depth"], s["concepts"], s["roles"])
            depths.append(concept_depth(lhs))
            if rng.random() < 0.8:
                rhs = f"K{rng.randrange(s['concepts'])}"
            else:
                rhs = f"some(t{rng.randrange(s['roles'])})"
            lines.append(f"gci {lhs} <= {rhs} @ {var}")
    path = _write(directory, f"ingest-{index}.elp", lines)
    props = {"nesting_depth": sum(depths) / len(depths), "max_nesting_depth": max(depths)}
    return Request("ingest:normalize", ["normalize", "-i", path, "--json"], {"input": path}, props)


_MAKERS = {
    "entail-k": entail_request,
    "relevant": relevant_request,
    "query": query_request,
    "ingest": ingest_request,
}


def _slot(index) -> int:
    # request classes and questions cycle deterministically, so every run
    # has the same mix and only the generated ontologies vary with the seed
    return index if isinstance(index, int) else int(str(index).rsplit("-", 1)[-1])


def request_classes(workload: str) -> int:
    return {
        "entail-k": len(ENTAIL_KINDS),
        "relevant": len(RELEVANT_KINDS),
        "query": len(QUERY_KINDS),
        "ingest": 1,
    }[workload]


def make_request(workload: str, seed: int, index, directory: Path) -> Request:
    return _MAKERS[workload](seed, index, directory)
