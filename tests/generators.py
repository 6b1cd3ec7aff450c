"""Seeded random ontology, monomial and query generators for property tests."""

from __future__ import annotations

import random

from elprov.interpretation import BCQ, ConceptAtom, Ind, RoleAtom, Var
from elprov.ontology import (
    CA,
    GCI,
    RA,
    RI,
    RR,
    AnnotatedAxiom,
    AnnotatedOntology,
    Atomic,
    Conj,
    Exists,
    ExistsQ,
    TOP,
)
from elprov.provenance import ONE, Monomial, Variable

CONCEPTS = ("A", "B", "C", "D")
ROLES = ("R", "S")
INDS = ("a", "b", "c")
VARS = tuple(Variable(f"v{i}") for i in range(1, 5))


def render_ontology(o: AnnotatedOntology) -> str:
    """An ontology in the file syntax, one annotated axiom a line."""
    return "".join(f"{ann}\n" for ann in o)


def _annotation(rng: random.Random, pool: tuple[Variable, ...] = VARS) -> Monomial:
    if rng.random() < 0.15:
        return ONE
    return Monomial((rng.choice(pool),))


def _atomic_or_top(rng: random.Random, top_prob: float = 0.12, concepts=CONCEPTS):
    if rng.random() < top_prob:
        return TOP
    return Atomic(rng.choice(concepts))


def random_normalized_ontology(
    rng: random.Random,
    max_axioms: int = 6,
    *,
    min_axioms: int = 2,
    n_vars: int | None = None,
    n_names: int | None = None,
) -> AnnotatedOntology:
    """Normal-form ontology over the fixed small signature by default.

    ``n_vars`` draws annotations from the pool v1..v<n_vars> instead of
    ``VARS``; ``n_names`` uses n_names concepts, n_names // 4 roles and
    n_names // 2 individuals instead of the fixed names, which keeps larger
    ontologies sparse enough for full saturation.
    """
    pool = VARS if n_vars is None else tuple(Variable(f"v{i}") for i in range(1, n_vars + 1))
    concepts, roles, inds = CONCEPTS, ROLES, INDS
    if n_names is not None:
        concepts = tuple(f"C{i}" for i in range(n_names))
        roles = tuple(f"R{i}" for i in range(n_names // 4))
        inds = tuple(f"i{i}" for i in range(n_names // 2))

    def atomic_or_top():
        return _atomic_or_top(rng, concepts=concepts)

    axioms = []
    n = rng.randint(min_axioms, max_axioms)
    for _ in range(n):
        shape = rng.randrange(8)
        if shape == 0:
            ax = CA(Atomic(rng.choice(concepts)), rng.choice(inds))
        elif shape == 1:
            ax = RA(rng.choice(roles), rng.choice(inds), rng.choice(inds))
        elif shape == 2:
            ax = GCI(atomic_or_top(), Atomic(rng.choice(concepts)))
        elif shape == 3:
            ax = GCI(Conj(atomic_or_top(), atomic_or_top()), Atomic(rng.choice(concepts)))
        elif shape == 4:
            ax = GCI(atomic_or_top(), Exists(rng.choice(roles)))
        elif shape == 5:
            ax = GCI(ExistsQ(rng.choice(roles), atomic_or_top()), Atomic(rng.choice(concepts)))
        elif shape == 6:
            ax = RI(rng.choice(roles), rng.choice(roles))
        else:
            ax = RR(rng.choice(roles), rng.choice(concepts))
        axioms.append(AnnotatedAxiom(ax, _annotation(rng, pool)))
    return AnnotatedOntology(axioms)


def _random_lhs(rng: random.Random, depth: int):
    if depth <= 0:
        return _atomic_or_top(rng)
    pick = rng.random()
    if pick < 0.4:
        return _atomic_or_top(rng)
    if pick < 0.7:
        return Conj(_random_lhs(rng, depth - 1), _random_lhs(rng, depth - 1))
    return ExistsQ(rng.choice(ROLES), _random_lhs(rng, depth - 1))


def random_general_ontology(rng: random.Random, max_axioms: int = 6) -> AnnotatedOntology:
    """Restricted-syntax ontology whose GCI left-hand sides may be nested."""
    axioms = []
    n = rng.randint(2, max_axioms)
    for _ in range(n):
        shape = rng.randrange(8)
        if shape == 0:
            ax = CA(Atomic(rng.choice(CONCEPTS)), rng.choice(INDS))
        elif shape == 1:
            ax = RA(rng.choice(ROLES), rng.choice(INDS), rng.choice(INDS))
        elif shape in (2, 3, 4):
            rhs = Atomic(rng.choice(CONCEPTS)) if rng.random() < 0.7 else Exists(rng.choice(ROLES))
            ax = GCI(_random_lhs(rng, 2), rhs)
        elif shape == 5:
            ax = RI(rng.choice(ROLES), rng.choice(ROLES))
        else:
            ax = RR(rng.choice(ROLES), rng.choice(CONCEPTS))
        axioms.append(AnnotatedAxiom(ax, _annotation(rng)))
    return AnnotatedOntology(axioms)


TARGET_KINDS = ("ca", "ra", "gci", "ri", "rr", "iq")


def random_target(rng: random.Random, ontology: AnnotatedOntology, kind: str):
    """A target of ``kind`` (one of ``TARGET_KINDS``) over the ontology's names.

    ``ca`` and ``iq`` may ask about Top, and an ``iq`` concept may be
    ``some(R, C)``. A ``gci`` left-hand side is a name, Top, a
    conjunction of two or ``some(R, C)``, and its right-hand side a name
    or ``some(R)``. None when the ontology has too few names for ``kind``.
    """
    concepts = [Atomic(c) for c in ontology.concept_names]
    roles, inds = ontology.role_names, ontology.individuals

    def concept(top_prob: float = 0.15):
        return TOP if not concepts or rng.random() < top_prob else rng.choice(concepts)

    if kind == "ca":
        return CA(concept(), rng.choice(inds)) if inds else None
    if kind == "ra":
        return RA(rng.choice(roles), rng.choice(inds), rng.choice(inds)) if roles and inds else None
    if kind == "ri":
        return RI(rng.choice(roles), rng.choice(roles)) if roles else None
    if kind == "rr":
        return RR(rng.choice(roles), rng.choice(concepts).name) if roles and concepts else None
    if kind == "iq":
        if not inds:
            return None
        some = roles and rng.random() < 0.4
        return (ExistsQ(rng.choice(roles), concept()) if some else concept(), rng.choice(inds))
    if kind != "gci":
        raise ValueError(f"unknown target kind {kind!r}")
    if not concepts:
        return None
    pick = rng.randrange(4)
    if pick == 0 or (pick == 3 and not roles):
        lhs = concept(0.0)
    elif pick == 1:
        lhs = TOP
    elif pick == 2:
        lhs = Conj(concept(), concept())
    else:
        lhs = ExistsQ(rng.choice(roles), concept())
    rhs = Exists(rng.choice(roles)) if roles and rng.random() < 0.3 else rng.choice(concepts)
    return GCI(lhs, rhs)


def random_monomial(rng: random.Random, max_vars: int = 4) -> Monomial:
    k = rng.randint(0, max_vars)
    return Monomial(tuple(rng.sample(VARS, k)))


def random_query(
    rng: random.Random,
    concepts: tuple[str, ...],
    roles: tuple[str, ...],
    inds: tuple[str, ...] = (),
    max_atoms: int = 5,
) -> BCQ:
    """A query of 1..max_atoms atoms over the given names.

    A few variables are shared among the atoms, so cycles, forks and
    atoms sharing no term with the rest all occur; some role atoms
    repeat a term (``R(?x, ?x, ?t)``) and some terms are individuals.
    """
    variables = [Var(f"x{i}") for i in range(rng.randint(1, 4))]

    def term():
        if inds and rng.random() < 0.15:
            return Ind(rng.choice(inds))
        return rng.choice(variables)

    atoms = []
    for k in range(rng.randint(1, max_atoms)):
        if not roles or (concepts and rng.random() < 0.4):
            atoms.append(ConceptAtom(rng.choice(concepts), term(), Var(f"t{k}")))
        else:
            a = term()
            b = a if rng.random() < 0.15 else term()
            atoms.append(RoleAtom(rng.choice(roles), a, b, Var(f"t{k}")))
    return BCQ(atoms)


def _nested_concept(rng: random.Random, depth: int, concepts: int, roles: int) -> str:
    if depth == 0 or rng.random() < 0.25:
        return f"K{rng.randrange(concepts)}"
    if rng.random() < 0.55:
        left = _nested_concept(rng, depth - 1, concepts, roles)
        right = _nested_concept(rng, depth - 1, concepts, roles)
        return f"and({left}, {right})"
    return f"some(t{rng.randrange(roles)}, {_nested_concept(rng, depth - 1, concepts, roles)})"


def ontology_lines(rng: random.Random, n: int, depth: int) -> list[str]:
    """``n`` axiom lines in the file syntax, of every keyword.

    GCI left-hand sides nest and/some up to ``depth`` levels: depth 1
    gives the flat names, conjunctions and ``some(R, C)`` of a layered
    normal-form KB, depth 4 the nested left-hand sides of a large
    general ontology. Names come from pools of 40 concepts, 6 roles, 30
    individuals and 100 variables; an annotation is ``1`` one time in ten.
    """
    lines = []
    for _ in range(n):
        var = "1" if rng.random() < 0.1 else f"u{rng.randrange(100)}"
        pick = rng.random()
        if pick < 0.1:
            lines.append(f"ca K{rng.randrange(40)}(j{rng.randrange(30)}) @ {var}")
        elif pick < 0.2:
            a, b = rng.randrange(30), rng.randrange(30)
            lines.append(f"ra t{rng.randrange(6)}(j{a}, j{b}) @ {var}")
        elif pick < 0.25:
            lines.append(f"ri t{rng.randrange(6)} <= t{rng.randrange(6)} @ {var}")
        elif pick < 0.3:
            lines.append(f"rr ran(t{rng.randrange(6)}) <= K{rng.randrange(40)} @ {var}")
        else:
            lhs = _nested_concept(rng, depth, 40, 6)
            rhs = f"K{rng.randrange(40)}" if rng.random() < 0.8 else f"some(t{rng.randrange(6)})"
            lines.append(f"gci {lhs} <= {rhs} @ {var}")
    return lines
