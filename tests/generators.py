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
