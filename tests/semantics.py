"""The annotated semantics, read directly off a finite interpretation.

The library answers every question through the completion rules and the
canonical model; it never evaluates a complex concept on a model. This
module is the second, direct reading of the semantics that the tests
check models against. ``evaluate_concept`` gives the (element, monomial)
pairs of a complex concept over plain extensions, ``extend_concept`` does
the same over an ``AnnotatedInterpretation``, and ``satisfies`` tells
whether an interpretation satisfies an annotated axiom. ``Ran`` is the
range of a role as a concept; the parser never builds one, and
``crosscheck.fixpoint_canonical_model`` evaluates a range restriction's
left-hand side with it.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from elprov.interpretation import AnnotatedInterpretation, DomainElement
from elprov.ontology import (
    CA,
    GCI,
    RA,
    RI,
    RR,
    AnnotatedAxiom,
    Atomic,
    Concept,
    Conj,
    Exists,
    ExistsQ,
    Top,
)
from elprov.provenance import ONE, Monomial


class Ran(Concept, fields=("role",)):
    """Range of a role; usable as an evaluable concept, not in GCIs."""

    __slots__ = ()
    _text = "ran(%s)"


def evaluate_concept(
    concept: Concept,
    domain: Iterable[DomainElement],
    concept_ext: Mapping[str, Iterable[tuple[DomainElement, Monomial]]],
    role_ext: Mapping[str, Iterable[tuple[DomainElement, DomainElement, Monomial]]],
) -> frozenset:
    """(element, monomial) pairs of a complex concept over the given extensions.

    The result never aliases a mutable extension, so a caller may add to
    the extensions while it iterates the result.
    """

    def ev(c: Concept) -> frozenset:
        if isinstance(c, Top):
            return frozenset((d, ONE) for d in domain)
        if isinstance(c, Atomic):
            return frozenset(concept_ext.get(c.name, ()))
        if isinstance(c, Exists):
            return frozenset((d, m) for d, _, m in role_ext.get(c.role, ()))
        if isinstance(c, Ran):
            return frozenset((e, m) for _, e, m in role_ext.get(c.role, ()))
        if isinstance(c, Conj):
            right = by_element(ev(c.right))
            return frozenset((d, m * n) for d, m in ev(c.left) for n in right.get(d, ()))
        if isinstance(c, ExistsQ):
            filler = by_element(ev(c.filler))
            return frozenset(
                (d, m * n) for d, e, m in role_ext.get(c.role, ()) for n in filler.get(e, ())
            )
        raise TypeError(f"not a concept: {c!r}")

    def by_element(pairs) -> dict[DomainElement, list[Monomial]]:
        out: dict[DomainElement, list[Monomial]] = {}
        for e, n in pairs:
            out.setdefault(e, []).append(n)
        return out

    return ev(concept)


def extend_concept(interp: AnnotatedInterpretation, concept: Concept) -> frozenset:
    """The (element, monomial) pairs of a complex concept in ``interp``."""
    return evaluate_concept(concept, interp.domain, interp.concept_ext, interp.role_ext)


def satisfies(interp: AnnotatedInterpretation, annotated: AnnotatedAxiom) -> bool:
    """Whether ``interp`` satisfies the annotated axiom."""
    ax, m = annotated.axiom, annotated.annotation
    if isinstance(ax, RI):
        sup = interp.role_triples(ax.sup)
        return all((d, e, m * n) in sup for d, e, n in interp.role_triples(ax.sub))
    if isinstance(ax, GCI):
        rhs = extend_concept(interp, ax.rhs)
        return all((d, m * n) in rhs for d, n in extend_concept(interp, ax.lhs))
    if isinstance(ax, RR):
        filler = interp.concept_pairs(ax.filler)
        return all((e, m * n) in filler for _, e, n in interp.role_triples(ax.role))
    if isinstance(ax, CA):
        el = interp.individuals.get(ax.ind)
        if el is None:
            return False
        if isinstance(ax.concept, Top):
            return m == ONE and el in interp.domain
        return (el, m) in interp.concept_pairs(ax.concept.name)
    if isinstance(ax, RA):
        a, b = interp.individuals.get(ax.a), interp.individuals.get(ax.b)
        return a is not None and b is not None and (a, b, m) in interp.role_triples(ax.role)
    raise TypeError(f"not an axiom: {ax!r}")
