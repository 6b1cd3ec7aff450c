"""Relevant provenance variables via merged-monomial saturation.

Instead of keeping every derived monomial apart, the relevance algorithm
keeps a single monomial per axiom and unions in the variables of every
new derivation. A variable is relevant for an atomic assertion exactly
when it occurs in that assertion's merged monomial, and the merged set
is computed in polynomial time because each axiom's monomial can only
grow towards the full variable set of the ontology.

``relevant_monomial`` serves every target: inclusion axioms and instance
queries go through the same probe as entailment (``completion.probe``),
and the probe's reserved helper variables are stripped from the result.
A target whose merged monomial lacks one of the probe's markers has no
relevant variables: ``entails`` asks for a stored monomial that holds
every marker, and every stored monomial is contained in the merged one.
"""

from __future__ import annotations

from functools import cached_property

from .completion import Limits, _axiom, _fact, _MergeStore, _Saturator, _VarTable, probe
from .ontology import AnnotatedOntology, Axiom, normalize
from .provenance import Monomial, _monomial_of

__all__ = [
    "MergedSet",
    "merged_saturate",
    "relevant_monomial",
]


class MergedSet:
    """Saturated axiom -> merged monomial mapping, plus update statistics."""

    def __init__(self, merged: dict[tuple, int], table: _VarTable, merge_updates: int):
        self._merged = merged
        self._table = table
        self.merge_updates = merge_updates

    @cached_property
    def entries(self) -> dict[Axiom, Monomial]:
        return {_axiom(fact): self._table.monomial(mask) for fact, mask in self._merged.items()}

    def monomial(self, axiom: Axiom) -> Monomial | None:
        mask = self._merged.get(_fact(axiom))
        return None if mask is None else self._table.monomial(mask)

    def __len__(self) -> int:
        return len(self._merged)


def merged_saturate(ontology: AnnotatedOntology, *, limits: Limits | None = None) -> MergedSet:
    """Saturate a normal-form ontology under the merge-update policy.

    Every seed and every rule application either inserts a new axiom or
    grows an existing axiom's monomial, so several annotations of one
    input axiom merge like any two derivations.
    """
    store = _MergeStore()
    sat = _Saturator(ontology, store, limits, track=False)
    return MergedSet(store.by_fact, sat.table, sat.run().merge_updates)


def relevant_monomial(
    ontology: AnnotatedOntology, target, limits: Limits | None = None
) -> Monomial | None:
    """Merged annotation of ``target``: the product of its relevant variables.

    ``target`` is any axiom or a ``(concept, ind)`` instance query. None
    when no derivation exists or the derivations together miss a probe
    marker (for a range restriction: the probe edge's, for a GCI: one of
    its left-hand side's); ``1`` when derivations use no variables of the
    ontology.
    """
    extended, assertion, markers = probe(ontology, target)
    mon = merged_saturate(normalize(extended), limits=limits).monomial(assertion)
    if mon is None or not set(markers.names).issubset(mon.names):
        return None
    return _monomial_of(tuple(name for name in mon.names if not name.startswith("__")))
