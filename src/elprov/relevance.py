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
"""

from __future__ import annotations

from dataclasses import dataclass

from .completion import Limits, _MergeStore, _Saturator, probe
from .ontology import AnnotatedAxiom, AnnotatedOntology, Axiom, normalize
from .provenance import Monomial

__all__ = [
    "MergedSet",
    "merged_saturate",
    "relevant_monomial",
]


@dataclass(frozen=True)
class MergedSet:
    """Saturated axiom -> merged monomial mapping, plus update statistics."""

    entries: dict[Axiom, Monomial]
    merge_updates: int

    def monomial(self, axiom: Axiom) -> Monomial | None:
        return self.entries.get(axiom)

    def __len__(self) -> int:
        return len(self.entries)


def merged_saturate(
    ontology: AnnotatedOntology,
    *,
    limits: Limits | None = None,
    disabled_rules=(),
) -> MergedSet:
    """Saturate a normal-form ontology under the merge-update policy.

    Initialization already merges multiple annotations of one axiom into
    a single monomial; every rule application then either inserts a new
    axiom or grows an existing axiom's monomial.
    """
    merged: dict[Axiom, Monomial] = {}
    for ann in ontology.axioms:
        current = merged.get(ann.axiom)
        merged[ann.axiom] = ann.annotation if current is None else current * ann.annotation
    seeds = AnnotatedOntology([AnnotatedAxiom(ax, mon) for ax, mon in merged.items()])
    store = _MergeStore()
    sat = _Saturator(seeds, store, disabled_rules, limits, track=False)
    stats = sat.run()
    entries = {ax: sat.table.monomial(mask) for ax, mask in store.by_axiom.items()}
    return MergedSet(entries=entries, merge_updates=stats.merge_updates)


def relevant_monomial(
    ontology: AnnotatedOntology, target, limits: Limits | None = None
) -> Monomial | None:
    """Merged annotation of ``target``: the product of its relevant variables.

    ``target`` is any axiom or a ``(concept, ind)`` instance query. None
    when no derivation exists (for a range restriction: none through the
    probe edge); ``1`` when derivations use no variables of the ontology.
    """
    extended, assertion, markers, required = probe(ontology, target)
    mon = merged_saturate(normalize(extended), limits=limits).monomial(assertion)
    if mon is None or (required and not markers.variables() <= mon.variables()):
        return None
    return Monomial(tuple(v for v in mon.vars if not v.name.startswith("__")))
