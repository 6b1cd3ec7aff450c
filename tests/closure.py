"""Naive re-scan of the completion rules over a finished saturated set.

Deliberately brute force and structured independently of the engine's
semi-naive joins: enumerates premise combinations over the final set.
``missing_conclusions`` reports any in-bound conclusion that the set
lacks; ``instance_counts`` counts the rule instances whose product is
within the set's k, which the engine fires exactly once each.
"""

from __future__ import annotations

from collections import Counter

from elprov.completion import SaturatedSet
from elprov.ontology import CA, GCI, RA, RI, RR, Atomic, Conj, Exists, ExistsQ, TOP, Top
from elprov.provenance import ONE


def _facts(sat: SaturatedSet):
    ris, rrs, subs, exrs, conjs, exqs, cas, ras = [], [], [], [], [], [], [], []
    for ann in sat.axioms:
        ax, m = ann.axiom, ann.annotation
        if isinstance(ax, RI):
            ris.append((ax, m))
        elif isinstance(ax, RR):
            rrs.append((ax, m))
        elif isinstance(ax, CA):
            cas.append((ax, m))
        elif isinstance(ax, RA):
            ras.append((ax, m))
        elif isinstance(ax, GCI):
            if isinstance(ax.rhs, Exists):
                exrs.append((ax, m))
            elif isinstance(ax.lhs, Conj):
                conjs.append((ax, m))
            elif isinstance(ax.lhs, ExistsQ):
                exqs.append((ax, m))
            else:
                subs.append((ax, m))
    return ris, rrs, subs, exrs, conjs, exqs, cas, ras


def rule_instances(sat: SaturatedSet):
    """Yield ``(rule, conclusion, monomial)`` per instance of a joining rule.

    An instance is one choice of premises from the set; its monomial is
    their product, also when that exceeds the set's k.
    """
    ris, rrs, subs, exrs, conjs, exqs, cas, ras = _facts(sat)
    # every rule tests each premise as soon as it is chosen, so the scan
    # stays feasible on sets of a few hundred facts
    for x, m1 in ris:
        for y, m2 in ris:
            if x.sup == y.sub:
                yield "role-chain", RI(x.sub, y.sup), m1 * m2
    for x, m1 in ris:
        for y, m2 in rrs:
            if x.sup == y.role:
                yield "range-of-subrole", RR(x.sub, y.filler), m1 * m2
    for x, m1 in exrs:
        for y, m2 in ris:
            if x.rhs.role == y.sub:
                yield "existential-subrole", GCI(x.lhs, Exists(y.sup)), m1 * m2
    for x, m1 in subs:
        for y, m2 in subs:
            if x.rhs == y.lhs:
                yield "concept-chain", GCI(x.lhs, y.rhs), m1 * m2
    for x, m1 in subs:
        for y, m2 in exrs:
            if x.rhs == y.lhs:
                yield "chain-into-existential", GCI(x.lhs, y.rhs), m1 * m2
    for x, m1 in subs:
        for y, m2 in subs:
            if x.lhs != y.lhs:
                continue
            for z, m3 in conjs:
                if z.lhs.left == x.rhs and z.lhs.right == y.rhs:
                    yield "conjunction-subsumption", GCI(x.lhs, z.rhs), m1 * m2 * m3
    for p1, m1 in rrs:
        b1 = Atomic(p1.filler)
        for p2, m2 in rrs:
            if p1.role != p2.role:
                continue
            b2 = Atomic(p2.filler)
            for p3, m3 in subs:
                if p3.lhs != b1:
                    continue
                for p4, m4 in subs:
                    if p4.lhs != b2:
                        continue
                    for p5, m5 in conjs:
                        if p5.lhs.left == p3.rhs and p5.lhs.right == p4.rhs:
                            conclusion = RR(p1.role, p5.rhs.name)
                            yield "range-conjunction", conclusion, m1 * m2 * m3 * m4 * m5
    for y, m2 in subs:
        if not isinstance(y.lhs, Top):
            continue
        for x, m1 in conjs:
            if x.lhs.right == y.rhs:
                yield "top-conjunct-elim", GCI(x.lhs.left, x.rhs), m1 * m2
            if x.lhs.left == y.rhs:
                yield "top-conjunct-elim", GCI(x.lhs.right, x.rhs), m1 * m2
    for p1, m1 in exrs:
        for p2, m2 in rrs:
            if p1.rhs.role != p2.role:
                continue
            b = Atomic(p2.filler)
            for p3, m3 in subs:
                if p3.lhs != b:
                    continue
                for p4, m4 in ris:
                    if p1.rhs.role != p4.sub:
                        continue
                    for p5, m5 in exqs:
                        if p5.lhs.role == p4.sup and p5.lhs.filler == p3.rhs:
                            conclusion = GCI(p1.lhs, p5.rhs)
                            yield "existential-composition", conclusion, m1 * m2 * m3 * m4 * m5
    for p2, m2 in subs:
        if not isinstance(p2.lhs, Top):
            continue
        for p3, m3 in exqs:
            if p3.lhs.filler != p2.rhs:
                continue
            for p1, m1 in exrs:
                if p1.rhs.role == p3.lhs.role:
                    yield "existential-top-composition", GCI(p1.lhs, p3.rhs), m1 * m2 * m3
    for x, m1 in ras:
        for y, m2 in ris:
            if x.role == y.sub:
                yield "role-fact-hierarchy", RA(y.sup, x.a, x.b), m1 * m2
    for x, m1 in cas:
        for y, m2 in subs:
            if x.concept == y.lhs:
                yield "instance-chain", CA(y.rhs, x.ind), m1 * m2
    for x, m1 in cas:
        for y, m2 in cas:
            if x.ind != y.ind:
                continue
            for z, m3 in conjs:
                if z.lhs.left == x.concept and z.lhs.right == y.concept:
                    yield "instance-conjunction", CA(z.rhs, x.ind), m1 * m2 * m3
    for x, m1 in ras:
        for y, m2 in cas:
            if y.ind != x.b:
                continue
            for z, m3 in exqs:
                if z.lhs.role == x.role and z.lhs.filler == y.concept:
                    yield "instance-existential", CA(z.rhs, x.a), m1 * m2 * m3
    for x, m1 in ras:
        for y, m2 in rrs:
            if x.role == y.role:
                yield "instance-range", CA(Atomic(y.filler), x.b), m1 * m2


def instance_counts(sat: SaturatedSet) -> tuple[Counter, dict]:
    """Rule instances within the set's k, per rule and per conclusion ``(axiom, monomial)``."""
    per_rule: Counter = Counter()
    per_conclusion: dict = {}
    for rule, axiom, mon in rule_instances(sat):
        if sat.k is not None and mon.degree > sat.k:
            continue
        per_rule[rule] += 1
        per_conclusion.setdefault((axiom, mon), Counter())[rule] += 1
    return per_rule, per_conclusion


def missing_conclusions(sat: SaturatedSet) -> list[str]:
    """All rule conclusions within the k bound that the set lacks."""
    missing = []

    def expect(rule, axiom, mon):
        if sat.k is not None and mon.degree > sat.k:
            return
        if not sat.contains(axiom, mon):
            missing.append(f"{rule}: {axiom} @ {mon}")

    for instance in rule_instances(sat):
        expect(*instance)
    # seeding rules
    cas, ras = _facts(sat)[6:]
    for ax, _ in cas:
        expect("top-instance", CA(TOP, ax.ind), ONE)
    for ax, _ in ras:
        expect("top-instance", CA(TOP, ax.a), ONE)
        expect("top-instance", CA(TOP, ax.b), ONE)
    return missing
