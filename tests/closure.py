"""Naive re-scan of the completion rules over a finished saturated set.

Deliberately brute force and structured independently of the engine's
semi-naive joins: enumerates premise combinations over the final set and
reports any in-bound conclusion that is missing.
"""

from __future__ import annotations

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


def missing_conclusions(sat: SaturatedSet) -> list[str]:
    """All rule conclusions within the k bound that the set lacks."""
    ris, rrs, subs, exrs, conjs, exqs, cas, ras = _facts(sat)
    missing = []

    def expect(rule, axiom, mon):
        if sat.k is not None and mon.degree > sat.k:
            return
        if not sat.contains(axiom, mon):
            missing.append(f"{rule}: {axiom} @ {mon}")

    # every rule tests each premise as soon as it is chosen, so the scan
    # stays feasible on sets of a few hundred facts
    for x, m1 in ris:
        for y, m2 in ris:
            if x.sup == y.sub:
                expect("role-chain", RI(x.sub, y.sup), m1 * m2)
    for x, m1 in ris:
        for y, m2 in rrs:
            if x.sup == y.role:
                expect("range-of-subrole", RR(x.sub, y.filler), m1 * m2)
    for x, m1 in exrs:
        for y, m2 in ris:
            if x.rhs.role == y.sub:
                expect("existential-subrole", GCI(x.lhs, Exists(y.sup)), m1 * m2)
    for x, m1 in subs:
        for y, m2 in subs:
            if x.rhs == y.lhs:
                expect("concept-chain", GCI(x.lhs, y.rhs), m1 * m2)
    for x, m1 in subs:
        for y, m2 in exrs:
            if x.rhs == y.lhs:
                expect("chain-into-existential", GCI(x.lhs, y.rhs), m1 * m2)
    for x, m1 in subs:
        for y, m2 in subs:
            if x.lhs != y.lhs:
                continue
            for z, m3 in conjs:
                if z.lhs.left == x.rhs and z.lhs.right == y.rhs:
                    expect("conjunction-subsumption", GCI(x.lhs, z.rhs), m1 * m2 * m3)
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
                            expect("range-conjunction", conclusion, m1 * m2 * m3 * m4 * m5)
    for y, m2 in subs:
        if not isinstance(y.lhs, Top):
            continue
        for x, m1 in conjs:
            if x.lhs.right == y.rhs:
                expect("top-conjunct-elim", GCI(x.lhs.left, x.rhs), m1 * m2)
            if x.lhs.left == y.rhs:
                expect("top-conjunct-elim", GCI(x.lhs.right, x.rhs), m1 * m2)
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
                            expect("existential-composition", conclusion, m1 * m2 * m3 * m4 * m5)
    for p2, m2 in subs:
        if not isinstance(p2.lhs, Top):
            continue
        for p3, m3 in exqs:
            if p3.lhs.filler != p2.rhs:
                continue
            for p1, m1 in exrs:
                if p1.rhs.role == p3.lhs.role:
                    expect("existential-top-composition", GCI(p1.lhs, p3.rhs), m1 * m2 * m3)
    for x, m1 in ras:
        for y, m2 in ris:
            if x.role == y.sub:
                expect("role-fact-hierarchy", RA(y.sup, x.a, x.b), m1 * m2)
    for x, m1 in cas:
        for y, m2 in subs:
            if x.concept == y.lhs:
                expect("instance-chain", CA(y.rhs, x.ind), m1 * m2)
    for x, m1 in cas:
        for y, m2 in cas:
            if x.ind != y.ind:
                continue
            for z, m3 in conjs:
                if z.lhs.left == x.concept and z.lhs.right == y.concept:
                    expect("instance-conjunction", CA(z.rhs, x.ind), m1 * m2 * m3)
    for x, m1 in ras:
        for y, m2 in cas:
            if y.ind != x.b:
                continue
            for z, m3 in exqs:
                if z.lhs.role == x.role and z.lhs.filler == y.concept:
                    expect("instance-existential", CA(z.rhs, x.a), m1 * m2 * m3)
    for x, m1 in ras:
        for y, m2 in rrs:
            if x.role == y.role:
                expect("instance-range", CA(Atomic(y.filler), x.b), m1 * m2)
    # seeding rules
    for ax, _ in cas:
        expect("top-instance", CA(TOP, ax.ind), ONE)
    for ax, _ in ras:
        expect("top-instance", CA(TOP, ax.a), ONE)
        expect("top-instance", CA(TOP, ax.b), ONE)
    return missing
