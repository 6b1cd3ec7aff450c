"""Naive re-scan of the completion rules over a finished saturated set.

Deliberately brute force and structured independently of the engine's
semi-naive joins: enumerates premise combinations over the final set and
reports any in-bound conclusion that is missing.
"""

from __future__ import annotations

from itertools import product

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

    for (x, m1), (y, m2) in product(ris, ris):
        if x.sup == y.sub:
            expect("role-chain", RI(x.sub, y.sup), m1 * m2)
    for (x, m1), (y, m2) in product(ris, rrs):
        if x.sup == y.role:
            expect("range-of-subrole", RR(x.sub, y.filler), m1 * m2)
    for (x, m1), (y, m2) in product(exrs, ris):
        if x.rhs.role == y.sub:
            expect("existential-subrole", GCI(x.lhs, Exists(y.sup)), m1 * m2)
    for (x, m1), (y, m2) in product(subs, subs):
        if x.rhs == y.lhs:
            expect("concept-chain", GCI(x.lhs, y.rhs), m1 * m2)
    for (x, m1), (y, m2) in product(subs, exrs):
        if x.rhs == y.lhs:
            expect("chain-into-existential", GCI(x.lhs, y.rhs), m1 * m2)
    for (x, m1), (y, m2), (z, m3) in product(subs, subs, conjs):
        if x.lhs == y.lhs and z.lhs.left == x.rhs and z.lhs.right == y.rhs:
            expect("conjunction-subsumption", GCI(x.lhs, z.rhs), m1 * m2 * m3)
    # the five-premise rules test each premise as soon as it is chosen, so
    # the scan stays feasible on sets of a few hundred facts
    for (p1, m1), (p2, m2) in product(rrs, rrs):
        if p1.role != p2.role:
            continue
        for p3, m3 in subs:
            if p3.lhs != Atomic(p1.filler):
                continue
            for p4, m4 in subs:
                if p4.lhs != Atomic(p2.filler):
                    continue
                for p5, m5 in conjs:
                    if p5.lhs.left == p3.rhs and p5.lhs.right == p4.rhs:
                        conclusion = RR(p1.role, p5.rhs.name)
                        expect("range-conjunction", conclusion, m1 * m2 * m3 * m4 * m5)
    for (x, m1), (y, m2) in product(conjs, subs):
        if isinstance(y.lhs, Top):
            if x.lhs.right == y.rhs:
                expect("top-conjunct-elim", GCI(x.lhs.left, x.rhs), m1 * m2)
            if x.lhs.left == y.rhs:
                expect("top-conjunct-elim", GCI(x.lhs.right, x.rhs), m1 * m2)
    for (p1, m1), (p2, m2), (p4, m4) in product(exrs, rrs, ris):
        if p1.rhs.role != p2.role or p1.rhs.role != p4.sub:
            continue
        for p3, m3 in subs:
            if p3.lhs != Atomic(p2.filler):
                continue
            for p5, m5 in exqs:
                if p5.lhs.role == p4.sup and p5.lhs.filler == p3.rhs:
                    conclusion = GCI(p1.lhs, p5.rhs)
                    expect("existential-composition", conclusion, m1 * m2 * m3 * m4 * m5)
    for (p1, m1), (p2, m2), (p3, m3) in product(exrs, subs, exqs):
        if isinstance(p2.lhs, Top) and p1.rhs.role == p3.lhs.role and p3.lhs.filler == p2.rhs:
            expect("existential-top-composition", GCI(p1.lhs, p3.rhs), m1 * m2 * m3)
    for (x, m1), (y, m2) in product(ras, ris):
        if x.role == y.sub:
            expect("role-fact-hierarchy", RA(y.sup, x.a, x.b), m1 * m2)
    for (x, m1), (y, m2) in product(cas, subs):
        if x.concept == y.lhs:
            expect("instance-chain", CA(y.rhs, x.ind), m1 * m2)
    for (x, m1), (y, m2), (z, m3) in product(cas, cas, conjs):
        if x.ind == y.ind and z.lhs.left == x.concept and z.lhs.right == y.concept:
            expect("instance-conjunction", CA(z.rhs, x.ind), m1 * m2 * m3)
    for (x, m1), (y, m2), (z, m3) in product(ras, cas, exqs):
        if y.ind == x.b and z.lhs.role == x.role and z.lhs.filler == y.concept:
            expect("instance-existential", CA(z.rhs, x.a), m1 * m2 * m3)
    for (x, m1), (y, m2) in product(ras, rrs):
        if x.role == y.role:
            expect("instance-range", CA(Atomic(y.filler), x.b), m1 * m2)
    # seeding rules
    for ax, _ in cas:
        expect("top-instance", CA(TOP, ax.ind), ONE)
    for ax, _ in ras:
        expect("top-instance", CA(TOP, ax.a), ONE)
        expect("top-instance", CA(TOP, ax.b), ONE)
    return missing
