"""Saturation of normalized annotated ontologies and entailment decisions.

The saturation engine closes an ontology under seventeen completion
rules. Besides the two seeding rules (reflexive inclusions for every
name, and a Top membership for every individual) the rules join two to
five premises; the engine runs a semi-naive worklist where every stored
axiom is indexed by shape so a newly derived fact only joins against
matching partners.

The same engine serves two stores: a set store that keeps every derived
(axiom, monomial) pair separately (optionally bounded to monomials of at
most ``k`` variables), and a merge store used by the relevance algorithm
that keeps one monomial per axiom and unions variables on update.

Inside a run monomials are int bitmasks over the run's seed variables,
numbered in name order, so a product is ``|`` and a degree is
``bit_count()``. ``Monomial`` is the boundary type: seeding maps
annotations to masks; ``SaturatedSet`` and ``relevance.merged_saturate``
map masks back.

Entailment of annotated assertions is membership in the k-saturation
for k the number of variables of the queried monomial
(``entails_assertion``, the only place that normalizes, saturates and
tests membership). ``probe`` reduces every other target (GCI, role
inclusion, range restriction, instance query) to an assertion over the
ontology extended by a small probe with reserved (``__``-prefixed) helper
names; ``entails`` decides any target through it, and the relevance
algorithm reuses the same probe.
"""

from __future__ import annotations

import time
import warnings
from collections import Counter, deque
from dataclasses import dataclass, field

from .ontology import (
    CA,
    GCI,
    RA,
    RI,
    RR,
    AnnotatedAxiom,
    AnnotatedOntology,
    Atomic,
    Axiom,
    Concept,
    Conj,
    Exists,
    ExistsQ,
    FreshNames,
    TOP,
    Top,
    is_atomic_or_top,
    normalize,
    render_annotated,
    render_axiom,
)
from .provenance import ONE, Monomial, Variable

__all__ = [
    "Limits",
    "ResourceCapExceeded",
    "UnknownNameWarning",
    "SaturationStats",
    "SaturatedSet",
    "RULE_NAMES",
    "saturate",
    "entails_assertion",
    "probe",
    "entails",
]

RULE_NAMES = (
    "reflexivity",
    "role-chain",
    "range-of-subrole",
    "existential-subrole",
    "concept-chain",
    "chain-into-existential",
    "conjunction-subsumption",
    "range-conjunction",
    "top-conjunct-elim",
    "existential-composition",
    "existential-top-composition",
    "top-instance",
    "role-fact-hierarchy",
    "instance-chain",
    "instance-conjunction",
    "instance-existential",
    "instance-range",
)


@dataclass(frozen=True)
class Limits:
    """Resource caps for saturation and model construction."""

    max_axioms: int = 1_000_000
    max_seconds: float | None = None


class ResourceCapExceeded(RuntimeError):
    def __init__(self, message: str, stats: "SaturationStats | None" = None):
        super().__init__(message)
        self.stats = stats


class UnknownNameWarning(UserWarning):
    """A queried axiom mentions names outside the ontology signature."""


@dataclass
class SaturationStats:
    fired: Counter = field(default_factory=Counter)
    added: Counter = field(default_factory=Counter)
    merge_updates: int = 0
    facts: int = 0


# --- stores ----------------------------------------------------------------


class _VarTable:
    """One run's variables in name order; variable i is the bit ``1 << i``."""

    def __init__(self, annotations):
        self.vars = tuple(sorted({v for mon in annotations for v in mon.vars}))
        self.bits = {v: 1 << i for i, v in enumerate(self.vars)}
        self._monomials: dict[int, Monomial] = {0: ONE}

    def mask(self, mon: Monomial) -> int | None:
        """None if ``mon`` names a variable outside the run."""
        if not all(v in self.bits for v in mon.vars):
            return None
        return sum(self.bits[v] for v in mon.vars)  # the variables are distinct

    def monomial(self, mask: int) -> Monomial:
        mon = self._monomials.get(mask)
        if mon is None:
            vs = tuple(v for i, v in enumerate(self.vars) if mask >> i & 1)
            mon = self._monomials[mask] = Monomial(vs)
        return mon


class _SetStore:
    """One entry per (axiom, monomial mask) pair; insertion ordered."""

    def __init__(self, k: int | None):
        self.k = k
        self.by_axiom: dict[Axiom, dict[int, None]] = {}
        self.size = 0

    def admits(self, mon: int) -> bool:
        return self.k is None or mon.bit_count() <= self.k

    def add(self, axiom: Axiom, mon: int, seed: bool) -> list[tuple[Axiom, int]]:
        if not seed and not self.admits(mon):
            return []
        mons = self.by_axiom.setdefault(axiom, {})
        if mon in mons:
            return []
        mons[mon] = None
        self.size += 1
        return [(axiom, mon)]

    def monomials(self, axiom: Axiom) -> tuple[int, ...]:
        mons = self.by_axiom.get(axiom)
        return tuple(mons) if mons else ()

    def contains(self, axiom: Axiom, mon: int) -> bool:
        mons = self.by_axiom.get(axiom)
        return bool(mons) and mon in mons


class _MergeStore:
    """One monomial mask per axiom; additions union the variable sets."""

    def __init__(self):
        self.by_axiom: dict[Axiom, int] = {}
        self.size = 0
        self.growths = 0

    def add(self, axiom: Axiom, mon: int, seed: bool) -> list[tuple[Axiom, int]]:
        current = self.by_axiom.get(axiom)
        if current is None:
            self.by_axiom[axiom] = mon
            self.size += 1
            return [(axiom, mon)]
        merged = current | mon
        if merged == current:
            return []
        self.by_axiom[axiom] = merged
        self.growths += 1
        return [(axiom, merged)]

    def monomials(self, axiom: Axiom) -> tuple[int, ...]:
        mon = self.by_axiom.get(axiom)
        return (mon,) if mon is not None else ()

    def contains(self, axiom: Axiom, mon: int) -> bool:
        return self.by_axiom.get(axiom) == mon


# --- engine ----------------------------------------------------------------


def _normal_shape(ax: Axiom) -> str:
    if isinstance(ax, RI):
        return "ri"
    if isinstance(ax, RR):
        return "rr"
    if isinstance(ax, CA):
        return "ca"
    if isinstance(ax, RA):
        return "ra"
    if isinstance(ax, GCI):
        lhs, rhs = ax.lhs, ax.rhs
        if isinstance(rhs, (Atomic, Top)):
            if is_atomic_or_top(lhs):
                return "sub"
            if isinstance(lhs, Conj) and is_atomic_or_top(lhs.left) and is_atomic_or_top(lhs.right):
                return "conj"
            if isinstance(lhs, ExistsQ) and is_atomic_or_top(lhs.filler):
                return "exq"
        elif isinstance(rhs, Exists) and is_atomic_or_top(lhs):
            return "exr"
    raise ValueError(f"axiom is not in normal form: {render_axiom(ax)}")


class _Saturator:
    def __init__(self, ontology, store, disabled, limits, track):
        self.store = store
        self.disabled = frozenset(disabled)
        self.limits = limits or Limits()
        self.track = track
        self.stats = SaturationStats()
        self.table = _VarTable(ann.annotation for ann in ontology.axioms)
        self.derivations: dict[tuple[Axiom, int], Counter] = {}
        self.queue: deque[tuple[Axiom, int]] = deque()
        self.deadline = (
            time.monotonic() + self.limits.max_seconds if self.limits.max_seconds else None
        )
        self._ticks = 0

        # shape indices (axiom structure only; monomials live in the store)
        self.ri_by_sub: dict[str, list[RI]] = {}
        self.ri_by_sup: dict[str, list[RI]] = {}
        self.rr_by_role: dict[str, list[RR]] = {}
        self.rr_by_filler: dict[str, list[RR]] = {}
        self.sub_by_lhs: dict[Concept, list[GCI]] = {}
        self.sub_by_rhs: dict[Concept, list[GCI]] = {}
        self.exr_by_lhs: dict[Concept, list[GCI]] = {}
        self.exr_by_role: dict[str, list[GCI]] = {}
        self.conj_by_c1: dict[Concept, list[GCI]] = {}
        self.conj_by_c2: dict[Concept, list[GCI]] = {}
        self.exq_by_role: dict[str, list[GCI]] = {}
        self.exq_by_filler: dict[Concept, list[GCI]] = {}
        self.exq_by_rolefiller: dict[tuple[str, Concept], list[GCI]] = {}
        self.ca_by_ind: dict[str, list[CA]] = {}
        self.ca_by_concept: dict[Concept, list[CA]] = {}
        self.ra_by_role: dict[str, list[RA]] = {}
        self.ra_by_target: dict[str, list[RA]] = {}

        self._seed(ontology)

    # -- bookkeeping --------------------------------------------------------

    def _index(self, ax: Axiom) -> None:
        if isinstance(ax, RI):
            self.ri_by_sub.setdefault(ax.sub, []).append(ax)
            self.ri_by_sup.setdefault(ax.sup, []).append(ax)
        elif isinstance(ax, RR):
            self.rr_by_role.setdefault(ax.role, []).append(ax)
            self.rr_by_filler.setdefault(ax.filler, []).append(ax)
        elif isinstance(ax, CA):
            self.ca_by_ind.setdefault(ax.ind, []).append(ax)
            self.ca_by_concept.setdefault(ax.concept, []).append(ax)
        elif isinstance(ax, RA):
            self.ra_by_role.setdefault(ax.role, []).append(ax)
            self.ra_by_target.setdefault(ax.b, []).append(ax)
        elif isinstance(ax, GCI):
            shape = _normal_shape(ax)
            if shape == "sub":
                self.sub_by_lhs.setdefault(ax.lhs, []).append(ax)
                self.sub_by_rhs.setdefault(ax.rhs, []).append(ax)
            elif shape == "exr":
                role = ax.rhs.role
                self.exr_by_lhs.setdefault(ax.lhs, []).append(ax)
                self.exr_by_role.setdefault(role, []).append(ax)
            elif shape == "conj":
                self.conj_by_c1.setdefault(ax.lhs.left, []).append(ax)
                self.conj_by_c2.setdefault(ax.lhs.right, []).append(ax)
            elif shape == "exq":
                role, filler = ax.lhs.role, ax.lhs.filler
                self.exq_by_role.setdefault(role, []).append(ax)
                self.exq_by_filler.setdefault(filler, []).append(ax)
                self.exq_by_rolefiller.setdefault((role, filler), []).append(ax)

    def _tick(self) -> None:
        self._ticks += 1
        if self.deadline is not None and self._ticks % 256 == 0:
            if time.monotonic() > self.deadline:
                raise ResourceCapExceeded("saturation wall-clock budget exceeded", self.stats)

    def _add(self, axiom: Axiom, mon: int, rule: str, seed: bool = False) -> None:
        self._tick()
        if not seed:
            self.stats.fired[rule] += 1
        fresh_axiom = axiom not in self.store.by_axiom
        deltas = self.store.add(axiom, mon, seed)
        if self.track and (seed or self.store.contains(axiom, mon)):
            self.derivations.setdefault((axiom, mon), Counter())[rule] += 1
        if not deltas:
            return
        if self.store.size > self.limits.max_axioms:
            raise ResourceCapExceeded(
                f"saturation exceeded the cap of {self.limits.max_axioms} derived axioms",
                self.stats,
            )
        self.stats.added[rule] += 1
        if fresh_axiom:
            self._index(axiom)
        self.queue.extend(deltas)

    def _mons(self, axiom: Axiom) -> tuple[int, ...]:
        return self.store.monomials(axiom)

    def _seed(self, ontology: AnnotatedOntology) -> None:
        for ann in ontology.axioms:
            _normal_shape(ann.axiom)  # raises if not normal form
            self._add(ann.axiom, self.table.mask(ann.annotation), "input", seed=True)
        if 0 not in self.disabled:
            for name in ontology.concept_names:
                self._add(GCI(Atomic(name), Atomic(name)), 0, "reflexivity", seed=True)
            for role in ontology.role_names:
                self._add(RI(role, role), 0, "reflexivity", seed=True)
            if ontology.top_occurs or ontology.individuals:
                self._add(GCI(TOP, TOP), 0, "reflexivity", seed=True)
        if 11 not in self.disabled:
            for ind in ontology.individuals:
                self._add(CA(TOP, ind), 0, "top-instance", seed=True)

    def run(self) -> SaturationStats:
        while self.queue:
            axiom, mon = self.queue.popleft()
            kind = _normal_shape(axiom)
            getattr(self, f"_on_{kind}")(axiom, mon)
        self.stats.facts = self.store.size
        if isinstance(self.store, _MergeStore):
            self.stats.merge_updates = self.store.growths
        return self.stats

    def _rule_on(self, i: int) -> bool:
        return i not in self.disabled

    # -- rule joins, one handler per delta shape -----------------------------

    def _on_ri(self, ax: RI, m: int) -> None:
        r1, r2 = ax.sub, ax.sup
        if self._rule_on(1):
            for other in tuple(self.ri_by_sub.get(r2, ())):
                for n in self._mons(other):
                    self._add(RI(r1, other.sup), m | n, "role-chain")
            for other in tuple(self.ri_by_sup.get(r1, ())):
                for n in self._mons(other):
                    self._add(RI(other.sub, r2), n | m, "role-chain")
        if self._rule_on(2):
            for rr in tuple(self.rr_by_role.get(r2, ())):
                for n in self._mons(rr):
                    self._add(RR(r1, rr.filler), m | n, "range-of-subrole")
        if self._rule_on(3):
            for exr in tuple(self.exr_by_role.get(r1, ())):
                for n in self._mons(exr):
                    self._add(GCI(exr.lhs, Exists(r2)), n | m, "existential-subrole")
        if self._rule_on(9):
            # delta is premise 4: (S <= R, m4)
            s, r = r1, r2
            self._cr9(s, r, m4_choices=((ax, m),))
        if self._rule_on(12):
            for ra in tuple(self.ra_by_role.get(r1, ())):
                for n in self._mons(ra):
                    self._add(RA(r2, ra.a, ra.b), n | m, "role-fact-hierarchy")

    def _on_rr(self, ax: RR, m: int) -> None:
        s, b = ax.role, Atomic(ax.filler)
        if self._rule_on(2):
            for ri in tuple(self.ri_by_sup.get(s, ())):
                for n in self._mons(ri):
                    self._add(RR(ri.sub, ax.filler), n | m, "range-of-subrole")
        if self._rule_on(7):
            self._cr7(s, p1_choices=((ax, m),), p2_choices=None)
            self._cr7(s, p1_choices=None, p2_choices=((ax, m),))
        if self._rule_on(9):
            # delta is premise 2: (ran(S) <= B, m2)
            for exr in tuple(self.exr_by_role.get(s, ())):
                for m1 in self._mons(exr):
                    for sub in tuple(self.sub_by_lhs.get(b, ())):
                        for m3 in self._mons(sub):
                            for ri in tuple(self.ri_by_sub.get(s, ())):
                                for m4 in self._mons(ri):
                                    for exq in tuple(
                                        self.exq_by_rolefiller.get((ri.sup, sub.rhs), ())
                                    ):
                                        for m5 in self._mons(exq):
                                            self._add(
                                                GCI(exr.lhs, exq.rhs),
                                                m1 | m | m3 | m4 | m5,
                                                "existential-composition",
                                            )
        if self._rule_on(16):
            for ra in tuple(self.ra_by_role.get(s, ())):
                for n in self._mons(ra):
                    self._add(CA(b, ra.b), n | m, "instance-range")

    def _cr7(self, role: str, p1_choices, p2_choices) -> None:
        p1s = p1_choices or [
            (rr, n) for rr in tuple(self.rr_by_role.get(role, ())) for n in self._mons(rr)
        ]
        for rr1, m1 in p1s:
            p2s = p2_choices or [
                (rr, n) for rr in tuple(self.rr_by_role.get(role, ())) for n in self._mons(rr)
            ]
            for rr2, m2 in p2s:
                b1, b2 = Atomic(rr1.filler), Atomic(rr2.filler)
                for sub1 in tuple(self.sub_by_lhs.get(b1, ())):
                    for m3 in self._mons(sub1):
                        for sub2 in tuple(self.sub_by_lhs.get(b2, ())):
                            for m4 in self._mons(sub2):
                                for conj in tuple(self.conj_by_c1.get(sub1.rhs, ())):
                                    if conj.lhs.right != sub2.rhs:
                                        continue
                                    for m5 in self._mons(conj):
                                        self._add(
                                            RR(role, conj.rhs.name),
                                            m1 | m2 | m3 | m4 | m5,
                                            "range-conjunction",
                                        )

    def _cr9(self, s: str, r: str, m4_choices) -> None:
        for exr in tuple(self.exr_by_role.get(s, ())):
            for m1 in self._mons(exr):
                for rr in tuple(self.rr_by_role.get(s, ())):
                    for m2 in self._mons(rr):
                        for sub in tuple(self.sub_by_lhs.get(Atomic(rr.filler), ())):
                            for m3 in self._mons(sub):
                                for ri, m4 in m4_choices:
                                    for exq in tuple(
                                        self.exq_by_rolefiller.get((r, sub.rhs), ())
                                    ):
                                        for m5 in self._mons(exq):
                                            self._add(
                                                GCI(exr.lhs, exq.rhs),
                                                m1 | m2 | m3 | m4 | m5,
                                                "existential-composition",
                                            )

    def _on_sub(self, ax: GCI, m: int) -> None:
        a, b = ax.lhs, ax.rhs
        if self._rule_on(4):
            for sub in tuple(self.sub_by_lhs.get(b, ())):
                for n in self._mons(sub):
                    self._add(GCI(a, sub.rhs), m | n, "concept-chain")
            for sub in tuple(self.sub_by_rhs.get(a, ())):
                for n in self._mons(sub):
                    self._add(GCI(sub.lhs, b), n | m, "concept-chain")
        if self._rule_on(5):
            for exr in tuple(self.exr_by_lhs.get(b, ())):
                for n in self._mons(exr):
                    self._add(GCI(a, exr.rhs), m | n, "chain-into-existential")
        if self._rule_on(6):
            # delta as (A <= B1) and as (A <= B2)
            for sub in tuple(self.sub_by_lhs.get(a, ())):
                for n in self._mons(sub):
                    for conj in tuple(self.conj_by_c1.get(b, ())):
                        if conj.lhs.right != sub.rhs:
                            continue
                        for c in self._mons(conj):
                            self._add(GCI(a, conj.rhs), m | n | c, "conjunction-subsumption")
                    for conj in tuple(self.conj_by_c2.get(b, ())):
                        if conj.lhs.left != sub.rhs:
                            continue
                        for c in self._mons(conj):
                            self._add(GCI(a, conj.rhs), n | m | c, "conjunction-subsumption")
        if self._rule_on(7) and isinstance(a, Atomic):
            # delta as premise 3 and as premise 4
            for rr1 in tuple(self.rr_by_filler.get(a.name, ())):
                for m1 in self._mons(rr1):
                    role = rr1.role
                    for rr2 in tuple(self.rr_by_role.get(role, ())):
                        for m2 in self._mons(rr2):
                            b2 = Atomic(rr2.filler)
                            # delta as (B1 <= C1): partner (B2 <= C2) free
                            for sub2 in tuple(self.sub_by_lhs.get(b2, ())):
                                for m4 in self._mons(sub2):
                                    for conj in tuple(self.conj_by_c1.get(b, ())):
                                        if conj.lhs.right != sub2.rhs:
                                            continue
                                        for m5 in self._mons(conj):
                                            self._add(
                                                RR(role, conj.rhs.name),
                                                m1 | m2 | m | m4 | m5,
                                                "range-conjunction",
                                            )
                            # delta as (B2 <= C2): partner (B1 <= C1) free
                            for sub1 in tuple(self.sub_by_lhs.get(b2, ())):
                                for m3 in self._mons(sub1):
                                    for conj in tuple(self.conj_by_c2.get(b, ())):
                                        if conj.lhs.left != sub1.rhs:
                                            continue
                                        for m5 in self._mons(conj):
                                            self._add(
                                                RR(role, conj.rhs.name),
                                                m2 | m1 | m3 | m | m5,
                                                "range-conjunction",
                                            )
        if self._rule_on(8) and isinstance(a, Top):
            # delta is (Top <= B); eliminate B from either conjunct position
            for conj in tuple(self.conj_by_c2.get(b, ())):
                for n in self._mons(conj):
                    self._add(GCI(conj.lhs.left, conj.rhs), n | m, "top-conjunct-elim")
            for conj in tuple(self.conj_by_c1.get(b, ())):
                for n in self._mons(conj):
                    self._add(GCI(conj.lhs.right, conj.rhs), n | m, "top-conjunct-elim")
        if self._rule_on(9) and isinstance(a, Atomic):
            # delta is premise 3: (B <= C, m3)
            for rr in tuple(self.rr_by_filler.get(a.name, ())):
                for m2 in self._mons(rr):
                    s = rr.role
                    for exr in tuple(self.exr_by_role.get(s, ())):
                        for m1 in self._mons(exr):
                            for ri in tuple(self.ri_by_sub.get(s, ())):
                                for m4 in self._mons(ri):
                                    for exq in tuple(
                                        self.exq_by_rolefiller.get((ri.sup, b), ())
                                    ):
                                        for m5 in self._mons(exq):
                                            self._add(
                                                GCI(exr.lhs, exq.rhs),
                                                m1 | m2 | m | m4 | m5,
                                                "existential-composition",
                                            )
        if self._rule_on(10) and isinstance(a, Top):
            # delta is premise 2: (Top <= B, m2)
            for exq in tuple(self.exq_by_filler.get(b, ())):
                for m3 in self._mons(exq):
                    for exr in tuple(self.exr_by_role.get(exq.lhs.role, ())):
                        for m1 in self._mons(exr):
                            self._add(GCI(exr.lhs, exq.rhs), m1 | m | m3, "existential-top-composition")
        if self._rule_on(13):
            for ca in tuple(self.ca_by_concept.get(a, ())):
                for n in self._mons(ca):
                    self._add(CA(b, ca.ind), n | m, "instance-chain")

    def _on_exr(self, ax: GCI, m: int) -> None:
        a, role = ax.lhs, ax.rhs.role
        if self._rule_on(3):
            for ri in tuple(self.ri_by_sub.get(role, ())):
                for n in self._mons(ri):
                    self._add(GCI(a, Exists(ri.sup)), m | n, "existential-subrole")
        if self._rule_on(5):
            for sub in tuple(self.sub_by_rhs.get(a, ())):
                for n in self._mons(sub):
                    self._add(GCI(sub.lhs, ax.rhs), n | m, "chain-into-existential")
        if self._rule_on(9):
            # delta is premise 1: (A <= some S, m1)
            s = role
            for rr in tuple(self.rr_by_role.get(s, ())):
                for m2 in self._mons(rr):
                    for sub in tuple(self.sub_by_lhs.get(Atomic(rr.filler), ())):
                        for m3 in self._mons(sub):
                            for ri in tuple(self.ri_by_sub.get(s, ())):
                                for m4 in self._mons(ri):
                                    for exq in tuple(
                                        self.exq_by_rolefiller.get((ri.sup, sub.rhs), ())
                                    ):
                                        for m5 in self._mons(exq):
                                            self._add(
                                                GCI(a, exq.rhs),
                                                m | m2 | m3 | m4 | m5,
                                                "existential-composition",
                                            )
        if self._rule_on(10):
            for exq in tuple(self.exq_by_role.get(role, ())):
                for m3 in self._mons(exq):
                    for m2 in self._mons(GCI(TOP, exq.lhs.filler)):
                        self._add(GCI(a, exq.rhs), m | m2 | m3, "existential-top-composition")

    def _on_conj(self, ax: GCI, m: int) -> None:
        a1, a2 = ax.lhs.left, ax.lhs.right
        if self._rule_on(6):
            for sub1 in tuple(self.sub_by_rhs.get(a1, ())):
                for m1 in self._mons(sub1):
                    for m2 in self._mons(GCI(sub1.lhs, a2)):
                        self._add(GCI(sub1.lhs, ax.rhs), m1 | m2 | m, "conjunction-subsumption")
        if self._rule_on(7):
            # delta is premise 5
            for sub1 in tuple(self.sub_by_rhs.get(a1, ())):
                if not isinstance(sub1.lhs, Atomic):
                    continue
                for m3 in self._mons(sub1):
                    for rr1 in tuple(self.rr_by_filler.get(sub1.lhs.name, ())):
                        for m1 in self._mons(rr1):
                            for rr2 in tuple(self.rr_by_role.get(rr1.role, ())):
                                for m2 in self._mons(rr2):
                                    for m4 in self._mons(GCI(Atomic(rr2.filler), a2)):
                                        self._add(
                                            RR(rr1.role, ax.rhs.name),
                                            m1 | m2 | m3 | m4 | m,
                                            "range-conjunction",
                                        )
        if self._rule_on(8):
            for m2 in self._mons(GCI(TOP, a2)):
                self._add(GCI(a1, ax.rhs), m | m2, "top-conjunct-elim")
            for m2 in self._mons(GCI(TOP, a1)):
                self._add(GCI(a2, ax.rhs), m | m2, "top-conjunct-elim")
        if self._rule_on(14):
            for ca1 in tuple(self.ca_by_concept.get(a1, ())):
                for m1 in self._mons(ca1):
                    for m2 in self._mons(CA(a2, ca1.ind)):
                        self._add(CA(ax.rhs, ca1.ind), m1 | m2 | m, "instance-conjunction")

    def _on_exq(self, ax: GCI, m: int) -> None:
        role, filler = ax.lhs.role, ax.lhs.filler
        if self._rule_on(9):
            # delta is premise 5: (some(R, C) <= D, m5)
            for ri in tuple(self.ri_by_sup.get(role, ())):
                for m4 in self._mons(ri):
                    s = ri.sub
                    for exr in tuple(self.exr_by_role.get(s, ())):
                        for m1 in self._mons(exr):
                            for rr in tuple(self.rr_by_role.get(s, ())):
                                for m2 in self._mons(rr):
                                    for m3 in self._mons(GCI(Atomic(rr.filler), filler)):
                                        self._add(
                                            GCI(exr.lhs, ax.rhs),
                                            m1 | m2 | m3 | m4 | m,
                                            "existential-composition",
                                        )
        if self._rule_on(10):
            for m2 in self._mons(GCI(TOP, filler)):
                for exr in tuple(self.exr_by_role.get(role, ())):
                    for m1 in self._mons(exr):
                        self._add(GCI(exr.lhs, ax.rhs), m1 | m2 | m, "existential-top-composition")
        if self._rule_on(15):
            for ra in tuple(self.ra_by_role.get(role, ())):
                for m1 in self._mons(ra):
                    for m2 in self._mons(CA(filler, ra.b)):
                        self._add(CA(ax.rhs, ra.a), m1 | m2 | m, "instance-existential")

    def _on_ca(self, ax: CA, m: int) -> None:
        a, ind = ax.concept, ax.ind
        if self._rule_on(13):
            for sub in tuple(self.sub_by_lhs.get(a, ())):
                for n in self._mons(sub):
                    self._add(CA(sub.rhs, ind), m | n, "instance-chain")
        if self._rule_on(14):
            for conj in tuple(self.conj_by_c1.get(a, ())):
                for m3 in self._mons(conj):
                    for m2 in self._mons(CA(conj.lhs.right, ind)):
                        self._add(CA(conj.rhs, ind), m | m2 | m3, "instance-conjunction")
            for conj in tuple(self.conj_by_c2.get(a, ())):
                for m3 in self._mons(conj):
                    for m1 in self._mons(CA(conj.lhs.left, ind)):
                        self._add(CA(conj.rhs, ind), m1 | m | m3, "instance-conjunction")
        if self._rule_on(15):
            # delta is premise 2: (A(b), m2)
            for ra in tuple(self.ra_by_target.get(ind, ())):
                for m1 in self._mons(ra):
                    for exq in tuple(self.exq_by_rolefiller.get((ra.role, a), ())):
                        for m3 in self._mons(exq):
                            self._add(CA(exq.rhs, ra.a), m1 | m | m3, "instance-existential")

    def _on_ra(self, ax: RA, m: int) -> None:
        role, a, b = ax.role, ax.a, ax.b
        if self._rule_on(12):
            for ri in tuple(self.ri_by_sub.get(role, ())):
                for n in self._mons(ri):
                    self._add(RA(ri.sup, a, b), m | n, "role-fact-hierarchy")
        if self._rule_on(15):
            for exq in tuple(self.exq_by_role.get(role, ())):
                for m3 in self._mons(exq):
                    for m2 in self._mons(CA(exq.lhs.filler, b)):
                        self._add(CA(exq.rhs, a), m | m2 | m3, "instance-existential")
        if self._rule_on(16):
            for rr in tuple(self.rr_by_role.get(role, ())):
                for n in self._mons(rr):
                    self._add(CA(Atomic(rr.filler), b), m | n, "instance-range")


# --- public saturation API --------------------------------------------------


class SaturatedSet:
    """The closure of a normalized ontology under the completion rules."""

    def __init__(
        self, store: _SetStore, table: _VarTable, k: int | None, stats: SaturationStats, derivations
    ):
        self._store = store
        self._table = table
        self.k = k
        self.stats = stats
        self._derivations = derivations
        members = [
            AnnotatedAxiom(axiom, table.monomial(mask))
            for axiom, masks in store.by_axiom.items()
            for mask in masks
        ]
        members.sort(key=lambda ann: (render_axiom(ann.axiom), ann.annotation))
        self.axioms: tuple[AnnotatedAxiom, ...] = tuple(members)

    def __len__(self) -> int:
        return len(self.axioms)

    def __iter__(self):
        return iter(self.axioms)

    def contains(self, axiom: Axiom, mon: Monomial) -> bool:
        mask = self._table.mask(mon)
        return mask is not None and self._store.contains(axiom, mask)

    def monomials(self, axiom: Axiom) -> tuple[Monomial, ...]:
        return tuple(map(self._table.monomial, self._store.monomials(axiom)))

    def assertions(self) -> tuple[AnnotatedAxiom, ...]:
        return tuple(ann for ann in self.axioms if isinstance(ann.axiom, (CA, RA)))

    def dump_lines(self) -> list[str]:
        return [render_annotated(ann) for ann in self.axioms]

    def dump_json_obj(self) -> dict:
        rows = []
        for ann in self.axioms:
            row = {"axiom": render_axiom(ann.axiom), "annotation": str(ann.annotation)}
            if self._derivations is not None:
                key = (ann.axiom, self._table.mask(ann.annotation))
                counts = self._derivations.get(key, {})
                row["derivations"] = {rule: counts[rule] for rule in sorted(counts)}
            rows.append(row)
        return {
            "k": self.k,
            "size": len(self.axioms),
            "axioms": rows,
            "stats": {
                "added": dict(sorted(self.stats.added.items())),
                "fired": dict(sorted(self.stats.fired.items())),
            },
        }


def saturate(
    ontology: AnnotatedOntology,
    k: int | None = None,
    limits: Limits | None = None,
    *,
    disabled_rules=(),
    track_derivations: bool = False,
) -> SaturatedSet:
    """Close a normal-form ontology under the completion rules.

    ``k`` bounds derived monomials to at most k variables (input axioms
    are kept regardless); ``None`` means full saturation, which suffices
    for every entailment over the ontology's variables.
    """
    store = _SetStore(k)
    sat = _Saturator(ontology, store, disabled_rules, limits, track_derivations)
    stats = sat.run()
    return SaturatedSet(store, sat.table, k, stats, sat.derivations if track_derivations else None)


# --- entailment ------------------------------------------------------------


def _assertion_signature_gap(ontology: AnnotatedOntology, assertion: Axiom) -> list[str]:
    gaps = []
    concepts = set(ontology.concept_names)
    roles = set(ontology.role_names)
    inds = set(ontology.individuals)
    if isinstance(assertion, CA):
        if isinstance(assertion.concept, Atomic) and assertion.concept.name not in concepts:
            gaps.append(assertion.concept.name)
        if assertion.ind not in inds:
            gaps.append(assertion.ind)
    elif isinstance(assertion, RA):
        if assertion.role not in roles:
            gaps.append(assertion.role)
        gaps.extend(i for i in (assertion.a, assertion.b) if i not in inds)
    else:
        raise TypeError(f"not an assertion: {assertion!r}")
    return gaps


def entails_assertion(
    ontology: AnnotatedOntology,
    assertion: Axiom,
    mon: Monomial,
    limits: Limits | None = None,
    *,
    disabled_rules=(),
) -> bool:
    """Decide entailment of an annotated assertion.

    Normalizes the ontology, saturates with k = number of variables in
    the queried monomial, and checks membership of the canonical pair.
    Assertions over unknown names are reported not-entailed with an
    UnknownNameWarning rather than failing.
    """
    gaps = _assertion_signature_gap(ontology, assertion)
    if gaps:
        warnings.warn(
            f"queried assertion mentions names unknown to the ontology: {', '.join(sorted(gaps))}",
            UnknownNameWarning,
            stacklevel=2,
        )
        return False
    normalized = normalize(ontology)
    sat = saturate(normalized, k=mon.degree, limits=limits, disabled_rules=disabled_rules)
    return sat.contains(assertion, mon)


def probe(
    ontology: AnnotatedOntology, target
) -> tuple[AnnotatedOntology, Axiom, Monomial, bool]:
    """Reduce a target to an assertion over the ontology extended by a probe.

    ``target`` is a ``CA``/``RA``/``GCI``/``RI``/``RR`` axiom or a
    ``(concept, ind)`` instance query. Returns the extended ontology, the
    assertion to decide, the product of the probe's marker variables (an
    entailed monomial carries them) and whether a derivation has to
    mention the markers to count for relevance.

    - GCI: the right-hand side is funneled into a fresh target concept
      ``__e``; the left-hand side is instantiated at a fresh root ``__a``
      with one fresh marker variable ``__q<i>_...`` per structural position.
    - RI: a fresh edge of the subrole, decided on the superrole.
    - RR: a fresh edge of the role carrying a fresh marker, so memberships
      the target endpoint would have anyway (e.g. from inclusions out of
      Top) cannot fake a range entailment; relevance requires the marker.
    - Instance query: the concept is funneled into a fresh name ``__iq``.
    """
    if isinstance(target, (CA, RA)):
        return ontology, target, ONE, False
    fresh = FreshNames(ontology.all_names())
    if isinstance(target, tuple):
        concept, ind = target
        name = Atomic(fresh.named("__iq"))
        extended = ontology.extended([AnnotatedAxiom(GCI(concept, name), ONE)])
        return extended, CA(name, ind), ONE, False
    if isinstance(target, RI):
        a, b = fresh.individual(), fresh.individual()
        extended = ontology.extended([AnnotatedAxiom(RA(target.sub, a, b), ONE)])
        return extended, RA(target.sup, a, b), ONE, False
    if isinstance(target, RR):
        a, b = fresh.individual(), fresh.individual()
        marker = Monomial((fresh.variable(),))
        extended = ontology.extended([AnnotatedAxiom(RA(target.role, a, b), marker)])
        return extended, CA(Atomic(target.filler), b), marker, True
    if not isinstance(target, GCI):
        raise TypeError(f"expected an axiom or an instance query, got {target!r}")
    rhs = target.rhs
    if not isinstance(rhs, (Atomic, Exists)):
        raise ValueError(f"right-hand side must be a concept name or some(R): {rhs}")
    name = Atomic(fresh.named("__e"))
    root = fresh.named("__a")
    facts: list[AnnotatedAxiom] = []

    def instantiate(c: Concept, ind: str, i: int) -> int:
        if isinstance(c, Top):
            return i
        if isinstance(c, Atomic):
            marker = Variable(f"__q{i}_{c.name}_{ind}")
            facts.append(AnnotatedAxiom(CA(c, ind), Monomial((marker,))))
            return i
        if isinstance(c, ExistsQ):
            child = fresh.individual()
            marker = Variable(f"__q{i}_{c.role}_{ind}_{child}")
            facts.append(AnnotatedAxiom(RA(c.role, ind, child), Monomial((marker,))))
            return instantiate(c.filler, child, i + 1)
        if isinstance(c, Conj):
            i = instantiate(c.left, ind, i)
            return instantiate(c.right, ind, i + 1)
        raise ValueError(f"concept outside the lhs grammar: {c}")

    instantiate(target.lhs, root, 0)
    markers = Monomial(tuple(v for ann in facts for v in ann.annotation.vars))
    # a Top left-hand side leaves no facts; the root still has to exist
    facts = facts or [AnnotatedAxiom(CA(TOP, root), ONE)]
    rhs_probe = ExistsQ(rhs.role, TOP) if isinstance(rhs, Exists) else rhs
    extended = ontology.extended([AnnotatedAxiom(GCI(rhs_probe, name), ONE), *facts])
    return extended, CA(name, root), markers, False


def entails(
    ontology: AnnotatedOntology,
    target,
    mon: Monomial,
    limits: Limits | None = None,
    *,
    disabled_rules=(),
) -> bool:
    """Decide entailment of ``target`` annotated with ``mon``.

    ``target`` is any axiom or a ``(concept, ind)`` instance query; the
    probe reduces it to one assertion, decided with the queried monomial
    times the probe's markers.
    """
    extended, assertion, markers, _ = probe(ontology, target)
    return entails_assertion(
        extended, assertion, mon * markers, limits, disabled_rules=disabled_rules
    )


def entailed_range_restrictions(
    ontology: AnnotatedOntology, limits: Limits | None = None
) -> list[AnnotatedAxiom]:
    """All entailed annotated range restrictions of a normal-form ontology.

    One probe edge per role, each carrying its own marker variable, is
    added and the combined ontology saturated once; the marker keeps the
    per-role consequences apart and filters derivations that do not use
    the probe edge.
    """
    fresh = FreshNames(ontology.all_names())
    probes: list[AnnotatedAxiom] = []
    probe_info: list[tuple[str, str, Variable]] = []
    for role in ontology.role_names:
        a, b = fresh.individual(), fresh.individual()
        w = fresh.variable()
        probes.append(AnnotatedAxiom(RA(role, a, b), Monomial((w,))))
        probe_info.append((role, b, w))
    if not probes:
        return []
    sat = saturate(ontology.extended(probes), limits=limits)
    out: list[AnnotatedAxiom] = []
    for role, b, w in probe_info:
        for ann in sat.axioms:
            ax = ann.axiom
            if (
                isinstance(ax, CA)
                and ax.ind == b
                and isinstance(ax.concept, Atomic)
                and not ax.concept.name.startswith("__")
                and ann.annotation.mentions(w)
            ):
                stripped = Monomial(tuple(v for v in ann.annotation.vars if v != w))
                out.append(AnnotatedAxiom(RR(role, ax.concept.name), stripped))
    return out
