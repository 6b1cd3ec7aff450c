"""Saturation of normalized annotated ontologies and entailment decisions.

The saturation engine closes an ontology under seventeen completion
rules. Two only seed (reflexive inclusions for the names a run needs,
and a Top membership for every individual when it needs Top); the others
are rows of one table, ``_RULES``: two to five premise patterns over the
eight normal-form shapes and a conclusion pattern, e.g.
``sub A B, sub B C -> sub A C``, whose monomial is the product of the
premises' monomials. At import each row becomes one join plan per
premise taken as the delta: which premise to visit next (the one with
the most terms already bound; on a tie, one keyed by Top, then the one
that leaves the others fewest unbound terms, so that the last step looks
up a whole fact instead of scanning, then a TBox premise), the index
that finds it from the terms bound so far and the terms it binds. One
generic ``_join`` runs the plans from a semi-naive worklist. A fact
enters the indexes when it is taken off the queue and joins only with
facts taken before it or itself, and never with itself at a premise
before its own. So every rule instance (one choice of premises) fires
exactly once, when its last premise is taken, and the fired and
derivation counts do not depend on the order of the axioms or the joins.
Every run uses every rule; there is no switch to leave one out.

The same engine serves two stores: a set store that keeps every derived
(axiom, monomial) pair separately (optionally bounded to monomials of at
most ``k`` variables), and a merge store used by the relevance algorithm
that keeps one monomial per axiom and unions variables on update.
When a fact is taken, the set store adds its monomial to the fact's
taken monomials, and the merge store replaces them by it.

Inside a run a fact is a plain tuple ``(shape, Top, f1, f2[, f3])``,
e.g. ``("sub", Top, "A", "B")``: names are ``str`` (whose hash is
cached) and Top is ``None``, which no name equals. Monomials are int
bitmasks over the run's seed variables, numbered in name order, so a
product is ``|`` and a degree is ``bit_count()``. The canonical model
reads a run as it is: ``SaturatedSet.facts`` maps each fact to its
masks, and ``SaturatedSet.table``, the run's ``_VarTable``, turns a mask
into a ``Monomial`` once. Elsewhere ``Axiom`` and ``Monomial`` are the
boundary types: seeding maps axioms to facts and annotations to masks;
``SaturatedSet`` and ``relevance.MergedSet`` map back what is asked for,
and an axiom outside normal form is in neither.

Two cuts keep the join from work that cannot store a fact. A product
only grows along a join, so a partner that takes it beyond ``k``
variables is skipped at once; ``fired`` and ``derivations`` therefore
count the rule instances within ``k``. And with the merge store a
queued merge that has grown again before it is taken is dropped: the
grown one is still queued and covers it.

Entailment of annotated assertions is membership in the saturation of
the axioms whose annotation divides the queried monomial and that can
reach the queried fact (``entails_assertion``, the only place that
normalizes, saturates and tests membership): a derivation's monomial is
the union of its axioms' variables, so no axiom outside that cut can
take part, and ``_module`` (the reachability module of Suntisrivaraporn,
ESWC 2008) keeps of the cut what can. Only the cut's axioms become
facts, so only they are checked for normal form; a full run checks
every axiom. A fact has a head name, what it concludes about, and body
names, what it needs; Top counts as a name:
``ri R S``: S from R; ``rr R B``: B from R; ``sub A B``: B from A;
``exr A R``: R from A; ``conj A B C``: C from A and B; ``exq R A B``: B
from R and A; ``ca A a``: A; ``ra R a b``: R. From the queried fact's
head, every input seed with a needed head is kept and makes its body
names needed. Call a fact closed when its body names are needed if its
head is. Per seed rule, and per row of ``_RULES`` given closed premises,
a conclusion with a needed head has premises with needed heads (read
"X: p" as "X is needed, so premise p has a needed head") and is closed:

- reflexivity (sub A A, ri R R): seeded for needed names only; body A, R.
- top-instance (ca Top a): seeded for every individual when Top is needed; no body.
- role-chain: T: ri S T; S: ri R S; body R.
- range-of-subrole: B: rr S B; S: ri R S; body R.
- existential-subrole: S: ri R S; R: exr A R; body A.
- concept-chain: C: sub B C; B: sub A B; body A.
- chain-into-existential: R: exr B R; B: sub A B; body A.
- conjunction-subsumption: C: conj B1 B2 C; B1, B2: sub A B1, sub A B2; body A.
- range-conjunction: D: conj C1 C2 D; C1, C2: sub B1 C1, sub B2 C2;
  B1, B2: rr R B1, rr R B2; body R.
- top-conjunct-elim (sub Top B, conj A B C): C: conj A B C; B: sub Top B; body A.
- top-conjunct-elim (sub Top B, conj B A C): C: conj B A C; B: sub Top B; body A.
- existential-composition: D: exq R C D; R, C: ri S R, sub B C; S, B:
  exr A S, rr S B; body A.
- existential-top-composition: C: exq R B C; R, B: exr A R, sub Top B; body A.
- role-fact-hierarchy: S: ri R S; R: ra R a b.
- instance-chain: B: sub A B; A: ca A a.
- instance-conjunction: B: conj A1 A2 B; A1, A2: ca A1 a, ca A2 a.
- instance-existential: B: exq R A B; R, A: ra R a b, ca A b.
- instance-range: B: rr R B; R: ra R a b.

By induction over derivations, every derivation of a fact with a needed
head uses kept seeds only: for every such fact, the queried one
included, the run stores exactly the monomials of the run over the cut.
``probe`` reduces every other target (GCI, role inclusion, range
restriction, instance query) to an assertion over the ontology extended
by a small probe with reserved (``__``-prefixed) helper names;
``entails`` decides any target through it, and the relevance algorithm
reuses the same probe.
"""

from __future__ import annotations

import time
import warnings
from collections import Counter, defaultdict, deque
from collections.abc import Callable
from functools import cached_property
from operator import itemgetter

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
    _VARIABLE,
    is_atomic_or_top,
    normalize,
    render_annotated,
    render_axiom,
)
from .provenance import ONE, Monomial, Variable, _monomial_of
from .syntax import _new, _Node

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


class Limits(_Node, fields=("max_axioms", "max_seconds")):
    """Resource caps for saturation and model construction; a time budget
    of None is none, and 0 is one that any run exceeds."""

    __slots__ = ()

    def __new__(cls, max_axioms: int = 1_000_000, max_seconds: float | None = None) -> "Limits":
        return _new(cls, ("Limits", max_axioms, max_seconds))


class ResourceCapExceeded(RuntimeError):
    def __init__(self, message: str, stats: "SaturationStats | None" = None):
        super().__init__(message)
        self.stats = stats


class UnknownNameWarning(UserWarning):
    """A queried axiom mentions names outside the ontology signature."""


class SaturationStats:
    __slots__ = ("fired", "added", "merge_updates", "facts")

    def __init__(self):
        self.fired, self.added, self.merge_updates, self.facts = Counter(), Counter(), 0, 0


# --- stores ----------------------------------------------------------------


class _VarTable:
    """One run's variable names in order; variable i is the bit ``1 << i``."""

    def __init__(self, annotations):
        self.names = tuple(sorted({name for mon in annotations for name in mon.names}))
        self.bits = {v: 1 << i for i, v in enumerate(_monomial_of(self.names).vars)}
        self._monomials: dict[int, Monomial] = {0: ONE}

    def mask(self, mon: Monomial) -> int | None:
        """None if ``mon`` names a variable outside the run."""
        bits = [self.bits.get(v) for v in mon]
        return None if None in bits else sum(bits)  # the variables are distinct

    def monomial(self, mask: int) -> Monomial:
        mon = self._monomials.get(mask)
        if mon is None:
            names, rest = [], mask
            while rest:  # one step per set bit, lowest first: in name order
                low = rest & -rest
                names.append(self.names[low.bit_length() - 1])
                rest ^= low
            mon = self._monomials[mask] = _monomial_of(tuple(names))
        return mon


class _SetStore:
    """One entry per (fact, monomial mask) pair; insertion ordered."""

    def __init__(self, k: int | None):
        self.k = k
        self.by_fact: dict[tuple, dict[int, None]] = {}
        self.size = 0

    def add(self, fact: tuple, mon: int) -> int | None:
        mons = self.by_fact.setdefault(fact, {})
        if mon in mons:
            return None
        mons[mon] = None
        self.size += 1
        return mon

    @staticmethod
    def taken(mons: list[int], mon: int) -> None:
        mons.append(mon)


class _MergeStore:
    """One monomial mask per fact; additions union the variable sets."""

    k = None  # merged monomials are not bounded

    def __init__(self):
        self.by_fact: dict[tuple, int] = {}
        self.size = 0
        self.growths = 0

    def add(self, fact: tuple, mon: int) -> int | None:
        current = self.by_fact.get(fact)
        if current is None:
            self.by_fact[fact] = mon
            self.size += 1
            return mon
        merged = current | mon
        if merged == current:
            return None
        self.by_fact[fact] = merged
        self.growths += 1
        return merged

    @staticmethod
    def taken(mons: list[int], mon: int) -> None:
        mons[:] = (mon,)  # a taken merge supersedes the ones before it


# --- engine ----------------------------------------------------------------


def _name(c: Concept) -> str | None:
    return None if isinstance(c, Top) else c.name


def _concept(name: str | None) -> Concept:
    return TOP if name is None else Atomic(name)


def _fact(ax: Axiom) -> tuple | None:
    """``ax`` as an engine fact: its normal-form shape, Top, its fields.

    Field values are plain names and Top is None, which no name equals.
    None if ``ax`` is not in normal form.
    """
    if isinstance(ax, RI):
        return "ri", None, ax.sub, ax.sup
    if isinstance(ax, RR):
        return "rr", None, ax.role, ax.filler
    if isinstance(ax, RA):
        return "ra", None, ax.role, ax.a, ax.b
    if isinstance(ax, CA):
        if is_atomic_or_top(ax.concept):
            return "ca", None, _name(ax.concept), ax.ind
    elif isinstance(ax, GCI):
        lhs, rhs = ax.lhs, ax.rhs
        if isinstance(rhs, (Atomic, Top)):
            if is_atomic_or_top(lhs):
                return "sub", None, _name(lhs), _name(rhs)
            if isinstance(lhs, Conj) and is_atomic_or_top(lhs.left) and is_atomic_or_top(lhs.right):
                return "conj", None, _name(lhs.left), _name(lhs.right), _name(rhs)
            if isinstance(lhs, ExistsQ) and is_atomic_or_top(lhs.filler):
                return "exq", None, lhs.role, _name(lhs.filler), _name(rhs)
        elif isinstance(rhs, Exists) and is_atomic_or_top(lhs):
            return "exr", None, _name(lhs), rhs.role
    return None


# The inverse of ``_fact``, per shape, from the fields after Top.
_AXIOM = {
    "ri": RI,
    "rr": RR,
    "ra": RA,
    "ca": lambda a, ind: CA(_concept(a), ind),
    "sub": lambda a, b: GCI(_concept(a), _concept(b)),
    "exr": lambda a, role: GCI(_concept(a), Exists(role)),
    "conj": lambda a, b, c: GCI(Conj(_concept(a), _concept(b)), _concept(c)),
    "exq": lambda role, a, b: GCI(ExistsQ(role, _concept(a)), _concept(b)),
}


def _axiom(fact: tuple) -> Axiom:
    return _AXIOM[fact[0]](*fact[2:])


# Rows: a name from RULE_NAMES and premises -> conclusion. ``Top`` is the
# constant, every other word a variable. Shapes: ri R S = R <= S, rr R B =
# ran(R) <= B, sub A B = A <= B, exr A R = A <= some(R), conj A B C =
# and(A, B) <= C, exq R A B = some(R, A) <= B, ca A a, ra R a b.
_RULES = (
    ("role-chain", "ri R S, ri S T -> ri R T"),
    ("range-of-subrole", "ri R S, rr S B -> rr R B"),
    ("existential-subrole", "exr A R, ri R S -> exr A S"),
    ("concept-chain", "sub A B, sub B C -> sub A C"),
    ("chain-into-existential", "sub A B, exr B R -> exr A R"),
    ("conjunction-subsumption", "sub A B1, sub A B2, conj B1 B2 C -> sub A C"),
    ("range-conjunction", "rr R B1, rr R B2, sub B1 C1, sub B2 C2, conj C1 C2 D -> rr R D"),
    ("top-conjunct-elim", "sub Top B, conj A B C -> sub A C"),
    ("top-conjunct-elim", "sub Top B, conj B A C -> sub A C"),
    ("existential-composition", "exr A S, rr S B, sub B C, ri S R, exq R C D -> sub A D"),
    ("existential-top-composition", "exr A R, sub Top B, exq R B C -> sub A C"),
    ("role-fact-hierarchy", "ra R a b, ri R S -> ra S a b"),
    ("instance-chain", "ca A a, sub A B -> ca B a"),
    ("instance-conjunction", "ca A1 a, ca A2 a, conj A1 A2 B -> ca B a"),
    ("instance-existential", "ra R a b, ca A b, exq R A B -> ca B a"),
    ("instance-range", "ra R a b, rr R B -> ca B b"),
)


class _Step(_Node, fields=("index", "key", "binds", "before", "next", "conclusion")):
    """Which index holds the partners, the key (slots -> index key) they
    are found by, the (partner field, slot) pairs it fills, whether the
    partner's premise comes before the delta's, the step run per partial
    product (None after the last) and, on the last, slots -> the conclusion."""

    __slots__ = ()


class _Plan(_Node, fields=("rule", "shape", "top", "pad", "first")):
    """A join for one premise taken as the delta.

    The slots start as the delta fact with the conclusion's ``shape`` in
    place of its own (slot 1 is Top); the steps fill the rest, ``pad``.
    ``top`` is the delta field that must be Top; 1, which always is, if none.
    """

    __slots__ = ()


def _compile_rules():
    """Join plans per delta shape, and per shape the indexes its facts enter.

    From each delta the join next visits the premise with the most terms
    already bound (Top always is). On a tie: one keyed by Top (few concepts
    hold everywhere), the one after which the others lack the fewest
    terms, a TBox premise over an assertion, the earlier premise.
    """
    plans: dict[str, list[_Plan]] = defaultdict(list)
    indexes: dict[tuple[str, tuple[int, ...]], int] = {}
    for name, text in _RULES:
        lhs, rhs = text.split(" -> ")
        premises = [p.split() for p in lhs.split(", ")]
        cshape, *cterms = rhs.split()
        for delta, (shape, *terms) in enumerate(premises):
            # slot 1 is Top, slot f the delta's field f (field 1 of every fact is Top)
            slot = {t: f for f, t in enumerate(terms, 2)} | {"Top": 1}
            width = 2 + len(terms)
            rest = [q for q in range(len(premises)) if q != delta]
            steps = []
            while rest:
                q = max(rest, key=lambda q: (
                    sum(t in slot for t in premises[q][1:]),
                    "Top" in premises[q],
                    -len({t for p in rest if p != q for t in premises[p][1:]} - {*slot, *premises[q][1:]}),
                    premises[q][0] not in ("ca", "ra"),
                    -q,
                ))
                rest.remove(q)
                pshape, *pterms = premises[q]
                bound = tuple(f for f, t in enumerate(pterms, 2) if t in slot)
                assert bound, f"{name}: premise {q} shares no term with those before it"
                index = indexes.setdefault((pshape, bound), len(indexes))
                key = itemgetter(*(slot[pterms[f - 2]] for f in bound))
                binds = []
                for f, t in enumerate(pterms, 2):
                    if f not in bound:
                        binds.append((f, width))
                        slot[t], width = width, width + 1
                steps.append((index, key, tuple(binds), q < delta))
            step, conclusion = None, itemgetter(0, 1, *(slot[t] for t in cterms))
            for index, key, binds, before in reversed(steps):
                step, conclusion = _Step(index, key, binds, before, step, conclusion), None
            top = terms.index("Top") + 2 if "Top" in terms else 1
            pad = (None,) * (width - 2 - len(terms))
            plans[shape].append(_Plan(RULE_NAMES.index(name), cshape, top, pad, step))
    indexed: dict[str, list[tuple[int, Callable]]] = defaultdict(list)
    for (shape, positions), index in indexes.items():
        indexed[shape].append((index, itemgetter(*positions)))
    return plans, indexed


_PLANS, _INDEXED = _compile_rules()


class _Saturator:
    """One run over a normal-form ontology; with ``question``, a fact and
    a monomial, over the monomial's cut that can reach the fact only."""

    def __init__(self, ontology, store, limits, track, question=None):
        self.store = store
        self.plans = _PLANS
        self.limits = limits or Limits()
        self.track = track
        self.stats = SaturationStats()
        self.table = _VarTable(
            (question[1],) if question else (ann.annotation for ann in ontology.axioms)
        )
        self.derivations: dict[tuple[tuple, int], Counter] = {}
        self.queue: deque[tuple[tuple, int]] = deque()
        budget = self.limits.max_seconds
        self.deadline = None if budget is None else time.monotonic() + budget
        self._ticks = 0
        # per taken fact: its taken monomials
        self.taken: dict[tuple, list[int]] = {}
        # index key -> [(fact, taken monomials)] of the taken facts
        self.index: list[dict] = [{} for plans in _INDEXED.values() for _ in plans]
        # the fact being joined: its taken monomials and its monomial
        self.delta: tuple[list[int], int] = ([], 0)
        self._seed(ontology, question)

    def _tick(self) -> None:
        self._ticks += 1
        if self.deadline is not None and self._ticks % 256 == 0:
            if time.monotonic() > self.deadline:
                raise ResourceCapExceeded("saturation wall-clock budget exceeded", self.stats)

    def _add(self, fact: tuple, mon: int, rule: str, seed: bool = False) -> None:
        self._tick()
        if not seed:
            self.stats.fired[rule] += 1
        if self.track:
            self.derivations.setdefault((fact, mon), Counter())[rule] += 1
        stored = self.store.add(fact, mon)
        if stored is None:
            return
        if self.store.size > self.limits.max_axioms:
            raise ResourceCapExceeded(
                f"saturation exceeded the cap of {self.limits.max_axioms} derived axioms",
                self.stats,
            )
        self.stats.added[rule] += 1
        self.queue.append((fact, stored))

    def _seed(self, ontology: AnnotatedOntology, question) -> None:
        masks: dict[Monomial, int | None] = {}  # annotations repeat, as one object per file
        seeds = []
        for ann in ontology.axioms:
            mon = ann.annotation
            mask = masks[mon] if mon in masks else masks.setdefault(mon, self.table.mask(mon))
            if mask is None:  # a variable outside the question's cut; a full run has none
                continue
            fact = _fact(ann.axiom)
            if fact is None:
                raise ValueError(f"axiom is not in normal form: {render_axiom(ann.axiom)}")
            seeds.append((fact, mask))
        concepts, roles = ontology.concept_names, ontology.role_names
        top = ontology.top_occurs or bool(ontology.individuals)
        if question is not None:
            seeds, needed = _module(seeds, question[0][2])
            concepts = [name for name in concepts if name in needed]
            roles = [role for role in roles if role in needed]
            top = top and None in needed
        for fact, mask in seeds:
            self._add(fact, mask, "input", seed=True)
        for name in concepts:
            self._add(("sub", None, name, name), 0, "reflexivity", seed=True)
        for role in roles:
            self._add(("ri", None, role, role), 0, "reflexivity", seed=True)
        if top:
            self._add(("sub", None, None, None), 0, "reflexivity", seed=True)
            for ind in ontology.individuals:
                self._add(("ca", None, None, ind), 0, "top-instance", seed=True)

    def run(self) -> SaturationStats:
        queue, index, taken, join, tick = self.queue, self.index, self.taken, self._join, self._tick
        take = self.store.taken
        # a merge that grew again since it was queued is covered by the newer one, still queued
        current = self.store.by_fact if isinstance(self.store, _MergeStore) else None
        while queue:
            fact, mon = queue.popleft()
            tick()  # also when every join of this fact is cut
            if current is not None and current[fact] != mon:
                continue
            mons = taken.get(fact)
            if mons is None:
                # a fact enters the indexes when it is first taken
                mons = taken[fact] = []
                for i, key in _INDEXED[fact[0]]:
                    index[i].setdefault(key(fact), []).append((fact, mons))
            take(mons, mon)
            self.delta = mons, mon
            for _, rule, shape, top, pad, first in self.plans[fact[0]]:
                if fact[top] is not None:
                    continue
                # first[1:3], its index and key: the key reads only the delta's fields
                partners = index[first[1]].get(first[2](fact))
                if partners:
                    slots = [*fact, *pad]
                    slots[0] = shape
                    join(RULE_NAMES[rule], first, slots, mon, partners)
        self.stats.facts = self.store.size
        if isinstance(self.store, _MergeStore):
            self.stats.merge_updates = self.store.growths
        return self.stats

    def _join(self, rule: str, step: _Step, slots: list, mon: int, partners: list) -> None:
        """Extend the partial match ``slots`` (product ``mon``) by ``step``.

        ``partners`` are taken facts, and the indexes and taken monomials
        change only when a fact is taken, so the join reads a fixed view.
        At a premise before its own the delta is not its own partner, so a
        rule instance fires once: when its last premise is taken. A
        product only grows along the join, so a partner that takes it
        beyond ``k`` variables is skipped at once.
        """
        _, _, _, binds, before, nxt, conclusion = step
        k = self.store.k
        own, own_mon = self.delta if before else (None, -1)
        for fact, mons in partners:
            for f, s in binds:
                slots[s] = fact[f]
            skip = own_mon if mons is own else -1
            if nxt is None:
                concluded = conclusion(slots)
                for n in mons:
                    if n != skip:
                        n |= mon
                        if k is None or n.bit_count() <= k:
                            self._add(concluded, n, rule)
                continue
            later = self.index[nxt[1]].get(nxt[2](slots))  # by its index and key
            if later:
                for n in mons:
                    if n != skip:
                        n |= mon
                        if k is None or n.bit_count() <= k:
                            self._join(rule, nxt, slots, n, later)


# --- public saturation API --------------------------------------------------


class SaturatedSet:
    """The closure of a normalized ontology under the completion rules.

    ``facts`` (each fact, laid out as the module docstring says, with its
    monomial masks) and ``table`` (the run's variables) are the engine's
    own view, read-only, which the canonical model reads. ``axioms``
    converts every pair, sorted, for printing.
    """

    def __init__(
        self, store: _SetStore, table: _VarTable, k: int | None, stats: SaturationStats, derivations
    ):
        self.facts = store.by_fact
        self.table = table
        self.k = k
        self.stats = stats
        self._derivations = derivations

    @cached_property
    def axioms(self) -> tuple[AnnotatedAxiom, ...]:
        members = []
        for fact, masks in self.facts.items():
            axiom = _axiom(fact)
            members.extend(AnnotatedAxiom(axiom, self.table.monomial(mask)) for mask in masks)
        members.sort(key=lambda ann: (render_axiom(ann.axiom), ann.annotation))
        return tuple(members)

    def __len__(self) -> int:
        return self.stats.facts

    def contains(self, axiom: Axiom, mon: Monomial) -> bool:
        # a mask of None (a variable outside the run) is in no entry
        return self.table.mask(mon) in self.facts.get(_fact(axiom), ())

    def dump_lines(self) -> list[str]:
        return [render_annotated(ann) for ann in self.axioms]

    def dump_json_obj(self) -> dict:
        rows = []
        for ann in self.axioms:
            row = {"axiom": render_axiom(ann.axiom), "annotation": str(ann.annotation)}
            if self._derivations is not None:
                key = (_fact(ann.axiom), self.table.mask(ann.annotation))
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
    track_derivations: bool = False,
) -> SaturatedSet:
    """Close a normal-form ontology under the completion rules.

    ``k`` bounds derived monomials to at most k variables (input axioms
    are kept regardless); ``None`` means full saturation, which suffices
    for every entailment over the ontology's variables. A negative ``k``
    is a ValueError.
    """
    if k is not None and k < 0:
        raise ValueError(f"k must be a non-negative integer, got {k}")
    store = _SetStore(k)
    sat = _Saturator(ontology, store, limits, track_derivations)
    stats = sat.run()
    return SaturatedSet(store, sat.table, k, stats, sat.derivations if track_derivations else None)


# --- entailment ------------------------------------------------------------


def _assertion_signature_gap(ontology: AnnotatedOntology, assertion: Axiom) -> set[str]:
    """The names of ``assertion`` that the ontology's name-to-kind table
    lacks, or has as another kind."""
    if isinstance(assertion, RA):
        uses = [(assertion.role, "role"), (assertion.a, "individual"), (assertion.b, "individual")]
    elif isinstance(assertion, CA):
        uses = [(assertion.ind, "individual")]
        if isinstance(assertion.concept, Atomic):
            uses.append((assertion.concept.name, "concept"))
    else:
        raise TypeError(f"not an assertion: {assertion!r}")
    return {name for name, kind in uses if ontology._kinds.get(name) != kind}


def entails_assertion(
    ontology: AnnotatedOntology, assertion: Axiom, mon: Monomial, limits: Limits | None = None
) -> bool:
    """Decide entailment of an annotated assertion.

    Normalizes the ontology, saturates the axioms whose annotation
    divides the queried monomial (every product of that run divides it
    too, so it needs no k-bound), and checks membership of the canonical
    pair. Assertions over unknown names are reported not-entailed with an
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
    goal = _fact(assertion)
    if goal is None:  # over a concept that is neither a name nor Top: in no run
        return False
    store = _SetStore(None)
    run = _Saturator(normalize(ontology), store, limits, track=False, question=(goal, mon))
    run.run()
    return run.table.mask(mon) in store.by_fact.get(goal, ())


def _module(seeds: list[tuple[tuple, int]], goal: str | None):
    """The seeds that can take part in deriving a fact about ``goal``, in
    their order, and the names they need; Top is None. A seed is kept when
    its head is needed, and its body names are then needed too."""
    heads = [fact[2] if fact[0] in ("ca", "ra") else fact[-1] for fact, _ in seeds]
    by_head = defaultdict(list)
    for (fact, _), head in zip(seeds, heads):
        if fact[0] not in ("ca", "ra"):
            by_head[head].append(fact[2:-1])
    needed, todo = {goal}, [goal]
    while todo:
        for body in by_head.pop(todo.pop(), ()):
            for name in body:
                if name not in needed:
                    needed.add(name)
                    todo.append(name)
    return [seed for seed, head in zip(seeds, heads) if head in needed], needed


def probe(
    ontology: AnnotatedOntology, target
) -> tuple[AnnotatedOntology, Axiom, Monomial]:
    """Reduce a target to an assertion over the ontology extended by a probe.

    ``target`` is a ``CA``/``RA``/``GCI``/``RI``/``RR`` axiom or a
    ``(concept, ind)`` instance query. Returns the extended ontology, the
    assertion to decide and the product of the probe's marker variables,
    which an entailed monomial carries and relevance requires.

    - GCI: the right-hand side is funneled into a fresh target concept
      ``__e``; the left-hand side is instantiated at a fresh root ``__a``
      with one fresh marker variable ``__q<i>_...`` per structural position.
    - RI: a fresh edge of the subrole, decided on the superrole.
    - RR: a fresh edge of the role carrying a fresh marker, so memberships
      the target endpoint would have anyway (e.g. from inclusions out of
      Top) cannot fake a range entailment.
    - Instance query: the concept is funneled into a fresh name ``__iq``.
    """
    if isinstance(target, (CA, RA)):
        return ontology, target, ONE
    fresh = FreshNames(ontology.all_names())
    if type(target) is tuple:  # not a syntax node, which is a tuple subclass
        concept, ind = target
        name = Atomic(fresh.named("__iq"))
        extended = ontology.extended([AnnotatedAxiom(GCI(concept, name), ONE)])
        return extended, CA(name, ind), ONE
    if isinstance(target, RI):
        a, b = fresh.individual(), fresh.individual()
        extended = ontology.extended([AnnotatedAxiom(RA(target.sub, a, b), ONE)])
        return extended, RA(target.sup, a, b), ONE
    if isinstance(target, RR):
        a, b = fresh.individual(), fresh.individual()
        marker = Monomial((fresh.variable(),))
        extended = ontology.extended([AnnotatedAxiom(RA(target.role, a, b), marker)])
        return extended, CA(Atomic(target.filler), b), marker
    if not isinstance(target, GCI):
        raise TypeError(f"expected an axiom or an instance query, got {target!r}")
    rhs = target.rhs
    if not isinstance(rhs, (Atomic, Exists)):
        raise ValueError(f"right-hand side must be a concept name or some(R): {rhs}")
    name = Atomic(fresh.named("__e"))
    root = fresh.named("__a")
    facts: list[AnnotatedAxiom] = []
    # pre-order, left conjunct first; a right conjunct and the filler of a
    # some take the next marker index
    i, stack = 0, [(target.lhs, root, False)]
    while stack:
        c, ind, advance = stack.pop()
        i += advance
        if isinstance(c, Atomic):
            marker = Variable(f"__q{i}_{c.name}_{ind}")
            facts.append(AnnotatedAxiom(CA(c, ind), Monomial((marker,))))
        elif isinstance(c, ExistsQ):
            child = fresh.individual()
            marker = Variable(f"__q{i}_{c.role}_{ind}_{child}")
            facts.append(AnnotatedAxiom(RA(c.role, ind, child), Monomial((marker,))))
            stack.append((c.filler, child, True))
        elif isinstance(c, Conj):
            stack += ((c.right, ind, True), (c.left, ind, False))
        elif not isinstance(c, Top):
            raise ValueError(f"concept outside the lhs grammar: {c}")
    markers = Monomial(tuple(v for ann in facts for v in ann.annotation.vars))
    # a Top left-hand side leaves no facts; the root still has to exist
    facts = facts or [AnnotatedAxiom(CA(TOP, root), ONE)]
    rhs_probe = ExistsQ(rhs.role, TOP) if isinstance(rhs, Exists) else rhs
    extended = ontology.extended([AnnotatedAxiom(GCI(rhs_probe, name), ONE), *facts])
    return extended, CA(name, root), markers


def entails(
    ontology: AnnotatedOntology, target, mon: Monomial, limits: Limits | None = None
) -> bool:
    """Decide entailment of ``target`` annotated with ``mon``.

    ``target`` is any axiom or a ``(concept, ind)`` instance query; the
    probe reduces it to one assertion, decided with the queried monomial
    times the probe's markers. A monomial that mentions a variable foreign
    to the ontology is never entailed; without that check a queried probe
    marker would be absorbed by the markers' product.
    """
    extended, assertion, markers = probe(ontology, target)
    entailed = entails_assertion(extended, assertion, mon * markers, limits)
    return entailed and all(ontology._kinds.get(name) == _VARIABLE for name in mon.names)
