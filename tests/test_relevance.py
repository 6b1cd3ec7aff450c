import random

import pytest

from elprov.completion import Limits, ResourceCapExceeded, saturate
from elprov.ontology import (
    CA,
    GCI,
    RA,
    RI,
    RR,
    AnnotatedAxiom,
    Atomic,
    Conj,
    Exists,
    ExistsQ,
    normalize,
    parse_ontology,
)
from elprov.provenance import Monomial, Variable, parse_monomial
from elprov.relevance import merged_saturate, relevant_monomial

from generators import random_normalized_ontology

MAYOR = """
ra mayor(Venice, Orsoni) @ v1
ra predecessor(Brugnaro, Orsoni) @ v2
gci some(predecessor, Mayor) <= Mayor @ v3
rr ran(mayor) <= Mayor @ v4
"""


def vset(*names):
    return frozenset(Variable(n) for n in names)


def blowup_ontology(n):
    lines = [f"gci A <= A{i} @ v{i}\ngci A{i} <= B @ u{i}" for i in range(1, n + 1)]
    lines.append("gci B <= A @ u")
    return parse_ontology("\n".join(lines))


class TestMergedSaturate:
    def test_initial_merge_of_same_axiom(self):
        merged = merged_saturate(parse_ontology("ca A(a) @ v1\nca A(a) @ v2"))
        assert merged.monomial(CA(Atomic("A"), "a")) == parse_monomial("v1*v2")

    def test_single_assertion(self):
        merged = merged_saturate(parse_ontology("ca A(a) @ v"))
        assert merged.monomial(CA(Atomic("A"), "a")) == parse_monomial("v")
        assert merged.monomial(GCI(Atomic("A"), Atomic("A"))) == Monomial()

    def test_lookup_agrees_with_entries(self):
        merged = merged_saturate(parse_ontology("ca A(a) @ v\nca B(a) @ u\ngci and(A, B) <= C @ w"))
        assert len(merged) == len(merged.entries)
        for axiom, mon in merged.entries.items():
            assert merged.monomial(axiom) == mon
        for axiom in (CA(Conj(Atomic("A"), Atomic("B")), "a"), GCI(Atomic("A"), Exists("R"))):
            assert merged.monomial(axiom) is None

    def test_blowup_every_entry_collapses(self):
        merged = merged_saturate(normalize(blowup_ontology(2)))
        m = parse_monomial("u*u1*u2*v1*v2")
        # every inclusion among the names carries the full merged monomial
        assert merged.entries
        for ax, mon in merged.entries.items():
            assert isinstance(ax, GCI)
            assert mon == m, f"{ax} carries {mon}"

    def test_more_than_64_variables(self):
        # 70 routes into B(a), two variables each, then one step on to C(a):
        # the merged masks span several machine words
        lines = ["gci B <= C @ z"]
        for i in range(70):
            lines += [f"ca A{i}(a) @ x{i}", f"gci A{i} <= B @ y{i}"]
        merged = merged_saturate(parse_ontology("\n".join(lines)))
        routes = {f"x{i}" for i in range(70)} | {f"y{i}" for i in range(70)}
        assert merged.monomial(CA(Atomic("B"), "a")).variables() == vset(*routes)
        assert merged.monomial(CA(Atomic("C"), "a")).variables() == vset(*routes, "z")
        assert merged.monomial(CA(Atomic("A7"), "a")) == parse_monomial("x7")
        assert merged.merge_updates > 0
        relevant = relevant_monomial(parse_ontology("\n".join(lines)), CA(Atomic("C"), "a"))
        assert relevant.variables() == vset(*routes, "z")

    def test_update_counter_bound(self):
        rng = random.Random(3)
        for _ in range(40):
            o = normalize(random_normalized_ontology(rng))
            merged = merged_saturate(o)
            bound = len(merged.entries) * max(1, len(o.variables))
            assert merged.merge_updates <= bound


class TestRelevantVariables:
    def test_single_derivation(self):
        o = parse_ontology("ca A(a) @ u\ngci A <= B @ v")
        assert relevant_monomial(o, CA(Atomic("B"), "a")) == parse_monomial("u*v")

    def test_underivable_is_empty(self):
        o = parse_ontology("ca A(a) @ u")
        assert relevant_monomial(o, CA(Atomic("B"), "a")) is None

    def test_mayor(self):
        o = parse_ontology(MAYOR)
        assert relevant_monomial(o, CA(Atomic("Mayor"), "Brugnaro")) == parse_monomial(
            "v1*v2*v3*v4"
        )

    def test_role_assertion_target(self):
        o = parse_ontology("ra R(a, b) @ v1\nri R <= S @ v2")
        assert relevant_monomial(o, RA("S", "a", "b")) == parse_monomial("v1*v2")

    def test_equals_union_over_full_saturation(self):
        rng = random.Random(9)
        for _ in range(60):
            o = normalize(random_normalized_ontology(rng))
            merged = merged_saturate(o)
            sat = saturate(o)
            unions: dict = {}
            for ann in sat.axioms:
                if isinstance(ann.axiom, (CA, RA)):
                    unions.setdefault(ann.axiom, set()).update(ann.annotation.vars)
            for axiom, union in unions.items():
                entry = merged.monomial(axiom)
                assert entry is not None
                assert frozenset(entry.vars) == union

    def test_monotone_under_axiom_addition(self):
        rng = random.Random(10)
        for _ in range(30):
            o1 = random_normalized_ontology(rng)
            o2 = o1.extended(random_normalized_ontology(rng).axioms)
            m1 = merged_saturate(normalize(o1))
            m2 = merged_saturate(normalize(o2))
            for ax, mon in m1.entries.items():
                grown = m2.monomial(ax)
                assert grown is not None
                assert set(mon.vars) <= set(grown.vars)


class TestRelevantForAxiom:
    def test_cycle_members_are_relevant(self):
        o = parse_ontology("gci A <= B @ v1\ngci B <= C @ v2\ngci C <= B @ v3")
        target = GCI(Atomic("A"), Atomic("B"))
        relevant = relevant_monomial(o, target)
        assert Variable("v2") in relevant.vars
        assert Variable("v3") in relevant.vars
        assert Variable("v1") in relevant.vars
        assert relevant == parse_monomial("v1*v2*v3")

    def test_disconnected_axiom_irrelevant(self):
        o = parse_ontology("gci A <= B @ v1\ngci C <= D @ v2")
        assert Variable("v2") not in relevant_monomial(o, GCI(Atomic("A"), Atomic("B"))).vars

    def test_ri_relevance(self):
        o = parse_ontology("ri R <= S @ v1\nri S <= T @ v2")
        assert relevant_monomial(o, RI("R", "T")) == parse_monomial("v1*v2")
        assert relevant_monomial(o, RI("T", "R")) is None

    def test_rr_relevance(self):
        o = parse_ontology("ri R <= S @ v1\nrr ran(S) <= A @ v2")
        assert relevant_monomial(o, RR("R", "A")) == parse_monomial("v1*v2")

    def test_rr_relevance_requires_range_route(self):
        o = parse_ontology("gci Top <= A @ v\nra R(a, b) @ u")
        assert relevant_monomial(o, RR("R", "A")) is None

    def test_helper_variables_stripped(self):
        o = parse_ontology("gci A <= B @ v1")
        assert relevant_monomial(o, GCI(Atomic("A"), Atomic("B"))) == parse_monomial("v1")


class TestRelevantForIq:
    def test_instance_query(self):
        o = parse_ontology(MAYOR)
        got = relevant_monomial(normalize(o), (ExistsQ("predecessor", Atomic("Mayor")), "Brugnaro"))
        assert got == parse_monomial("v1*v2*v4")
        assert Variable("v2") in got.vars

    def test_unknown_individual(self):
        o = parse_ontology("ca A(a) @ v")
        assert relevant_monomial(o, (Atomic("A"), "zz")) is None


class TestLimits:
    @pytest.mark.parametrize(
        "target",
        [CA(Atomic("Mayor"), "Brugnaro"), GCI(Atomic("Mayor"), Atomic("Mayor")), RR("mayor", "Mayor")],
    )
    def test_axiom_cap_applies(self, target):
        o = parse_ontology(MAYOR)
        assert relevant_monomial(o, target, Limits(max_axioms=1000)) is not None
        with pytest.raises(ResourceCapExceeded):
            relevant_monomial(o, target, Limits(max_axioms=3))
