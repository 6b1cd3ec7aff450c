import operator
import random
import warnings
from collections import Counter
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from elprov.completion import (
    RULE_NAMES,
    Limits,
    ResourceCapExceeded,
    UnknownNameWarning,
    _INDEXED,
    _PLANS,
    _Saturator,
    _SetStore,
    entails,
    entails_assertion,
    probe,
    saturate,
)
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
    Top,
    normalize,
    parse_ontology,
    render_axiom,
)
from elprov.provenance import ONE, Monomial, Variable, parse_monomial
from elprov.relevance import merged_saturate, relevant_monomial

from closure import instance_counts, missing_conclusions
from crosscheck import (
    CONJUNCTION_RULES,
    entails_ca_via_gci,
    entails_ra_via_ri,
    entails_by_k_saturation,
    entails_without_rules,
    probe_gci_recursive,
    question_runs,
    reduce_ca_to_gci,
    reduce_ra_to_ri,
)
from generators import (
    TARGET_KINDS,
    VARS,
    _random_lhs,
    random_abox_ontology,
    random_general_ontology,
    random_monomial,
    random_normalized_ontology,
    random_target,
)
from oracle import chase

GOLDEN = Path(__file__).parent / "golden"

MAYOR = """
ra mayor(Venice, Orsoni) @ v1
ra predecessor(Brugnaro, Orsoni) @ v2
gci some(predecessor, Mayor) <= Mayor @ v3
rr ran(mayor) <= Mayor @ v4
"""


def mono(text):
    return parse_monomial(text)


def blowup_ontology(n):
    lines = [f"gci A <= A{i} @ v{i}\ngci A{i} <= B @ u{i}" for i in range(1, n + 1)]
    lines.append("gci B <= A @ u")
    return parse_ontology("\n".join(lines))


class TestSaturate:
    def test_reflexive_inclusion_seeded(self):
        sat = saturate(parse_ontology("ca A(a) @ v"))
        assert sat.contains(GCI(Atomic("A"), Atomic("A")), ONE)
        assert sat.contains(CA(TOP, "a"), ONE)

    def test_role_composition(self):
        sat = saturate(parse_ontology("ra R(a, b) @ v1\nri R <= S @ v2"))
        assert sat.contains(RA("S", "a", "b"), mono("v1*v2"))

    def test_blowup_family_n2(self):
        sat = saturate(normalize(blowup_ontology(2)))
        got = {ann.annotation for ann in sat.axioms if ann.axiom == GCI(Atomic("B"), Atomic("A"))}
        assert got == {mono("u"), mono("u*u1*v1"), mono("u*u2*v2"), mono("u*u1*v1*u2*v2")}

    def test_requires_normal_form(self):
        o = AnnotatedOntology(
            [AnnotatedAxiom(GCI(Conj(Atomic("A"), Conj(Atomic("B"), Atomic("C"))), Atomic("D")), ONE)]
        )
        with pytest.raises(ValueError):
            saturate(o)

    def test_k_bound_and_chain(self):
        o = normalize(blowup_ontology(2))
        sats = [saturate(o, k=k) for k in range(6)]
        for k, sat in enumerate(sats):
            for ann in sat.axioms:
                if not ann in o:
                    assert ann.annotation.degree <= k
        for small, big in zip(sats, sats[1:]):
            assert set(small.axioms) <= set(big.axioms)

    def test_negative_k_is_rejected(self):
        o = parse_ontology("ca A(a) @ v")
        with pytest.raises(ValueError, match="k must be a non-negative integer, got -1"):
            saturate(o, k=-1)

    def test_monotone_in_ontology(self):
        rng = random.Random(5)
        for _ in range(30):
            o1 = random_normalized_ontology(rng)
            extra = random_normalized_ontology(rng)
            o2 = o1.extended(extra.axioms)
            s1 = set(saturate(o1).axioms)
            s2 = set(saturate(o2).axioms)
            assert s1 <= s2

    def test_derived_variables_come_from_input(self):
        rng = random.Random(6)
        for _ in range(30):
            o = random_normalized_ontology(rng)
            allowed = set(o.variables)
            for ann in saturate(o).axioms:
                assert set(ann.annotation.vars) <= allowed

    def test_closure_rescan(self):
        rng = random.Random(7)
        for _ in range(25):
            sat = saturate(random_normalized_ontology(rng, max_axioms=5))
            assert missing_conclusions(sat) == []
        sat = saturate(normalize(blowup_ontology(2)))
        assert missing_conclusions(sat) == []

    def test_closure_rescan_k_bounded(self):
        rng = random.Random(8)
        for _ in range(10):
            sat = saturate(random_normalized_ontology(rng, max_axioms=5), k=2)
            assert missing_conclusions(sat) == []

    @pytest.mark.parametrize("k", [1, 2, None])
    def test_closure_rescan_wide_variable_pool(self, k):
        # 20-40 axioms annotated from 12 variables; the wider signature keeps
        # full saturation, whose size is exponential in the variables, small
        rng = random.Random(13)
        for _ in range(8):
            o = random_normalized_ontology(
                rng, max_axioms=40, min_axioms=20, n_vars=12, n_names=16
            )
            assert missing_conclusions(saturate(o, k=k)) == []

    def test_axiom_cap(self):
        with pytest.raises(ResourceCapExceeded) as exc:
            saturate(normalize(blowup_ontology(3)), limits=Limits(max_axioms=10))
        assert exc.value.stats is not None

    def test_dump_is_sorted_and_parseable_header(self):
        sat = saturate(parse_ontology("ca A(a) @ v\ngci A <= B @ u"))
        lines = sat.dump_lines()
        assert lines == sorted(lines)
        assert any(line.startswith("ca B(a) @ u*v") for line in lines)

    def test_derivation_tracking(self):
        sat = saturate(
            parse_ontology("ca A(a) @ v\ngci A <= B @ u"), track_derivations=True
        )
        obj = sat.dump_json_obj()
        by_axiom = {row["axiom"]: row for row in obj["axioms"]}
        derivations = by_axiom["ca B(a)"]["derivations"]
        # every route to B(a) chains an instance through an inclusion
        # (possibly padded by reflexive axioms)
        assert set(derivations) == {"instance-chain"} and derivations["instance-chain"] >= 1


JOINING_RULES = frozenset(RULE_NAMES) - {"reflexivity", "top-instance"}


def counted_ontologies():
    """The golden ontologies, normalized, and 300 seeded random ones."""
    for path in sorted(GOLDEN.glob("*.elp")):
        yield normalize(parse_ontology(path.read_text(encoding="utf-8")))
    rng = random.Random(21)
    for i in range(300):
        if i % 3:
            yield random_normalized_ontology(rng, max_axioms=8)
        else:
            yield random_normalized_ontology(rng, 16, min_axioms=8, n_vars=6, n_names=12)


def counts_json(sat):
    """``dump_json_obj`` without the order-dependent ``added`` counts."""
    obj = sat.dump_json_obj()
    del obj["stats"]["added"]
    return obj


def assert_counts_are_instances(sat):
    per_rule, per_conclusion = instance_counts(sat)
    assert sat.stats.fired == per_rule
    by_key = {(render_axiom(ax), str(mon)): c for (ax, mon), c in per_conclusion.items()}
    for row in sat.dump_json_obj()["axioms"]:
        found = {r: n for r, n in row["derivations"].items() if r in JOINING_RULES}
        assert found == by_key.get((row["axiom"], row["annotation"]), {}), row


class TestRuleCounts:
    """Every rule instance over the saturated set within k fires exactly once."""

    @pytest.mark.parametrize("k", [1, 2, None])
    def test_fired_and_derivations_count_rule_instances(self, k):
        for o in counted_ontologies():
            assert_counts_are_instances(saturate(o, k=k, track_derivations=True))

    def test_instances_beyond_k_derive_no_input(self):
        # both routes to A(a) @ v need a variable, which k = 0 does not admit
        o = parse_ontology("ca B(a) @ 1\ngci B <= A @ v\nca A(a) @ v")
        obj = saturate(o, k=0, track_derivations=True).dump_json_obj()
        rows = {row["axiom"]: row for row in obj["axioms"]}
        assert rows["ca A(a)"]["derivations"] == {"input": 1}

    def test_counts_do_not_depend_on_axiom_order(self):
        # ``added`` names the rule that inserted a fact first, so it does
        rng = random.Random(22)
        for n, o in enumerate(counted_ontologies()):
            if n % 3:
                continue
            axioms = list(o.axioms)
            rng.shuffle(axioms)
            shuffled = AnnotatedOntology(axioms)
            for k in (1, 2, None):
                expected = counts_json(saturate(o, k=k, track_derivations=True))
                assert counts_json(saturate(shuffled, k=k, track_derivations=True)) == expected


class TestLargerOntologies:
    def test_oracles_on_20_to_40_axioms(self):
        # the re-scan, the instance counts and the merged store's union
        # equivalence, beyond the 6-axiom generators
        rng = random.Random(23)
        for _ in range(40):
            o = random_normalized_ontology(rng, 40, min_axioms=20, n_vars=8, n_names=24)
            for k in (1, 2, None):
                sat = saturate(o, k=k, track_derivations=True)
                assert missing_conclusions(sat) == []
                assert_counts_are_instances(sat)
            # sat is the full saturation
            merged = merged_saturate(o).entries
            assert set(merged) == {ann.axiom for ann in sat.axioms}
            unions: dict = {}
            for ann in sat.axioms:
                unions.setdefault(ann.axiom, set()).update(ann.annotation.vars)
            for axiom, mon in merged.items():
                assert set(mon.vars) == unions[axiom], axiom


class TestJoinPlans:
    """From a delta the join looks up a TBox premise by a shared name
    before it scans the memberships of an individual, so that its last
    step finds a whole fact."""

    SHAPE = {i: shape for shape, indexed in _INDEXED.items() for i, _ in indexed}

    def orders(self, delta, rule):
        """Per plan of ``rule`` from a ``delta`` fact: (shape, terms bound) per step."""
        orders = []
        for plan in _PLANS[delta]:
            if RULE_NAMES[plan.rule] == rule:
                steps, step = [], plan.first
                while step is not None:
                    steps.append((self.SHAPE[step.index], len(step.binds)))
                    step = step.next
                orders.append(steps)
        return orders

    def test_instance_conjunction_from_a_membership(self):
        # conj A1 A2 B by A1 (or A2) binds the other conjunct and B; ca A2 a is then a whole fact
        assert self.orders("ca", "instance-conjunction") == [[("conj", 2), ("ca", 0)]] * 2

    def test_conjunction_subsumption_from_a_subsumption(self):
        assert self.orders("sub", "conjunction-subsumption") == [[("conj", 2), ("sub", 0)]] * 2

    def test_a_partner_keyed_by_top_first(self):
        # sub Top B holds for few B; exq R B C is then found by R and B
        assert self.orders("exr", "existential-top-composition") == [[("sub", 1), ("exq", 1)]]


class TestAboxHeavyOntologies:
    """The plans that start from an assertion, on ontologies where
    assertions, conjunctions and qualified existentials meet."""

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from([None, 1, 2]))
    def test_rescan_instance_counts_and_merged_unions(self, rng, k):
        o = random_abox_ontology(rng)
        sat = saturate(o, k=k, track_derivations=True)
        assert missing_conclusions(sat) == []
        assert sat.stats.fired == instance_counts(sat)[0]
        event(f"instance-conjunction fired: {bool(sat.stats.fired['instance-conjunction'])}")
        if k is None:
            merged = merged_saturate(o)
            assert merged._table.vars == sat.table.vars
            assert merged._merged == {f: reduce(operator.or_, masks) for f, masks in sat.facts.items()}


class TestTimeBudget:
    """The budget is checked per taken fact too, so joins cut by k still see it."""

    # 121 seeds, and at k = 0 only the 61 reflexive concept chains fire
    CHAIN = "\n".join(f"gci A{i} <= A{i + 1} @ v{i}" for i in range(60))

    @pytest.mark.parametrize("k", [0, None])
    def test_saturate(self, k):
        with pytest.raises(ResourceCapExceeded, match="saturation wall-clock budget exceeded"):
            saturate(parse_ontology(self.CHAIN), k=k, limits=Limits(max_seconds=1e-9))

    def test_merged_saturate(self):
        with pytest.raises(ResourceCapExceeded, match="saturation wall-clock budget exceeded"):
            merged_saturate(parse_ontology(self.CHAIN), limits=Limits(max_seconds=1e-9))


class TestMonomialBoundary:
    def test_input_annotation_above_k_survives(self):
        o = AnnotatedOntology(
            [
                AnnotatedAxiom(CA(Atomic("A"), "a"), mono("v1*v2*v3")),
                AnnotatedAxiom(GCI(Atomic("A"), Atomic("B")), mono("u")),
            ]
        )
        sat = saturate(o, k=1)
        assert sat.contains(CA(Atomic("A"), "a"), mono("v1*v2*v3"))
        a_of = [ann.annotation for ann in sat.axioms if ann.axiom == CA(Atomic("A"), "a")]
        assert a_of == [mono("v1*v2*v3")]
        assert all(ann.axiom != CA(Atomic("B"), "a") for ann in sat.axioms)
        assert saturate(o, k=4).contains(CA(Atomic("B"), "a"), mono("u*v1*v2*v3"))
        parsed = saturate(parse_ontology("ca A(a) @ v\ngci A <= B @ u"), k=0)
        assert parsed.contains(CA(Atomic("A"), "a"), mono("v"))
        assert all(ann.axiom != CA(Atomic("B"), "a") for ann in parsed.axioms)

    def test_contains_variable_outside_ontology(self):
        sat = saturate(parse_ontology("ca A(a) @ v\ngci A <= B @ u"))
        assert sat.contains(CA(Atomic("A"), "a"), mono("v"))
        assert not sat.contains(CA(Atomic("A"), "a"), mono("w"))
        assert not sat.contains(CA(Atomic("B"), "a"), mono("u*v*w"))
        assert not sat.contains(CA(TOP, "a"), mono("w"))

    def test_axiom_outside_normal_form_is_not_contained(self):
        sat = saturate(parse_ontology("ca A(a) @ v\nca B(a) @ u\ngci and(A, B) <= C @ w"))
        a, b, c = Atomic("A"), Atomic("B"), Atomic("C")
        for axiom in (
            CA(Conj(a, b), "a"),
            CA(ExistsQ("R", a), "a"),
            GCI(Conj(a, Conj(b, c)), Atomic("D")),
            GCI(a, Conj(b, c)),
            GCI(Exists("R"), a),
        ):
            assert not sat.contains(axiom, ONE)
            assert not sat.contains(axiom, mono("u*v"))
            assert all(ann.axiom != axiom for ann in sat.axioms)

    def test_monomials_keep_name_order_past_one_word(self):
        names = [f"v{i}" for i in range(70)]
        o = parse_ontology(
            "\n".join(f"gci A{i} <= A{i + 1} @ {v}" for i, v in enumerate(names))
            + "\nca A0(a) @ 1"
        )
        full = Monomial(tuple(Variable(v) for v in names))
        sat = saturate(o)
        assert [ann.annotation for ann in sat.axioms if ann.axiom == CA(Atomic("A70"), "a")] == [full]


class TestEntailsAssertion:
    def test_mayor_full_monomial(self):
        o = parse_ontology(MAYOR)
        assert entails_assertion(o, CA(Atomic("Mayor"), "Brugnaro"), mono("v1*v2*v3*v4"))

    def test_mayor_submonomials_fail(self):
        o = parse_ontology(MAYOR)
        assert not entails_assertion(o, CA(Atomic("Mayor"), "Brugnaro"), mono("v1*v3*v4"))

    def test_membership_of_input(self):
        o = parse_ontology("ca A(a) @ u")
        assert entails_assertion(o, CA(Atomic("A"), "a"), mono("u"))

    def test_unknown_names_warn(self):
        o = parse_ontology("ca A(a) @ u")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert not entails_assertion(o, CA(Atomic("Z"), "a"), mono("u"))
        assert any(issubclass(w.category, UnknownNameWarning) for w in caught)

    def test_top_assertion(self):
        o = parse_ontology("ca A(a) @ u")
        assert entails_assertion(o, CA(TOP, "a"), ONE)

    def test_assertion_outside_normal_form_is_not_entailed(self):
        # the engine stores no such fact, though and(A, B) holds at a with u*v
        o = parse_ontology("ca A(a) @ v\nca B(a) @ u")
        assert not entails_assertion(o, CA(Conj(Atomic("A"), Atomic("B")), "a"), mono("u*v"))


class TestEntailsGci:
    def test_conjunction_under_idempotency(self):
        o = parse_ontology("gci A <= B1 @ v1\ngci A <= B2 @ v2\ngci and(B1, B2) <= C @ v3")
        assert entails(o, GCI(Atomic("A"), Atomic("C")), mono("v1*v2*v3"))

    def test_reflexive(self):
        o = parse_ontology("ca A(a) @ u")
        assert entails(o, GCI(Atomic("A"), Atomic("A")), ONE)

    def test_two_step_cycle_collapses(self):
        o = parse_ontology("gci A <= B @ v1\ngci B <= A @ v2")
        assert entails(o, GCI(Atomic("A"), Atomic("B")), mono("v1*v2"))
        assert entails(o, GCI(Atomic("A"), Atomic("B")), mono("v1"))
        assert not entails(o, GCI(Atomic("A"), Atomic("B")), mono("v2"))

    def test_top_lhs(self):
        o = parse_ontology("gci Top <= B @ v")
        assert entails(o, GCI(TOP, Atomic("B")), mono("v"))
        assert not entails(o, GCI(TOP, Atomic("B")), ONE)

    def test_exists_rhs(self):
        o = parse_ontology("gci A <= some(R) @ v1\nri R <= S @ v2")
        assert entails(o, GCI(Atomic("A"), Exists("S")), mono("v1*v2"))

    def test_complex_lhs(self):
        o = parse_ontology("gci some(R, B) <= C @ v")
        assert entails(o, GCI(ExistsQ("R", Atomic("B")), Atomic("C")), mono("v"))

    def test_repeated_conjunct_occurrences_stay_distinct(self):
        # and(B, B) on the left needs two independent B memberships; an
        # inclusion usable only once cannot cover three occurrences
        o = parse_ontology("gci and(B, B) <= D @ u")
        lhs = Conj(Conj(Atomic("B"), Atomic("B")), Atomic("B"))
        assert entails(o, GCI(Conj(Atomic("B"), Atomic("B")), Atomic("D")), mono("u"))
        assert not entails(o, GCI(lhs, Atomic("D")), mono("u"))


class TestEntailsRiRr:
    def test_ri_chain(self):
        o = parse_ontology("ri R <= S @ v1\nri S <= T @ v2")
        assert entails(o, RI("R", "T"), mono("v1*v2"))

    def test_ri_reflexive(self):
        o = parse_ontology("ri R <= S @ v1")
        assert entails(o, RI("R", "R"), ONE)

    def test_ri_converse_fails(self):
        o = parse_ontology("ri R <= S @ v1")
        assert not entails(o, RI("S", "R"), mono("v1"))

    def test_rr_through_subrole(self):
        o = parse_ontology("ri R <= S @ v1\nrr ran(S) <= A @ v2")
        assert entails(o, RR("R", "A"), mono("v1*v2"))

    def test_rr_direct(self):
        o = parse_ontology("rr ran(R) <= A @ v")
        assert entails(o, RR("R", "A"), mono("v"))

    def test_rr_empty_ontology(self):
        o = parse_ontology("ra R(a, b) @ u")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnknownNameWarning)
            assert not entails(o, RR("R", "A"), ONE)

    def test_rr_not_faked_by_top_inclusion(self):
        # membership every element has anyway must not count as a range bound
        o = parse_ontology("gci Top <= A @ v\nra R(a, b) @ u")
        assert not entails(o, RR("R", "A"), mono("v"))
        assert not entails(o, RR("R", "A"), ONE)


class TestProbeMarkersAreForeign:
    # the probe's marker variables are not the ontology's: naming one in
    # the queried monomial must not let idempotency absorb it

    def test_rr_marker(self):
        o = parse_ontology("rr ran(R) <= A @ 1\nra R(a, b) @ v")
        assert entails(o, RR("R", "A"), ONE)
        assert not entails(o, RR("R", "A"), mono("__var0"))

    def test_gci_marker(self):
        o = parse_ontology("gci A <= B @ v")
        assert entails(o, GCI(Atomic("A"), Atomic("B")), mono("v"))
        assert not entails(o, GCI(Atomic("A"), Atomic("B")), mono("v*__q0_A___a0"))


class TestEntailsIq:
    def test_qualified_existential_instance(self):
        o = parse_ontology(MAYOR)
        assert entails(
            o, (ExistsQ("predecessor", Atomic("Mayor")), "Brugnaro"), mono("v1*v2*v4")
        )

    def test_top_instance(self):
        o = parse_ontology(MAYOR)
        assert entails(o, (TOP, "Brugnaro"), ONE)

    def test_membership(self):
        o = parse_ontology("ca A(a) @ v")
        assert entails(o, (Atomic("A"), "a"), mono("v"))

    def test_unknown_individual_warns(self):
        o = parse_ontology("ca A(a) @ v")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert not entails(o, (Atomic("A"), "zz"), mono("v"))
        assert any(issubclass(w.category, UnknownNameWarning) for w in caught)


class TestProbe:
    def test_assertion_passes_through(self):
        o = parse_ontology("ca A(a) @ v")
        assert probe(o, CA(Atomic("A"), "a")) == (o, CA(Atomic("A"), "a"), ONE)

    def test_instance_query_is_not_folded_into_an_assertion(self):
        o = parse_ontology("ca A(a) @ v")
        extended, assertion, markers = probe(o, (Atomic("A"), "a"))
        assert assertion == CA(Atomic("__iq0"), "a")
        assert AnnotatedAxiom(GCI(Atomic("A"), Atomic("__iq0")), ONE) in extended
        assert markers == ONE

    def test_gci_marks_every_lhs_position(self):
        o = parse_ontology("gci A <= B @ v")
        lhs = Conj(Atomic("A"), ExistsQ("R", Atomic("A")))
        extended, assertion, markers = probe(o, GCI(lhs, Exists("S")))
        assert assertion == CA(Atomic("__e0"), "__a0")
        assert str(markers) == "__q0_A___a0*__q1_R___a0___ind0*__q2_A___ind0"
        assert AnnotatedAxiom(GCI(ExistsQ("S", TOP), Atomic("__e0")), ONE) in extended
        assert AnnotatedAxiom(RA("R", "__a0", "__ind0"), mono("__q1_R___a0___ind0")) in extended

    def test_top_lhs_still_has_a_root(self):
        extended, assertion, markers = probe(parse_ontology("gci A <= B @ v"), GCI(TOP, Atomic("B")))
        assert AnnotatedAxiom(CA(TOP, "__a0"), ONE) in extended
        assert assertion == CA(Atomic("__e0"), "__a0") and markers == ONE

    def test_range_restriction_requires_its_edge_marker(self):
        o = parse_ontology("gci A <= B @ v")
        extended, assertion, markers = probe(o, RR("R", "B"))
        assert AnnotatedAxiom(RA("R", "__ind0", "__ind1"), markers) in extended
        assert assertion == CA(Atomic("B"), "__ind1")
        assert str(markers) == "__var0"

    def test_gci_probe_agrees_with_the_recursive_probe(self):
        rng = random.Random(5)
        for _ in range(400):
            o = random_general_ontology(rng)
            target = GCI(_random_lhs(rng, 4), rng.choice((Atomic("E"), Exists("R"))))
            extended, assertion, markers = probe(o, target)
            old = probe_gci_recursive(o, target)
            assert (list(extended), assertion, markers) == (list(old[0]), *old[1:])

    def test_a_deep_left_hand_side_does_not_recurse(self):
        # 3,000 levels of some and and: the probe keeps an explicit stack
        lhs = Atomic("A")
        for i in range(3000):
            lhs = Conj(lhs, TOP) if i % 2 else ExistsQ("R", lhs)
        o = parse_ontology("gci some(R, A) <= A @ v1\ngci A <= E @ v2\n")
        gci = GCI(lhs, Atomic("E"))
        assert entails(o, gci, mono("v1*v2")) and not entails(o, gci, mono("v2"))
        assert relevant_monomial(o, gci) == mono("v1*v2")


class TestReductions:
    def test_concept_assertion_encoding(self):
        o = normalize(parse_ontology("ca A(a) @ v"))
        enc, c_a = reduce_ca_to_gci(o, "a")
        assert AnnotatedAxiom(GCI(Atomic(c_a), Atomic("A")), mono("v")) in enc

    def test_role_assertion_encoding(self):
        o = normalize(parse_ontology("ra R(a, b) @ v"))
        enc, c_a = reduce_ca_to_gci(o, "a")
        helper_roles = [ax.axiom for ax in enc if isinstance(ax.axiom, RI)]
        assert RI("__r_a_b", "R") in helper_roles
        assert AnnotatedAxiom(GCI(Atomic("__c_a"), Exists("__r_a_b")), ONE) in enc
        assert AnnotatedAxiom(RR("__r_a_b", "__c_b"), ONE) in enc

    def test_no_assertions_keeps_tbox(self):
        o = normalize(parse_ontology("gci A <= B @ v"))
        enc, _ = reduce_ca_to_gci(o, "a")
        assert AnnotatedAxiom(GCI(Atomic("A"), Atomic("B")), mono("v")) in enc
        assert len(enc) == 1

    def test_ra_to_ri_encoding(self):
        o = parse_ontology("ra R(a, b) @ v1\nri R <= T @ v2")
        enc, s = reduce_ra_to_ri(o, "a", "b")
        assert AnnotatedAxiom(RI(s, "R"), mono("v1")) in enc
        assert AnnotatedAxiom(RI("R", "T"), mono("v2")) in enc

    def test_ra_to_ri_no_edges(self):
        o = parse_ontology("ri R <= T @ v2")
        assert not entails_ra_via_ri(o, "T", "a", "b", mono("v2"))

    def test_cross_check_mayor(self):
        o = parse_ontology(MAYOR)
        assert entails_ca_via_gci(o, "Mayor", "Brugnaro", mono("v1*v2*v3*v4"))
        assert not entails_ca_via_gci(o, "Mayor", "Brugnaro", mono("v1*v3*v4"))


class TestOracleAgreement:
    def test_chase_matches_saturation_small(self):
        rng = random.Random(42)
        for _ in range(40):
            o = random_normalized_ontology(rng)
            sat = saturate(o)
            result = chase(o)
            got_ca = {
                (ax.concept.name, ax.ind, ann.annotation)
                for ann in sat.axioms
                for ax in [ann.axiom]
                if isinstance(ax, CA) and isinstance(ax.concept, Atomic)
            }
            got_ra = {
                (ax.role, ax.a, ax.b, ann.annotation)
                for ann in sat.axioms
                for ax in [ann.axiom]
                if isinstance(ax, RA)
            }
            assert got_ca == result.concept_facts
            assert got_ra == result.role_facts

    def test_mayor_chase(self):
        o = parse_ontology(MAYOR)
        result = chase(normalize(o))
        assert result.holds_ca("Mayor", "Brugnaro", mono("v1*v2*v3*v4"))
        assert not result.holds_ca("Mayor", "Brugnaro", mono("v1*v3*v4"))


class TestStability:
    def test_entailment_invariant_under_normalize(self):
        rng = random.Random(77)
        for _ in range(20):
            from generators import random_general_ontology

            o = random_general_ontology(rng, max_axioms=5)
            n = normalize(o)
            for concept in o.concept_names[:2]:
                for ind in o.individuals[:2]:
                    for m in (ONE, Monomial((Variable("v1"),))):
                        assert entails_assertion(
                            o, CA(Atomic(concept), ind), m
                        ) == entails_assertion(n, CA(Atomic(concept), ind), m)

    def test_saturation_is_deterministic(self):
        rng = random.Random(78)
        for _ in range(10):
            o = random_normalized_ontology(rng)
            first = saturate(o).axioms
            second = saturate(o).axioms
            assert first == second


class TestDisabledRules:
    def test_conjunction_rules_off_blocks_merge(self):
        o = parse_ontology("gci A <= B1 @ v1\ngci A <= B2 @ v2\ngci and(B1, B2) <= C @ v3")
        target = GCI(Atomic("A"), Atomic("C"))
        assert entails_without_rules(o, target, mono("v1*v2*v3"), ())
        assert not entails_without_rules(o, target, mono("v1*v2*v3"), CONJUNCTION_RULES)

    def test_other_rules_unaffected(self):
        o = parse_ontology("gci A <= B @ v1\ngci B <= C @ v2")
        target = GCI(Atomic("A"), Atomic("C"))
        assert entails_without_rules(o, target, mono("v1*v2"), CONJUNCTION_RULES)


class TestAgainstKSaturation:
    """``entails`` saturates only the axioms whose annotation divides the
    queried monomial; the k-saturation of the whole ontology decides the
    same questions."""

    FOREIGN = Monomial((Variable("foreign"),))

    @staticmethod
    def corpus():
        rng = random.Random(131)
        for path in sorted(GOLDEN.glob("*.elp")):
            yield path.name, parse_ontology(path.read_text())
        for i in range(40):
            yield f"normalized-{i}", random_normalized_ontology(rng)
        for i in range(40):
            yield f"general-{i}", random_general_ontology(rng)
        for i in range(12):
            o = random_normalized_ontology(rng, 30, min_axioms=15, n_vars=8, n_names=12)
            yield f"wide-{i}", o

    def monomials(self, rng, ontology, target):
        """1, degrees 1-3 from the ontology's variables and from the
        target's relevant ones (which are often entailed), and one
        monomial with a variable foreign to the ontology."""
        pool = list(ontology.variables)
        relevant = relevant_monomial(ontology, target)
        near = list(relevant.vars) if relevant is not None else []
        mons = {ONE, self.FOREIGN * Monomial(tuple(rng.sample(pool, min(1, len(pool)))))}
        for degree in (1, 2, 3):
            for source in (pool, near):
                if len(source) >= degree:
                    mons.add(Monomial(tuple(rng.sample(source, degree))))
        return sorted(mons, key=str)

    def test_entails_equals_the_k_saturation(self):
        rng = random.Random(7)
        pairs, entailed = Counter(), Counter()
        for name, o in self.corpus():
            for kind in TARGET_KINDS:
                for _ in range(2):
                    target = random_target(rng, o, kind)
                    if target is None:
                        continue
                    for mon in self.monomials(rng, o, target):
                        expected = entails_by_k_saturation(o, target, mon)
                        assert entails(o, target, mon) == expected, (name, target, str(mon))
                        pairs[kind] += 1
                        entailed[kind] += expected
        # every kind is asked often, and entailed as well as not
        for kind in TARGET_KINDS:
            assert pairs[kind] >= 400 and 10 <= entailed[kind] < pairs[kind], (kind, pairs, entailed)


def entailed_by_the_chase(ontology, target):
    """``entails`` for ``target``, as a function of the monomial, decided
    on the ground chase of the probed ontology."""
    extended, assertion, markers = probe(ontology, target)
    result = chase(extended)

    def decide(mon: Monomial) -> bool:
        probed = mon * markers
        if not set(mon.vars) <= set(ontology.variables):
            return False
        if isinstance(assertion, RA):
            return result.holds_ra(assertion.role, assertion.a, assertion.b, probed)
        if isinstance(assertion.concept, Top):  # the chase keeps no Top memberships: all are at 1
            return probed == ONE
        return result.holds_ca(assertion.concept.name, assertion.ind, probed)

    return decide


class TestAgainstTheWholeCut:
    """``entails`` runs the engine over the axioms of the monomial's cut
    that can reach the question. The run over the whole cut stores the
    same monomials for every fact the first one stores, and it and the
    ground chase decide the same questions."""

    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from(TARGET_KINDS))
    def test_module_agrees_with_the_whole_cut_and_the_chase(self, rng, kind):
        # Top on left-hand sides, some(R) right-hand sides, range
        # restrictions and role inclusions all occur
        names = rng.choice((12, 16))
        o = random_normalized_ontology(rng, 30, min_axioms=15, n_vars=8, n_names=names)
        target = random_target(rng, o, kind)
        assume(target is not None)
        # the target's monomials over all variables, markers dropped, are
        # often entailed; random ones rarely are
        (goal, _), table, _, whole = question_runs(o, target, Monomial(o.variables))
        derived = {table.monomial(mask) for mask in whole.get(goal, ())}
        mons = {Monomial(tuple(v for v in m.vars if not v.name.startswith("__"))) for m in derived}
        pool = [*o.variables, Variable("foreign")]
        mons = rng.sample(sorted(mons, key=str), min(2, len(mons)))
        # an ontology with one variable gives a pool of two
        mons += [Monomial(tuple(rng.sample(pool, rng.randint(0, min(3, len(pool)))))) for _ in range(2)]
        chased = entailed_by_the_chase(o, target)
        for mon in mons:
            entailed = entails(o, target, mon)
            (goal, probed), table, module, whole = question_runs(o, target, mon)
            foreign = not set(mon.vars) <= set(o.variables)
            context = (str(target), str(mon), [str(ann) for ann in o])
            assert entailed == (table.mask(probed) in whole.get(goal, ()) and not foreign), context
            assert entailed == chased(mon), context
            assert all(whole[fact] == masks for fact, masks in module.items()), context
            event(f"{kind}: {'entailed' if entailed else 'not entailed'}")
            event(f"module: {'all' if len(module) == len(whole) else 'part'} of the cut")


class TestQuestionSeeds:
    """A question's run seeds only what its module needs: Top memberships
    only when Top is needed, and engine facts only for the axioms of the
    monomial's cut."""

    ONTOLOGY = "ca A(a) @ u\ngci A <= B @ v\nca C(b) @ w\nra R(a, b) @ w"

    @staticmethod
    def top_memberships(store):
        return {fact for fact in store if fact[0] == "ca" and fact[2] is None}

    def test_top_memberships_only_when_top_is_needed(self):
        o = parse_ontology(self.ONTOLOGY)
        target = CA(Atomic("B"), "a")
        (goal, probed), table, module, whole = question_runs(o, target, mono("u*v"))
        assert table.mask(probed) in module[goal]
        assert self.top_memberships(module) == set()
        everyone = {("ca", None, None, "a"), ("ca", None, None, "b")}
        assert self.top_memberships(whole) == everyone
        # the module needs Top through gci Top <= D: every individual is seeded
        o = parse_ontology(self.ONTOLOGY + "\ngci Top <= D @ v")
        target = CA(Atomic("D"), "b")
        (goal, probed), table, module, _ = question_runs(o, target, mono("v"))
        assert table.mask(probed) in module[goal]
        assert self.top_memberships(module) == everyone
        assert entails(o, target, mono("v")) and not entails(o, target, mono("u"))

    def test_only_the_cut_is_checked_for_normal_form(self):
        lhs = Conj(Atomic("A"), Conj(Atomic("B"), Atomic("C")))
        nested = AnnotatedAxiom(GCI(lhs, Atomic("D")), mono("w"))
        o = AnnotatedOntology([AnnotatedAxiom(CA(Atomic("A"), "a"), mono("u")), nested])
        with pytest.raises(ValueError, match="^axiom is not in normal form: gci and"):
            saturate(o)
        question = (("ca", None, "A", "a"), mono("u"))
        _Saturator(o, _SetStore(None), None, False, question).run()  # w is outside the cut
        with pytest.raises(ValueError, match="^axiom is not in normal form: gci and"):
            _Saturator(o, _SetStore(None), None, False, (question[0], mono("u*w")))
