import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from crosscheck import dataclass_element_key
from elprov.interpretation import (
    AnnotatedInterpretation,
    AuxElement,
    BCQ,
    ConceptAtom,
    Ind,
    Named,
    NonStandardQueryError,
    RoleAtom,
    UnknownIndividualError,
    Var,
    element_key,
    enumerate_matches,
    parse_query,
    provenance_of_matches,
)
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
    Ran,
    TOP,
)
from elprov.provenance import ONE, Monomial, Polynomial, Variable, parse_monomial


def mono(text):
    return parse_monomial(text)


def ann(axiom, text="1"):
    return AnnotatedAxiom(axiom, mono(text))


@pytest.fixture
def mayor_model():
    """Hand-built model of the city council ontology."""
    return AnnotatedInterpretation(
        domain=[Named("Brugnaro"), Named("Orsoni"), Named("Venice")],
        concept_ext={
            "Mayor": [
                (Named("Orsoni"), mono("v1*v4")),
                (Named("Brugnaro"), mono("v1*v2*v3*v4")),
            ]
        },
        role_ext={
            "mayor": [(Named("Venice"), Named("Orsoni"), mono("v1"))],
            "predecessor": [(Named("Brugnaro"), Named("Orsoni"), mono("v2"))],
        },
        individuals=["Brugnaro", "Orsoni", "Venice"],
    )


@pytest.fixture
def loop_model():
    """Model with anonymous elements hanging off a single individual."""
    a = Named("a")
    d1 = AuxElement("R", mono("u2*v1"))
    d2 = AuxElement("R", mono("u1*v1*v2"))
    d3 = AuxElement("R", mono("u2*v1*v2"))
    return AnnotatedInterpretation(
        domain=[a, d1, d2, d3],
        concept_ext={
            "A": [
                (a, mono("u2")),
                (a, mono("u1*v2")),
                (d1, mono("u2*v1*v2")),
                (d2, mono("u1*v1*v2")),
                (d3, mono("u2*v1*v2")),
            ]
        },
        role_ext={
            "R": [
                (a, a, mono("u1")),
                (a, d1, mono("u2*v1")),
                (a, d2, mono("u1*v1*v2")),
                (d1, d3, mono("u2*v1*v2")),
                (d2, d2, mono("u1*v1*v2")),
                (d3, d3, mono("u2*v1*v2")),
            ]
        },
        individuals=["a"],
    )


monomials = st.lists(st.sampled_from(("v2", "v10", "V", "a", "ab")), max_size=4).map(
    lambda names: Monomial(tuple(Variable(n) for n in names))
)
elements = st.one_of(
    st.sampled_from(("a", "B", "a_", "b")).map(Named),
    st.builds(AuxElement, st.sampled_from(("R", "S", "r")), monomials),
)


class TestDomainElements:
    @given(st.lists(elements, max_size=10))
    def test_element_key_sorts_like_the_dataclass_order(self, els):
        assert sorted(els, key=element_key) == sorted(els, key=dataclass_element_key)
        interp = AnnotatedInterpretation(els, {}, {})
        assert interp.domain == tuple(sorted(set(els), key=dataclass_element_key))

    def test_no_cached_hash_crosses_a_process(self):
        mon = Monomial((Variable("v2"), Variable("v1")))
        check = (
            "import pickle, sys\n"
            "from elprov.interpretation import AuxElement\n"
            "from elprov.provenance import Monomial, Variable\n"
            "mon = Monomial((Variable('v1'), Variable('v2')))\n"
            "fresh = {mon, AuxElement('R', mon)}\n"
            "sys.exit(not all(v in fresh for v in pickle.loads(sys.stdin.buffer.read())))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        for seed in ("1", "2"):  # at least one differs from this process's seed
            env = {**os.environ, "PYTHONHASHSEED": seed}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            done = subprocess.run(
                [sys.executable, "-c", check],
                input=pickle.dumps((mon, AuxElement("R", mon))),
                env=env,
                capture_output=True,
            )
            assert done.returncode == 0, (seed, done.stderr)


class TestExtendConcept:
    def test_top_is_domain_with_unit(self, mayor_model):
        assert mayor_model.extend_concept(TOP) == frozenset(
            (d, ONE) for d in mayor_model.domain
        )

    def test_exists_qualified_combines_monomials(self, loop_model):
        got = loop_model.extend_concept(ExistsQ("R", Atomic("A")))
        assert (Named("a"), mono("u2*v1*v2")) in got

    def test_conj_idempotent(self):
        interp = AnnotatedInterpretation(
            domain=[Named("d")],
            concept_ext={"A": [(Named("d"), mono("m"))]},
            role_ext={},
        )
        assert interp.extend_concept(Conj(Atomic("A"), Atomic("A"))) == frozenset(
            [(Named("d"), mono("m"))]
        )

    def test_conj_commutes(self, loop_model):
        c1 = Conj(Atomic("A"), Exists("R"))
        c2 = Conj(Exists("R"), Atomic("A"))
        assert loop_model.extend_concept(c1) == loop_model.extend_concept(c2)

    def test_ran(self, mayor_model):
        assert mayor_model.extend_concept(Ran("mayor")) == frozenset(
            [(Named("Orsoni"), mono("v1"))]
        )

    def test_exists(self, mayor_model):
        assert mayor_model.extend_concept(Exists("predecessor")) == frozenset(
            [(Named("Brugnaro"), mono("v2"))]
        )


class TestSatisfies:
    def test_mayor_model_satisfies_ontology(self, mayor_model):
        axioms = [
            ann(RA("mayor", "Venice", "Orsoni"), "v1"),
            ann(RA("predecessor", "Brugnaro", "Orsoni"), "v2"),
            ann(GCI(ExistsQ("predecessor", Atomic("Mayor")), Atomic("Mayor")), "v3"),
            ann(RR("mayor", "Mayor"), "v4"),
        ]
        for a in axioms:
            assert mayor_model.satisfies(a), str(a)

    def test_reflexive_inclusion_always_satisfied(self, mayor_model, loop_model):
        concepts = [
            Atomic("Mayor"),
            Conj(Atomic("Mayor"), Exists("mayor")),
            ExistsQ("predecessor", Atomic("Mayor")),
            TOP,
        ]
        for c in concepts:
            assert mayor_model.satisfies(AnnotatedAxiom(GCI(c, c), ONE))
        assert loop_model.satisfies(AnnotatedAxiom(GCI(Atomic("A"), Atomic("A")), ONE))

    def test_violated_inclusion(self):
        interp = AnnotatedInterpretation(
            domain=[Named("d")],
            concept_ext={"A": [(Named("d"), mono("u"))], "B": []},
            role_ext={},
        )
        assert not interp.satisfies(ann(GCI(Atomic("A"), Atomic("B")), "v"))

    def test_role_inclusion(self, mayor_model):
        assert mayor_model.satisfies(ann(RI("mayor", "mayor")))
        assert not mayor_model.satisfies(ann(RI("mayor", "predecessor")))

    def test_assertions(self, mayor_model):
        assert mayor_model.satisfies(ann(CA(Atomic("Mayor"), "Orsoni"), "v1*v4"))
        assert not mayor_model.satisfies(ann(CA(Atomic("Mayor"), "Venice"), "v1"))
        assert mayor_model.satisfies(ann(RA("mayor", "Venice", "Orsoni"), "v1"))


def two_fact_cycle():
    return AnnotatedInterpretation(
        domain=[Named("a"), Named("b")],
        concept_ext={},
        role_ext={
            "R": [
                (Named("a"), Named("b"), mono("v1")),
                (Named("b"), Named("a"), mono("v2")),
            ]
        },
        individuals=["a", "b"],
    )


class TestMatches:
    def test_two_matches_on_cycle(self):
        q = parse_query("R(?x, ?y, ?t) & R(?y, ?x, ?t2)")
        matches = enumerate_matches(two_fact_cycle(), q)
        assert len(matches) == 2
        assert provenance_of_matches(q, matches) == Polynomial(
            {mono("v1*v2"): 2}
        )

    def test_no_matches_on_empty_extension(self, mayor_model):
        q = parse_query("Unknown(?x, ?t)")
        assert enumerate_matches(mayor_model, q) == ()
        matches = enumerate_matches(mayor_model, q)
        assert provenance_of_matches(q, matches) == Polynomial()

    def test_individual_binds_to_itself(self, mayor_model):
        q = parse_query("Mayor(Brugnaro, ?t)")
        matches = enumerate_matches(mayor_model, q)
        assert len(matches) == 1
        assert matches[0][Ind("Brugnaro")] == Named("Brugnaro")
        assert matches[0][Var("t")] == mono("v1*v2*v3*v4")

    def test_unknown_individual_raises(self, mayor_model):
        with pytest.raises(UnknownIndividualError):
            enumerate_matches(mayor_model, parse_query("Mayor(nobody, ?t)"))

    def test_match_count_bounded_by_product(self, loop_model):
        q = parse_query("R(?x, ?y, ?t) & A(?y, ?t2)")
        matches = enumerate_matches(loop_model, q)
        bound = len(loop_model.role_triples("R")) * len(loop_model.concept_pairs("A"))
        assert 0 < len(matches) <= bound

    def test_single_atom_provenance_sums_extension(self, mayor_model):
        q = parse_query("Mayor(?x, ?t)")
        expected = Polynomial.of(*(m for _, m in mayor_model.concept_pairs("Mayor")))
        matches = enumerate_matches(mayor_model, q)
        assert provenance_of_matches(q, matches) == expected

    def test_deterministic_order(self, loop_model):
        q = parse_query("R(?x, ?y, ?t)")
        first = enumerate_matches(loop_model, q)
        second = enumerate_matches(loop_model, q)
        assert first == second


class TestQueryValidation:
    def test_repeated_provenance_variable_rejected(self):
        with pytest.raises(NonStandardQueryError):
            parse_query("A(?x, ?t) & B(?y, ?t)")

    def test_provenance_variable_in_ordinary_position_rejected(self):
        with pytest.raises(NonStandardQueryError):
            parse_query("R(?x, ?t, ?t)")

    def test_provenance_term_must_be_variable(self):
        with pytest.raises(NonStandardQueryError):
            parse_query("A(?x, c)")

    def test_duplicate_atoms_collapse(self):
        q = BCQ(
            [
                ConceptAtom("A", Var("x"), Var("t")),
                ConceptAtom("A", Var("x"), Var("t")),
            ]
        )
        assert len(q.atoms) == 1

    def test_parse_round_trip(self):
        text = "R(?x, ?y, ?t) & A(b, ?t2)"
        q = parse_query(text)
        assert str(q) == text
        assert parse_query(str(q)) == q

    def test_individuals_listed(self):
        q = parse_query("R(a, ?y, ?t) & A(b, ?t2)")
        assert q.individuals() == ("a", "b")
