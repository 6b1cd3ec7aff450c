import random
from pathlib import Path

import pytest

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
    FreshNames,
    NamespaceError,
    ParseError,
    Ran,
    TOP,
    Top,
    _walk,
    normalize,
    parse_axiom,
    parse_ontology,
    render_annotated,
    signature,
    translate_general_gci,
)
from elprov.provenance import ONE, Monomial, Variable

from crosscheck import check_lhs_grammar, concept_names, mentions_top, role_names
from generators import random_general_ontology

GOLDEN = Path(__file__).parent / "golden"

MAYOR = """
# city council example
ra mayor(Venice, Orsoni) @ v1
ra predecessor(Brugnaro, Orsoni) @ v2
gci some(predecessor, Mayor) <= Mayor @ v3
rr ran(mayor) <= Mayor @ v4
"""


def ann(axiom, *vs):
    return AnnotatedAxiom(axiom, Monomial(tuple(Variable(v) for v in vs)))


class TestParser:
    def test_concept_assertion(self):
        o = parse_ontology("ca Mayor(orsoni) @ v1")
        assert o.axioms == (ann(CA(Atomic("Mayor"), "orsoni"), "v1"),)

    def test_qualified_existential_lhs(self):
        o = parse_ontology("gci some(predecessor, Mayor) <= Mayor @ v3")
        assert o.axioms == (
            ann(GCI(ExistsQ("predecessor", Atomic("Mayor")), Atomic("Mayor")), "v3"),
        )

    def test_conjunction_rhs_rejected(self):
        with pytest.raises(ParseError):
            parse_ontology("gci A <= and(B, C) @ v")

    def test_qualified_existential_rhs_rejected(self):
        with pytest.raises(ParseError):
            parse_ontology("gci A <= some(R, B) @ v")

    def test_top_rhs_rejected(self):
        with pytest.raises(ParseError):
            parse_ontology("gci A <= Top @ v")

    def test_bare_existential_lhs_rejected(self):
        with pytest.raises(ParseError):
            parse_ontology("gci some(R) <= B @ v")

    def test_annotation_must_be_variable_or_one(self):
        with pytest.raises(ParseError) as exc:
            parse_ontology("ca A(a) @ v1*v2")
        assert "annotation" in str(exc.value)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse_ontology("ca A(a) @ v\nri R <= @ v")
        assert exc.value.line == 2
        assert exc.value.column > 0

    def test_reserved_prefix_rejected(self):
        with pytest.raises(ParseError):
            parse_ontology("ca __A(a) @ v")

    def test_namespace_collision(self):
        with pytest.raises(ParseError):
            parse_ontology("ca A(a) @ v\nra A(a, b) @ u")
        with pytest.raises(ParseError):
            parse_ontology("ca A(a) @ a")

    def test_comments_and_blank_lines(self):
        o = parse_ontology(MAYOR)
        assert len(o) == 4

    def test_duplicates_collapse(self):
        o = parse_ontology("ca A(a) @ v\nca A(a) @ v\nca A(a) @ u")
        assert len(o) == 2

    def test_round_trip(self):
        o = parse_ontology(MAYOR)
        assert parse_ontology(o.render()) == o

    def test_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(50):
            o = random_general_ontology(rng)
            assert parse_ontology(o.render()) == o

    def test_parse_axiom_without_annotation(self):
        assert parse_axiom("ca Mayor(brugnaro)") == CA(Atomic("Mayor"), "brugnaro")
        assert parse_axiom("gci A <= C") == GCI(Atomic("A"), Atomic("C"))
        assert parse_axiom("rr ran(R) <= A") == RR("R", "A")
        with pytest.raises(ParseError):
            parse_axiom("ca Mayor(brugnaro) @ v")


class TestNamespaceErrors:
    # per side, concept names are claimed before role names, the left-hand
    # side first, so the clash is reported from the concept side first here
    def test_concept_then_role_on_one_side(self):
        with pytest.raises(ParseError) as exc:
            parse_ontology("gci and(some(R, A), R) <= C @ v")
        assert exc.value.message == "name 'R' used both as concept and as role"

    def test_role_on_the_left_then_concept_on_the_right(self):
        with pytest.raises(ParseError) as exc:
            parse_ontology("gci some(R, A) <= R @ v")
        assert exc.value.message == "name 'R' used both as role and as concept"

    def test_clash_at_the_first_token_of_its_line(self):
        # a repeated axiom completes the clash at its first occurrence
        text = "ca A(x) @ b\n\n  ca B(b) @ 1  # b\nca B(b) @ 1\n"
        with pytest.raises(ParseError) as exc:
            parse_ontology(text)
        assert (exc.value.line, exc.value.column) == (3, 3)
        assert exc.value.message == "name 'b' used both as individual and as provenance variable"

    def test_library_construction_raises_the_same_text(self):
        lhs = Conj(ExistsQ("R", Atomic("A")), Atomic("R"))
        with pytest.raises(NamespaceError, match="^name 'R' used both as concept and as role$"):
            AnnotatedOntology([ann(GCI(lhs, Atomic("C")), "v")])


def random_concept(rng, depth):
    """Any concept tree: Top, Exists, Ran and a non-concept leaf anywhere."""
    if depth == 0 or rng.random() < 0.3:
        pick = rng.randrange(5)
        if pick == 0:
            return TOP
        if pick == 1:
            return Atomic(rng.choice("ABC"))
        if pick == 2:
            return Exists(rng.choice("RS"))
        if pick == 3:
            return Ran(rng.choice("RS"))
        return "A"  # not a Concept
    if rng.random() < 0.5:
        return Conj(random_concept(rng, depth - 1), random_concept(rng, depth - 1))
    return ExistsQ(rng.choice("RS"), random_concept(rng, depth - 1))


class TestWalkAgainstTheRecursiveWalks:
    """``_walk`` against the four recursive walks it replaced."""

    @staticmethod
    def check(c):
        expected = (list(concept_names(c)), list(role_names(c)), mentions_top(c), check_lhs_grammar(c))
        assert _walk(c) == expected, c

    def test_golden_concepts(self):
        seen = 0
        for path in sorted(GOLDEN.glob("*.elp")):
            for a in parse_ontology(path.read_text(encoding="utf-8")):
                if isinstance(a.axiom, GCI):
                    self.check(a.axiom.lhs)
                    self.check(a.axiom.rhs)
                    seen += 2
                elif isinstance(a.axiom, CA):
                    self.check(a.axiom.concept)
                    seen += 1
        assert seen > 300

    def test_generated_concepts(self):
        rng = random.Random(10)
        kinds = set()
        for _ in range(2000):
            c = random_concept(rng, rng.randrange(6))
            kinds.add(type(c))
            self.check(c)
        assert kinds == {Top, Atomic, Exists, Ran, str, Conj, ExistsQ}


class TestSignature:
    def test_mayor_signature(self):
        sig = signature(parse_ontology(MAYOR))
        assert sig.individuals == ("Brugnaro", "Orsoni", "Venice")
        assert sig.variables == tuple(Variable(f"v{i}") for i in range(1, 5))
        assert sig.concepts == ("Mayor",)
        assert sig.roles == ("mayor", "predecessor")

    def test_empty(self):
        sig = signature(AnnotatedOntology([]))
        assert sig == signature(parse_ontology(""))
        assert sig.concepts == () and sig.roles == () and sig.individuals == ()

    def test_top_and_exists_only(self):
        o = AnnotatedOntology([ann(GCI(TOP, Exists("R")), "v")])
        sig = signature(o)
        assert sig.roles == ("R",) and sig.variables == (Variable("v"),)


class TestNormalize:
    def test_nested_conjunct_gets_fresh_name(self):
        o = AnnotatedOntology(
            [ann(GCI(Conj(Atomic("A"), Conj(Atomic("B"), Atomic("C"))), Atomic("E")), "v")]
        )
        n = normalize(o)
        inner = GCI(Conj(Atomic("B"), Atomic("C")), Atomic("__nf0"))
        outer = GCI(Conj(Atomic("A"), Atomic("__nf0")), Atomic("E"))
        assert set(n.axioms) == {AnnotatedAxiom(inner, ONE), ann(outer, "v")}

    def test_existential_filler_gets_fresh_name(self):
        o = AnnotatedOntology(
            [ann(GCI(ExistsQ("R", Conj(Atomic("B"), Atomic("C"))), Atomic("D")), "v")]
        )
        n = normalize(o)
        assert set(n.axioms) == {
            AnnotatedAxiom(GCI(Conj(Atomic("B"), Atomic("C")), Atomic("__nf0")), ONE),
            ann(GCI(ExistsQ("R", Atomic("__nf0")), Atomic("D")), "v"),
        }

    def test_complex_lhs_of_existential_rhs(self):
        o = AnnotatedOntology([ann(GCI(ExistsQ("R", Atomic("B")), Exists("S")), "v")])
        n = normalize(o)
        assert set(n.axioms) == {
            AnnotatedAxiom(GCI(ExistsQ("R", Atomic("B")), Atomic("__nf0")), ONE),
            ann(GCI(Atomic("__nf0"), Exists("S")), "v"),
        }

    def test_idempotent_on_normal(self):
        o = normalize(parse_ontology(MAYOR))
        assert normalize(o) == o

    def test_normal_form_returned_as_is(self):
        o = parse_ontology("gci A <= some(R) @ v1\ngci and(A, B) <= C @ v2\nca A(a) @ v3")
        assert o.is_normal_form()
        assert normalize(o) is o
        nested_lhs = ExistsQ("R", Conj(Atomic("A"), Atomic("B")))
        nested = o.extended([ann(GCI(nested_lhs, Atomic("C")), "v4")])
        n = normalize(nested)
        assert n is not nested and n.is_normal_form()
        assert set(o.axioms) < set(n.axioms) and "__nf0" in n.concept_names

    def test_idempotent_random(self):
        rng = random.Random(11)
        for _ in range(50):
            n = normalize(random_general_ontology(rng))
            assert n.is_normal_form()
            assert normalize(n) == n

    def test_shared_subconcept_memoized(self):
        shared = Conj(Atomic("B"), Atomic("C"))
        o = AnnotatedOntology(
            [
                ann(GCI(Conj(Atomic("A"), shared), Atomic("E")), "v"),
                ann(GCI(ExistsQ("R", shared), Atomic("D")), "u"),
            ]
        )
        n = normalize(o)
        fresh = [a for a in n.concept_names if a.startswith("__nf")]
        assert fresh == ["__nf0"]


class TestTranslateGeneralGCI:
    def setup_method(self):
        self.fresh = FreshNames()
        self.v = Monomial((Variable("v"),))

    def test_split_conjunction(self):
        out = translate_general_gci(
            Atomic("C"), Conj(Atomic("C1"), Atomic("C2")), self.v, self.fresh
        )
        assert set(out) == {
            AnnotatedAxiom(GCI(Atomic("C"), Atomic("C1")), self.v),
            AnnotatedAxiom(GCI(Atomic("C"), Atomic("C2")), self.v),
        }

    def test_qualified_existential_introduces_fresh_role(self):
        out = translate_general_gci(
            Atomic("C1"), ExistsQ("R", Atomic("C2")), self.v, self.fresh
        )
        assert set(out) == {
            AnnotatedAxiom(GCI(Atomic("C1"), Exists("__role0")), self.v),
            AnnotatedAxiom(RI("__role0", "R"), self.v),
            AnnotatedAxiom(RR("__role0", "C2"), self.v),
        }

    def test_atomic_rhs_unchanged(self):
        out = translate_general_gci(Atomic("C"), Atomic("A"), self.v, self.fresh)
        assert out == [AnnotatedAxiom(GCI(Atomic("C"), Atomic("A")), self.v)]

    def test_nested_filler_bridged(self):
        out = translate_general_gci(
            Atomic("C"), ExistsQ("R", ExistsQ("S", Atomic("B"))), self.v, self.fresh
        )
        o = AnnotatedOntology(out)
        assert o.is_normal_form() or normalize(o).is_normal_form()
        # the bridge concept bounds the fresh role's range
        bridges = [a.axiom for a in out if isinstance(a.axiom, RR)]
        assert len(bridges) == 2

    def test_existential_top_filler_simplified(self):
        out = translate_general_gci(Atomic("C"), ExistsQ("R", TOP), self.v, self.fresh)
        assert out == [AnnotatedAxiom(GCI(Atomic("C"), Exists("R")), self.v)]

    def test_top_conjunct_dropped(self):
        out = translate_general_gci(Atomic("C"), Conj(Atomic("B"), TOP), self.v, self.fresh)
        assert out == [AnnotatedAxiom(GCI(Atomic("C"), Atomic("B")), self.v)]

    def test_bare_top_rhs_rejected(self):
        with pytest.raises(ValueError):
            translate_general_gci(Atomic("C"), TOP, self.v, self.fresh)


def test_parse_iq_target():
    from elprov.ontology import parse_iq_target

    concept, ind = parse_iq_target("iq some(predecessor, Mayor)(Brugnaro)")
    assert concept == ExistsQ("predecessor", Atomic("Mayor"))
    assert ind == "Brugnaro"
    with pytest.raises(ParseError):
        parse_iq_target("iq some(R)(a) extra")


def test_fresh_names_avoid_used():
    fresh = FreshNames({"__nf0", "__nf1"})
    assert fresh.concept() == "__nf2"
    assert fresh.role() == "__role0"
    with pytest.raises(ValueError):
        fresh.named("plain")
