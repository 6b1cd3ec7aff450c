import copy
import os
import pickle
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from elprov import cli
from elprov.completion import _fact, probe
from elprov.ontology import (
    CA,
    GCI,
    RA,
    RI,
    RR,
    AnnotatedAxiom,
    AnnotatedOntology,
    Atomic,
    Concept,
    Conj,
    Exists,
    ExistsQ,
    FreshNames,
    NamespaceError,
    ParseError,
    TOP,
    Top,
    _walk,
    normalize,
    parse_axiom,
    parse_iq_target,
    parse_ontology,
    render_annotated,
    render_axiom,
)
from elprov.interpretation import AuxElement, ConceptAtom, Ind, Named, RoleAtom, Var
from elprov.provenance import ONE, Monomial, Variable
from elprov.syntax import LINE_BREAK, _Node

from crosscheck import (
    is_normal_form,
    check_lhs_grammar,
    concept_names,
    from_dataclass,
    mentions_top,
    normalize_dataclasses,
    parse_axiom_by_kinds,
    parse_axiom_recursive,
    parse_iq_target_by_kinds,
    parse_iq_target_recursive,
    parse_ontology_by_kinds,
    parse_ontology_recursive,
    role_names,
    term_key,
    to_dataclass,
    translate_general_gci,
)
from generators import (
    TARGET_KINDS,
    ontology_lines,
    random_general_ontology,
    random_target,
    render_ontology,
)
from semantics import Ran

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

    @pytest.mark.parametrize("blank", ["\x0c", "\xa0", "\x85", "\u2028", "\x1c"])
    def test_only_space_and_tab_may_end_a_line(self, blank):
        # Python's rstrip would drop these; the lexical rules do not
        for end in ("", "\n", " # c\n"):
            with pytest.raises(ParseError) as exc:
                parse_ontology(f"ca A(x) @ v1{blank}{end}ca B(x) @ v2")
            assert (exc.value.message, exc.value.line, exc.value.column) == (
                f"unexpected character {blank!r}", 1, 13)
        assert parse_ontology("ca A(x) @ v1 \t\nca B(x) @ v2\t").axioms == (
            parse_ontology("ca A(x) @ v1\nca B(x) @ v2").axioms)

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
        assert parse_ontology(render_ontology(o)) == o

    def test_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(50):
            o = random_general_ontology(rng)
            assert parse_ontology(render_ontology(o)) == o

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

    def test_a_later_syntax_error_is_reported_before_a_clash(self):
        # the clash is complete on line 1, yet the whole file is read first
        text = "gci some(R, A) <= R @ v\nca A(a) @ w\nca A(b) @\n"
        with pytest.raises(ParseError) as exc:
            parse_ontology(text)
        assert (exc.value.line, exc.value.column) == (3, 10)
        assert exc.value.message == "annotation must be a single variable or 1, got 'end of line'"
        with pytest.raises(ParseError, match="^1:1: name 'R' used both as role and as concept$"):
            parse_ontology(text.rpartition("ca A(b)")[0])

    def test_library_construction_raises_the_same_text(self):
        lhs = Conj(ExistsQ("R", Atomic("A")), Atomic("R"))
        with pytest.raises(NamespaceError, match="^name 'R' used both as concept and as role$"):
            AnnotatedOntology([ann(GCI(lhs, Atomic("C")), "v")])


def random_concept(rng, depth):
    """Any concept tree: Top, Exists, the tests' Ran and a non-concept leaf
    anywhere; ``_walk`` reads Ran like the non-concept, as no role name."""
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


def signature(o: AnnotatedOntology) -> tuple:
    return o.concept_names, o.role_names, o.individuals, o.variables


class TestSignature:
    def test_mayor_signature(self):
        o = parse_ontology(MAYOR)
        assert o.individuals == ("Brugnaro", "Orsoni", "Venice")
        assert o.variables == tuple(Variable(f"v{i}") for i in range(1, 5))
        assert o.concept_names == ("Mayor",)
        assert o.role_names == ("mayor", "predecessor")

    def test_empty(self):
        assert signature(AnnotatedOntology([])) == signature(parse_ontology("")) == ((),) * 4

    def test_top_and_exists_only(self):
        o = AnnotatedOntology([ann(GCI(TOP, Exists("R")), "v")])
        assert o.role_names == ("R",) and o.variables == (Variable("v"),)


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
        assert is_normal_form(o)
        assert normalize(o) is o
        nested_lhs = ExistsQ("R", Conj(Atomic("A"), Atomic("B")))
        nested = o.extended([ann(GCI(nested_lhs, Atomic("C")), "v4")])
        n = normalize(nested)
        assert n is not nested and is_normal_form(n)
        assert set(o.axioms) < set(n.axioms) and "__nf0" in n.concept_names

    def test_idempotent_random(self):
        rng = random.Random(11)
        for _ in range(50):
            n = normalize(random_general_ontology(rng))
            assert is_normal_form(n)
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


def with_top_on_the_left(line: str) -> str:
    """A generated line with the concept names K0 to K4 of a GCI's
    left-hand side replaced by Top."""
    if not line.startswith("gci "):
        return line
    lhs, _, rest = line.partition(" <= ")
    return re.sub(r"\bK[0-4]\b", "Top", lhs) + " <= " + rest


class TestNormalizeAgainstTheDataclassNormalize:
    """``normalize`` against the one on the dataclass syntax it replaced:
    the same axioms in the same order, fresh names included."""

    @staticmethod
    def check(o: AnnotatedOntology) -> None:
        old = normalize_dataclasses(map(to_dataclass, o.axioms), o.all_names())
        assert normalize(o).axioms == tuple(map(from_dataclass, old))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(100, 240), st.booleans())
    def test_generated_nested_ontologies(self, seed, n, top):
        # a seed, not st.randoms(): the lines draw too much for Hypothesis
        lines = ontology_lines(random.Random(seed), n, 4)
        self.check(parse_ontology("\n".join(map(with_top_on_the_left, lines) if top else lines)))

    def test_golden_and_general_ontologies(self):
        for o in derivation_sources():
            self.check(o)


def printed(c) -> str:
    """The file syntax of ``c`` by recursion on its fields, as ``str`` was written."""
    if isinstance(c, Atomic):
        return c.name
    if not isinstance(c, Concept):  # a role name, or a non-concept leaf
        return str(c)
    return c._text % tuple(map(printed, c[1:]))


def deep_conj(depth: int) -> Conj:
    c = Atomic("A")
    for i in range(depth):
        c = Conj(c, Atomic(f"B{i % 3}"))
    return c


# one node of every type
NODES = (
    TOP,
    Atomic("A"),
    Conj(Atomic("A"), ExistsQ("R", TOP)),
    Exists("R"),
    ExistsQ("R", Atomic("A")),
    Ran("R"),
    GCI(Conj(Atomic("A"), TOP), Exists("R")),
    RI("R", "S"),
    RR("R", "A"),
    CA(Atomic("A"), "a"),
    RA("R", "a", "b"),
    AnnotatedAxiom(GCI(ExistsQ("R", Atomic("A")), Atomic("B")), Monomial((Variable("v"),))),
    Variable("v"),
    Named("a"),
    AuxElement("R", Monomial((Variable("v"), Variable("u")))),
    Ind("a"),
    Var("x"),
    ConceptAtom("A", Var("x"), Var("t")),
    RoleAtom("R", Ind("a"), Var("x"), Var("t")),
)


def node_types(cls=_Node) -> set[type]:
    """The node types: the classes below ``cls`` with no subclass."""
    subclasses = cls.__subclasses__()
    return set().union(*map(node_types, subclasses)) if subclasses else {cls}


term_names = st.sampled_from(("a", "b", "B", "a_", "x1", "x10", "_"))
terms = st.lists(st.one_of(term_names.map(Ind), term_names.map(Var)), max_size=8)


class TestSyntaxNodes:
    def test_every_type_is_covered(self):
        assert {type(n) for n in NODES} == node_types()

    def test_deep_trees_hash(self):
        # tuple hashing runs in C, far below the interpreter's recursion limit
        deep = deep_conj(3000)
        gci = GCI(deep, Atomic("E"))
        held = AnnotatedAxiom(gci, ONE)
        for node in (deep, gci, held):
            assert hash(node) == hash(node) and node in {node}
        assert len({held, AnnotatedAxiom(gci, ONE)}) == 1

    def test_deep_trees_print(self):
        # ``str`` keeps one stack, so depth is bounded by memory alone
        c, text = Atomic("A"), "A"
        for i in range(3000):
            pick = i % 4
            if pick == 0:
                c, text = Conj(c, TOP), f"and({text}, Top)"
            elif pick == 1:
                c, text = ExistsQ("R", c), f"some(R, {text})"
            elif pick == 2:
                c, text = Conj(Atomic("B"), c), f"and(B, {text})"
            else:
                c, text = Conj(c, Exists("S")), f"and({text}, some(S))"
        assert str(c) == text
        assert render_axiom(GCI(c, Atomic("E"))) == f"gci {text} <= E"

    def test_str_agrees_with_the_recursive_printer(self):
        rng = random.Random(12)
        for _ in range(2000):
            c = random_concept(rng, rng.randrange(7))
            if isinstance(c, Concept):
                assert str(c) == printed(c)

    def test_a_node_is_its_tag_and_fields(self):
        assert Atomic("A") == ("Atomic", "A") and hash(Atomic("A")) == hash(("Atomic", "A"))
        assert list(RA("R", "a", "b")) == ["RA", "R", "a", "b"] and len(TOP) == 1
        assert GCI(lhs=TOP, rhs=Atomic("A")).rhs == Atomic("A")

    def test_equal_fields_of_other_types_differ(self):
        assert RI("a", "b") != RR("a", "b")
        assert Atomic("A") != Exists("A") and Exists("R") != Ran("R")
        assert len({RI("a", "b"), RR("a", "b"), Atomic("A"), Exists("A"), Ran("A")}) == 5
        named = [Ind("a"), Var("a"), Named("a"), Variable("a")]
        for i, x in enumerate(named):
            assert [x == y for y in named] == [j == i for j in range(len(named))]
        assert len(set(named)) == 4

    @given(terms)
    def test_terms_sort_individuals_first_then_by_name(self, ts):
        assert sorted(ts) == sorted(ts, key=term_key)

    def test_a_variable_checks_its_name(self):
        for bad in ("1", "", "2v", "v-1", "v 1"):
            with pytest.raises(ValueError, match="invalid variable name"):
                Variable(bad)
        assert Variable("v1") == ("Variable", "v1")

    def test_values_print_and_repr_as_before(self):
        mon = Monomial((Variable("v"), Variable("u")))
        shown = {
            Variable("v"): ("v", "Variable(name='v')"),
            Named("a"): ("a", "Named(name='a')"),
            AuxElement("R", mon): (
                "_:R:u*v",
                "AuxElement(role='R', monomial=Monomial(vars=(Variable(name='u'), Variable(name='v'))))",
            ),
            Ind("a"): ("a", "Ind(name='a')"),
            Var("x"): ("?x", "Var(name='x')"),
            ConceptAtom("A", Ind("a"), Var("t")): (
                "A(a, ?t)",
                "ConceptAtom(concept='A', arg=Ind(name='a'), prov=Var(name='t'))",
            ),
            RoleAtom("R", Var("x"), Ind("a"), Var("t")): (
                "R(?x, a, ?t)",
                "RoleAtom(role='R', arg1=Var(name='x'), arg2=Ind(name='a'), prov=Var(name='t'))",
            ),
        }
        for node, (text, rep) in shown.items():
            assert (str(node), repr(node)) == (text, rep)

    def test_no_node_equals_an_engine_fact(self):
        seen = 0
        for path in sorted(GOLDEN.glob("*.elp")):
            for a in normalize(parse_ontology(path.read_text())):
                fact = _fact(a.axiom)
                assert fact is not None
                assert fact != a.axiom and fact not in set(NODES) | {a, a.axiom}
                seen += 1
        assert seen > 100

    @settings(max_examples=200)
    @given(st.randoms(use_true_random=False))
    def test_equality_and_repr_agree_with_the_dataclasses(self, rng):
        a, b = random_concept(rng, rng.randrange(4)), random_concept(rng, rng.randrange(4))
        for x, y in ((a, b), (GCI(a, b), GCI(b, a)), (a, a), (Conj(a, b), Conj(a, b))):
            assert (x == y) == (to_dataclass(x) == to_dataclass(y))
            assert repr(x) == repr(to_dataclass(x)).replace("Dataclass", "")

    @pytest.mark.parametrize("node", NODES, ids=lambda n: type(n).__name__)
    def test_pickle_and_deepcopy_round_trips(self, node):
        copies = [pickle.loads(pickle.dumps(node, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for back in [*copies, copy.deepcopy(node)]:
            assert back == node and type(back) is type(node) and repr(back) == repr(node)

    def test_a_pickled_gci_is_found_under_another_hash_seed(self):
        gci = GCI(Conj(Atomic("A"), ExistsQ("R", Atomic("B"))), Exists("S"))
        check = (
            "import pickle, sys\n"
            "from elprov.ontology import GCI, Atomic, Conj, Exists, ExistsQ\n"
            "fresh = {GCI(Conj(Atomic('A'), ExistsQ('R', Atomic('B'))), Exists('S'))}\n"
            "sys.exit(pickle.loads(sys.stdin.buffer.read()) not in fresh)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        for seed in ("1", "2"):  # at least one differs from this process's seed
            env = {**os.environ, "PYTHONHASHSEED": seed}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            done = subprocess.run(
                [sys.executable, "-c", check], input=pickle.dumps(gci), env=env, capture_output=True
            )
            assert done.returncode == 0, (seed, done.stderr)


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
        assert is_normal_form(o) or is_normal_form(normalize(o))
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
    concept, ind = parse_iq_target("iq some(predecessor, Mayor)(Brugnaro)")
    assert concept == ExistsQ("predecessor", Atomic("Mayor"))
    assert ind == "Brugnaro"
    with pytest.raises(ParseError):
        parse_iq_target("iq some(R)(a) extra")


def test_fresh_names_avoid_used():
    fresh = FreshNames({"__nf0", "__nf1"})
    assert fresh.named("__nf") == "__nf2"
    with pytest.raises(ValueError):
        fresh.named("plain")


# --- the parser against the parser on (kind, value, column) tokens -----------

# what a mutation inserts, deletes or replaces
PIECES = ("Top", "and", "some", "ran", "__x", "1", "1a", "<=", "@", "(", ",", "#", "\t", "\xa0")


def mutate(rng: random.Random, line: str) -> str:
    """One or two insertions, deletions or replacements of a piece."""
    for _ in range(rng.randint(1, 2)):
        spots = [m.span() for piece in PIECES for m in re.finditer(re.escape(piece), line)]
        op = rng.randrange(3)
        if op == 0 or not spots:
            at = rng.randint(0, len(line))
            line = line[:at] + rng.choice(PIECES) + line[at:]
        else:
            start, end = rng.choice(spots)
            line = line[:start] + (rng.choice(PIECES) if op == 2 else "") + line[end:]
    return line


def outcome(parse, text: str):
    try:
        result = parse(text)
    except ParseError as exc:
        return ("ParseError", exc.message, exc.line, exc.column)
    except Exception as exc:  # any other failure has to agree as well
        return (type(exc).__name__, str(exc))
    return ("ok", result.axioms if isinstance(result, AnnotatedOntology) else result)


def oracle_outcome(parse, text: str):
    """``outcome`` of an oracle parser, with ``<=`` spelled as the library
    spells it: the oracles call it by its old token kind, ``'le'``."""
    return tuple(map(spelled_as_now, outcome(parse, text)))


def spelled_as_now(part):
    return part.replace("expected 'le'", "expected '<='") if isinstance(part, str) else part


def names_the_blank(old, new, line: str) -> bool:
    """The one intended difference: a blank other than space or tab is
    named at its own column, where the old parser named the character
    after the blanks."""
    if old[0] != "ParseError" or new[0] != "ParseError" or old[2] != new[2]:
        return False
    col, old_col = new[3], old[3]
    blank = line[col - 1]
    return (
        blank.isspace()
        and blank not in " \t"
        and new[1] == f"unexpected character {blank!r}"
        and old[1] == f"unexpected character {line[old_col - 1]!r}"
        and line[col - 1 : old_col - 1].isspace()
    )


def names_a_trailing_blank(new, text: str) -> bool:
    """The intended difference in line ends: a blank other than space or
    tab after a line's last token is named at its own column, where the
    older parsers dropped it with the rest of the line's trailing
    whitespace (``str.rstrip``)."""
    if new[0] != "ParseError":
        return False
    rest = LINE_BREAK.split(text)[new[2] - 1].split("#", 1)[0][new[3] - 1 :]
    return rest.isspace() and rest[0] not in " \t" and new[1] == f"unexpected character {rest[0]!r}"


def without_trailing_whitespace(text: str) -> str:
    """``text`` with its comments and each line's trailing whitespace dropped."""
    return "\n".join(line.split("#", 1)[0].rstrip() for line in LINE_BREAK.split(text))


def golden_lines() -> list[str]:
    return [line for path in sorted(GOLDEN.glob("*.elp")) for line in path.read_text().split("\n")]


def source_lines(rng: random.Random) -> list[str]:
    """Every golden line, and generated lines of flat and nested shapes."""
    return golden_lines() + ontology_lines(rng, 300, 1) + ontology_lines(rng, 300, 4)


FILE_PARSERS = (parse_ontology, parse_ontology_recursive, parse_ontology_by_kinds)


class TestParserAgainstTheKindTokenParser:
    """The parser against the recursive-descent parser it replaced, and that
    one against the parser on (kind, value, column) tokens before it, which
    differs in naming a blank other than space or tab at its own column. The
    library's differs from both in one more way: it names such a blank at
    the end of a line (``names_a_trailing_blank``)."""

    @staticmethod
    def outcomes(text: str, parse, recursive, by_kinds):
        """The outcomes of the kind-token parser and of the library's, which
        has to agree with the recursive parser, and whether the library's
        named a trailing blank. Then its outcome is the one on the text
        without trailing whitespace, as the older parsers read it."""
        new = outcome(parse, text)
        trailing = names_a_trailing_blank(new, text)
        if trailing:
            new = outcome(parse, without_trailing_whitespace(text))
        assert new == oracle_outcome(recursive, text), text
        return oracle_outcome(by_kinds, text), new, trailing

    def test_golden_files_parse_alike(self):
        for path in sorted(GOLDEN.glob("*.elp")):
            text = path.read_text()
            axioms = parse_ontology(text).axioms
            assert axioms == parse_ontology_recursive(text).axioms == parse_ontology_by_kinds(text).axioms

    def test_mutated_lines(self):
        rng = random.Random(1401)
        seen = {"ok": 0, "ParseError": 0, "blank": 0, "trailing": 0}
        for line in source_lines(rng):
            for _ in range(6):
                text = mutate(rng, line)
                old, new, trailing = self.outcomes(text, *FILE_PARSERS)
                seen["trailing"] += trailing
                if new != old:
                    assert names_the_blank(old, new, text.split("#", 1)[0]), (text, old, new)
                    seen["blank"] += 1
                else:
                    seen[new[0]] += bool(new[1])  # a blank or comment line counts for neither
        # both outcomes occur often, and so do the intended differences
        assert seen["ok"] >= 500 and seen["ParseError"] >= 3000 and seen["blank"] >= 100, seen
        assert seen["trailing"] >= 15, seen

    def test_mutated_files(self):
        # namespace clashes and positions across lines: five axiom lines a
        # file, some renamed into one pool of names shared by every kind,
        # among blank and comment-only lines, broken by a mix of \n, \r\n
        # and \r, with a line break at the end or none
        rng = random.Random(1402)
        lines = source_lines(rng)
        clashes = unbroken = 0
        for _ in range(600):
            sample = [re.sub(r"\b[Ktju](\d)", r"n\1", line) if rng.random() < 0.5 else line
                      for line in rng.sample(lines, 5)]
            sample = [mutate(rng, line) if rng.random() < 0.3 else line for line in sample]
            for _ in range(rng.randint(0, 3)):
                sample.insert(rng.randint(0, len(sample)), rng.choice(("", " \t", "# ri R <= S", "\t# @")))
            ends = rng.choices(("\n", "\r\n", "\r"), k=len(sample))
            if rng.random() < 0.5:
                ends[-1] = ""
            unbroken += not ends[-1]
            text = "".join(map(str.__add__, sample, ends))
            old, new, _ = self.outcomes(text, *FILE_PARSERS)
            if new != old:
                line = LINE_BREAK.split(text)[new[2] - 1].split("#", 1)[0]
                assert names_the_blank(old, new, line), (text, old, new)
            clashes += "used both as" in str(new)
        assert clashes >= 30 and unbroken >= 200, (clashes, unbroken)

    @pytest.mark.parametrize(
        "parsers",
        [
            (parse_axiom, parse_axiom_recursive, parse_axiom_by_kinds),
            (parse_iq_target, parse_iq_target_recursive, parse_iq_target_by_kinds),
        ],
        ids=["axiom", "iq"],
    )
    def test_mutated_arguments(self, parsers):
        rng = random.Random(1403)
        texts = [line.split("#", 1)[0].rpartition(" @ ")[0] for line in source_lines(rng)]
        if parsers[0] is parse_iq_target:
            texts = [f"iq {t[4:].partition(' <= ')[0]}(j1)" for t in texts if t.startswith("gci ")]
        seen = {"ok": 0, "ParseError": 0, "blank": 0}
        for text in texts:
            for _ in range(4):
                mutated = mutate(rng, text)
                old, new, _ = self.outcomes(mutated, *parsers)
                if new != old:
                    assert names_the_blank(old, new, mutated.strip()), (mutated, old, new)
                    seen["blank"] += 1
                else:
                    seen[new[0]] += 1
        assert seen["ok"] >= 200 and seen["ParseError"] >= 500 and seen["blank"] >= 20, seen

    def test_mutated_arguments_through_the_cli(self, capsys, monkeypatch):
        rng = random.Random(1404)
        lines = golden_lines() + ontology_lines(rng, 60, 4)
        axioms = [line.split("#", 1)[0].rpartition(" @ ")[0] for line in lines]
        iqs = [f"iq {t[4:].partition(' <= ')[0]}(j1)" for t in axioms if t.startswith("gci ")]
        argv = ["relevant", "-i", str(GOLDEN / "mayor.elp"), "--axiom"]

        def run(text, parsers=None):
            with monkeypatch.context() as patch, warnings.catch_warnings():
                if parsers:
                    patch.setattr(cli, "parse_axiom", parsers[0])
                    patch.setattr(cli, "parse_iq_target", parsers[1])
                warnings.simplefilter("always")
                code = cli.main([*argv, text])
            out, err = capsys.readouterr()
            return (code, out, spelled_as_now(err) if parsers else err)

        blanks = 0
        for text in [t for t in axioms if t] + iqs:
            mutated = mutate(rng, text)
            new = run(mutated)
            assert new == run(mutated, (parse_axiom_recursive, parse_iq_target_recursive)), mutated
            old = run(mutated, (parse_axiom_by_kinds, parse_iq_target_by_kinds))
            if new != old:
                stripped = mutated.strip()
                iq = stripped.startswith("iq")
                error = outcome(parse_iq_target if iq else parse_axiom, stripped)
                oracle = parse_iq_target_by_kinds if iq else parse_axiom_by_kinds
                assert names_the_blank(outcome(oracle, stripped), error, stripped), (mutated, old, new)
                assert new == (2, "", f"--axiom:1:{error[3]}: {error[1]}\n")
                blanks += 1
        assert blanks >= 10


# --- derived ontologies against direct construction -------------------------


def assert_built_alike(derived: AnnotatedOntology, direct: AnnotatedOntology) -> None:
    assert derived.axioms == direct.axioms
    assert signature(derived) == signature(direct)
    assert derived.top_occurs == direct.top_occurs
    assert derived == direct and hash(derived) == hash(direct)
    # the name table a further extension starts from
    assert derived._kinds == direct._kinds


def extension_outcome(build):
    try:
        return ("ok", build())
    except NamespaceError as exc:
        return ("NamespaceError", str(exc), exc.axiom)
    except (TypeError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


def misused_name(rng: random.Random, o: AnnotatedOntology) -> AnnotatedAxiom:
    """An axiom that uses one of the ontology's names in a random slot,
    so it clashes when the slot's kind is not the name's."""
    names = o.concept_names + o.role_names + o.individuals + tuple(v.name for v in o.variables)
    x = rng.choice(names)
    pick = rng.randrange(6)
    if pick == 0:
        return ann(CA(Atomic(x), "fresh_i"), "fresh_v")
    if pick == 1:
        return ann(RA(x, "fresh_i", "fresh_j"), "fresh_v")
    if pick == 2:
        return ann(CA(Atomic("Fresh"), x), "fresh_v")
    if pick == 3:
        return ann(GCI(ExistsQ(x, TOP), Atomic("Fresh")), "fresh_v")
    if pick == 4:
        return ann(RR("fresh_r", x), "fresh_v")
    return ann(CA(Atomic("Fresh"), "fresh_i"), x)


def derivation_sources():
    """Every golden ontology, seeded general draws and nested generated files."""
    rng = random.Random(1405)
    sources = [parse_ontology(path.read_text()) for path in sorted(GOLDEN.glob("*.elp"))]
    sources += [random_general_ontology(rng, max_axioms=10) for _ in range(60)]
    sources += [parse_ontology("\n".join(ontology_lines(rng, 80, 4))) for _ in range(4)]
    return sources


def shared_part_ontology(rng: random.Random) -> AnnotatedOntology:
    """GCIs whose nested left-hand sides share subconcepts, some of them
    with the same left-hand side, and ``some(R)`` or atomic right-hand
    sides: what ``normalize`` names once and rewrites many times."""
    pool = [TOP, *(Atomic(f"A{i}") for i in range(4))]
    for _ in range(12):
        a, b = rng.choice(pool), rng.choice(pool)
        pool.append(Conj(a, b) if rng.random() < 0.5 else ExistsQ(f"r{rng.randrange(3)}", a))
    axioms = []
    for _ in range(rng.randint(5, 25)):
        rhs = Exists(f"r{rng.randrange(3)}") if rng.random() < 0.4 else Atomic(f"A{rng.randrange(4)}")
        axioms.append(ann(GCI(rng.choice(pool[5:]), rhs), *rng.sample(("u1", "u2"), rng.randint(0, 1))))
    return AnnotatedOntology(axioms)


class TestDerivedEqualsDirectConstruction:
    def test_parse(self):
        # the parser claims names as it reads them; library construction walks
        # the axioms it is given, so both have to build the same ontology
        rng = random.Random(1409)
        texts = [path.read_text() for path in sorted(GOLDEN.glob("*.elp"))]
        for depth in (1, 4):
            for top in ("", "ca", "gci", "ca", "gci"):
                lines = ontology_lines(rng, 80, depth)
                if top == "ca":
                    lines += ["ca Top(j0) @ u1", "ca Top(j_new) @ 1"]
                if top == "gci":
                    lines = list(map(with_top_on_the_left, lines))
                lines += rng.sample(lines, 10)  # repeated axioms
                rng.shuffle(lines)
                texts.append("\n".join(lines))
        tops = set()
        for text in texts:
            parsed = parse_ontology(text)
            direct = AnnotatedOntology(parsed.axioms)
            assert_built_alike(parsed, direct)
            assert parsed.all_names() == direct.all_names()
            tops.add(parsed.top_occurs)
        assert tops == {False, True}

    def test_normalize(self):
        # the output is not deduplicated and its views and index are built
        # when first read: each is read first on a fresh normal form here
        rng = random.Random(1410)
        absent = AnnotatedAxiom(GCI(Atomic("Absent"), Atomic("Absent")), ONE)
        for o in derivation_sources() + [shared_part_ontology(rng) for _ in range(100)]:
            n = normalize(o)
            direct = AnnotatedOntology(n.axioms)
            assert len(set(n.axioms)) == len(n.axioms)
            assert all(map(normalize(o).__contains__, direct.axioms)) and absent not in normalize(o)
            assert normalize(o) == direct and direct == normalize(o)
            assert hash(normalize(o)) == hash(direct)
            assert signature(normalize(o)) == signature(direct)
            assert_built_alike(n, direct)

    def test_probes(self):
        rng = random.Random(1406)
        probed = 0
        for o in derivation_sources():
            for kind in TARGET_KINDS:
                target = random_target(rng, o, kind)
                if target is None:
                    continue
                extended = probe(o, target)[0]
                extra = extended.axioms[len(o):]
                assert_built_alike(o.extended(extra), AnnotatedOntology([*o.axioms, *extra]))
                n = normalize(extended)
                assert_built_alike(n, AnnotatedOntology(list(n.axioms)))
                probed += bool(extra)
        assert probed >= 200

    def test_extensions_that_repeat_and_add_names(self):
        # repeated axioms, Top, and new names of every kind, onto a
        # normalized parent as the model's role probes are
        rng = random.Random(1407)
        for o in derivation_sources():
            base = normalize(o)
            extra = rng.sample(base.axioms, min(3, len(base))) + [
                ann(CA(TOP, "fresh_i"), "fresh_v"),
                ann(GCI(ExistsQ("fresh_r", TOP), Atomic("Fresh")), "fresh_w"),
                *(ann(RA(r, "__ind0", "__ind1"), f"__var{i}") for i, r in enumerate(base.role_names)),
            ]
            rng.shuffle(extra)
            assert_built_alike(base.extended(extra), AnnotatedOntology([*base.axioms, *extra]))

    def test_a_clash_in_the_added_axioms_raises_the_same_error(self):
        rng = random.Random(1408)
        clashes = 0
        for o in derivation_sources():
            for _ in range(5):
                extra = [misused_name(rng, o) for _ in range(rng.randint(1, 3))]
                derived = extension_outcome(lambda: o.extended(extra))
                direct = extension_outcome(lambda: AnnotatedOntology([*o.axioms, *extra]))
                if derived[0] == "ok":
                    assert direct[0] == "ok"
                    assert_built_alike(derived[1], direct[1])
                else:
                    assert derived == direct
                    clashes += 1
        assert clashes >= 150

    def test_grammar_errors_in_the_added_axioms_are_the_same(self):
        o = parse_ontology(MAYOR)
        for bad in (
            ann(GCI(Atomic("A"), ExistsQ("R", Atomic("B"))), "v"),
            ann(GCI(Exists("R"), Atomic("B")), "v"),
            ann(CA(Exists("R"), "a"), "v"),
            "not an axiom",
        ):
            derived = extension_outcome(lambda: o.extended([bad]))
            assert derived[0] != "ok"
            assert derived == extension_outcome(lambda: AnnotatedOntology([*o.axioms, bad]))
