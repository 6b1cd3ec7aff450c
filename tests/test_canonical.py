import random
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import elprov.canonical
import elprov.completion
from elprov.canonical import (
    build_canonical_model,
    answer_query,
    compute_rewriting,
    render_rewriting,
)
from elprov.completion import Limits, ResourceCapExceeded, entails_assertion, saturate
from elprov.completion import _axiom as axiom_of
from elprov.interpretation import (
    BCQ,
    AuxElement,
    Ind,
    Named,
    RoleAtom,
    UnknownIndividualError,
    Var,
    parse_query,
    provenance_of_matches,
)
from elprov.ontology import (
    CA,
    GCI,
    RA,
    RI,
    RR,
    Atomic,
    normalize,
    parse_ontology,
)
from elprov.provenance import ONE, Polynomial, parse_monomial, parse_polynomial

from crosscheck import (
    entailed_range_restrictions,
    fixpoint_canonical_model,
    pairwise_rewriting,
    scan_matches,
    scan_polynomial,
)
from generators import (
    random_general_ontology,
    random_normalized_ontology,
    random_query,
    render_ontology,
)
from oracle import chase
from semantics import extend_concept, satisfies

GOLDEN = Path(__file__).parent / "golden"

LOOP = """
ra R(a, a) @ u1
ca A(a) @ u2
gci A <= some(R) @ v1
rr ran(R) <= A @ v2
"""

LOOP_QUERY = "R(?x, ?x, ?t) & R(?x, ?y, ?t2) & R(?z, ?y, ?t3)"


def mono(text):
    return parse_monomial(text)


def poly(text):
    return parse_polynomial(text)


class TestBuildCanonicalModel:
    def test_loop_ontology_extensions(self):
        interp = build_canonical_model(parse_ontology(LOOP))
        a = Named("a")
        d1 = AuxElement("R", mono("u2*v1"))
        d2 = AuxElement("R", mono("u1*v1*v2"))
        d3 = AuxElement("R", mono("u2*v1*v2"))
        assert interp.concept_pairs("A") == frozenset(
            [
                (a, mono("u2")),
                (a, mono("u1*v2")),
                (d1, mono("u2*v1*v2")),
                (d2, mono("u1*v1*v2")),
                (d3, mono("u2*v1*v2")),
            ]
        )
        assert interp.role_triples("R") == frozenset(
            [
                (a, a, mono("u1")),
                (a, d1, mono("u2*v1")),
                (a, d2, mono("u1*v1*v2")),
                (d1, d3, mono("u2*v1*v2")),
                (d2, d2, mono("u1*v1*v2")),
                (d3, d3, mono("u2*v1*v2")),
            ]
        )

    def test_assertion_only_model(self):
        interp = build_canonical_model(parse_ontology("ca A(a) @ v"))
        assert interp.domain == (Named("a"),)
        assert interp.concept_pairs("A") == frozenset([(Named("a"), mono("v"))])

    def test_existential_creates_aux(self):
        interp = build_canonical_model(parse_ontology("ca A(a) @ u\ngci A <= some(R) @ v"))
        assert (Named("a"), AuxElement("R", mono("u*v")), mono("u*v")) in interp.role_triples("R")

    def test_model_satisfies_ontology(self):
        rng = random.Random(21)
        for _ in range(25):
            o = normalize(random_normalized_ontology(rng, max_axioms=5))
            interp = build_canonical_model(o)
            star = o.extended(entailed_range_restrictions(o))
            for ann in star.axioms:
                assert satisfies(interp, ann), f"{ann} violated"

    def test_fixpoint_closure(self):
        # re-running the build rules over the finished model adds nothing
        o = normalize(parse_ontology(LOOP))
        interp = build_canonical_model(o)
        for ann in o.axioms:
            ax, m = ann.axiom, ann.annotation
            if isinstance(ax, GCI) and isinstance(ax.rhs, Atomic):
                for d, n in extend_concept(interp, ax.lhs):
                    assert (d, m * n) in interp.concept_pairs(ax.rhs.name)
            elif isinstance(ax, RI):
                for d, e, n in interp.role_triples(ax.sub):
                    assert (d, e, m * n) in interp.role_triples(ax.sup)

    def test_aux_elements_are_targeted(self):
        rng = random.Random(22)
        for _ in range(25):
            o = normalize(random_normalized_ontology(rng, max_axioms=5))
            interp = build_canonical_model(o)
            targeted = {
                e
                for triples in interp.role_ext.values()
                for _, e, _ in triples
                if isinstance(e, AuxElement)
            }
            in_domain = {e for e in interp.domain if isinstance(e, AuxElement)}
            assert in_domain == targeted

    def test_resource_cap(self):
        text = "\n".join(
            ["ca A(a) @ u"]
            + [f"gci A <= some(R{i}) @ v{i}" for i in range(1, 7)]
            + [f"rr ran(R{i}) <= A @ w{i}" for i in range(1, 7)]
        )
        with pytest.raises(ResourceCapExceeded):
            build_canonical_model(parse_ontology(text), Limits(max_axioms=200))

    def test_time_budget_covers_the_model_fixpoint(self):
        # no role, so no probe edge: the model saturates exactly this
        # ontology, whose few facts stay under the saturator's 256-tick
        # interval between clock checks; only the model phase can trip
        o = parse_ontology("ca A(a) @ u\ngci A <= B @ v\ngci B <= C @ w")
        for budget in (1e-9, 0):  # 0 is a budget too; only None is none
            limits = Limits(max_seconds=budget)
            saturate(normalize(o), limits=limits)
            with pytest.raises(ResourceCapExceeded, match="canonical model wall-clock"):
                build_canonical_model(o, limits)

    def test_named_part_agrees_with_the_chase_oracle(self):
        # 20-40 axioms; the seed count is fixed, a failing seed is a bug
        rng = random.Random(51)
        for _ in range(30):
            o = random_normalized_ontology(rng, 40, min_axioms=20, n_vars=12, n_names=16)
            interp = build_canonical_model(o)
            result = chase(o)
            concept_facts = {
                (name, d.name, m)
                for name, pairs in interp.concept_ext.items()
                if not name.startswith("__")
                for d, m in pairs
                if isinstance(d, Named)
            }
            role_facts = {
                (name, d.name, e.name, m)
                for name, triples in interp.role_ext.items()
                for d, e, m in triples
                if isinstance(d, Named) and isinstance(e, Named)
            }
            assert concept_facts == result.concept_facts, render_ontology(o)
            assert role_facts == result.role_facts, render_ontology(o)


def model_or_cap(build, ontology, limits=None):
    try:
        return build(ontology, limits).to_json_obj()
    except ResourceCapExceeded as exc:
        return str(exc)


@pytest.fixture(scope="module")
def corpus():
    """The golden ontologies and 300 seeded random ones."""
    golden = sorted(GOLDEN.glob("*.elp"))
    rng = random.Random(3)
    generators = [
        lambda: random_normalized_ontology(rng, 8),
        lambda: random_general_ontology(rng, 8),
        lambda: random_normalized_ontology(rng, 14, min_axioms=8, n_vars=5, n_names=12),
    ]
    randoms = [generators[i % 3]() for i in range(300)]
    return [parse_ontology(p.read_text()) for p in golden], randoms


class TestUnfoldingAgainstTheFixpoint:
    """The one-pass unfolding builds the model the rule fixpoint builds."""

    def test_same_model(self, corpus):
        golden, randoms = corpus
        assert len(golden) == 8
        for o in golden + randoms:
            expected = model_or_cap(fixpoint_canonical_model, o)
            assert model_or_cap(build_canonical_model, o) == expected, render_ontology(o)

    def test_same_tuple_cap_outcome(self, corpus):
        capped = 0
        for o in corpus[1][:100]:
            for cap in (10, 25, 60):
                limits = Limits(max_axioms=cap)
                expected = model_or_cap(fixpoint_canonical_model, o, limits)
                got = model_or_cap(build_canonical_model, o, limits)
                assert got == expected, render_ontology(o)
                capped += isinstance(expected, str)
        assert capped > 50


def has_cycle(query) -> bool:
    edges = {(a.arg1, a.arg2) for a in query.role_atoms()}
    reach = set(edges)
    while True:
        more = {(a, d) for a, b in reach for c, d in edges if b == c} - reach
        if not more:
            return any(a == b for a, b in reach)
        reach |= more


def is_disconnected(query) -> bool:
    components: list[set] = []
    for atom in query.atoms:
        args = (atom.arg1, atom.arg2) if isinstance(atom, RoleAtom) else (atom.arg,)
        terms = {t for t in args if isinstance(t, Var)}
        joined = [c for c in components if c & terms]
        components = [c for c in components if not c & terms] + [terms.union(*joined)]
    return len(components) > 1


class TestJoinAgainstTheScan:
    """The tallying join counts exactly the matches the full scan finds."""

    def queries(self, corpus):
        golden, randoms = corpus
        rng = random.Random(7)
        for path in sorted(GOLDEN.glob("*.cq")):
            o = parse_ontology((GOLDEN / f"{path.stem.split('-')[0]}.elp").read_text())
            q = parse_query(path.read_text())
            if set(q.individuals()) <= set(o.individuals):
                yield build_canonical_model(o), [q]
        for o in golden + randoms:
            interp = build_canonical_model(o)
            # names with nonempty extensions, so that many queries match
            names = sorted(interp.concept_ext) or ["A"], sorted(interp.role_ext) or ["R"]
            yield interp, [random_query(rng, *names, o.individuals) for _ in range(4)]

    def test_same_provenance_and_count(self, corpus):
        seen = Counter()
        for interp, queries in self.queries(corpus):
            for q in queries:
                conditions = compute_rewriting(q)
                found = []
                for rc in (conditions, None):
                    expected = scan_matches(interp, q, rc)
                    got = provenance_of_matches(interp, q, rc)
                    assert got == scan_polynomial(q, expected), str(q)
                    assert sum(k for _, k in got.terms()) == len(expected), str(q)
                    found.append(len(expected))
                seen["matched"] += found[0] > 0
                seen["conditions block"] += found[0] < found[1]
                seen[len(q.atoms)] += 1
                seen["individual"] += bool(q.individuals())
                seen["repeat"] += any(a.arg1 == a.arg2 for a in q.role_atoms())
                seen["cycle"] += has_cycle(q)
                seen["cyc"] += bool(conditions.cyc)
                seen["fork"] += bool(conditions.forks)
                seen["disconnected"] += is_disconnected(q)
        # the corpus exercises every shape the join plans for
        assert all(seen[k] >= 50 for k in range(1, 6)), seen
        for shape in ("matched", "individual", "repeat", "cycle", "cyc", "fork", "disconnected"):
            assert seen[shape] >= 50, seen
        assert seen["conditions block"] >= 10, seen

    def test_time_budget_covers_matching(self):
        # seven atoms sharing no term: 56**7 matches on the layered model
        o = parse_ontology((GOLDEN / "layered.elp").read_text())
        q = parse_query(" & ".join(f"A1_1(?x{i}, ?t{i})" for i in range(7)))
        start = time.monotonic()
        with pytest.raises(ResourceCapExceeded, match="query matching wall-clock"):
            answer_query(o, q, parse_polynomial("1"), Limits(max_seconds=0.5))
        assert time.monotonic() - start < 10
        # a zero budget is a budget: the join's first clock check trips it
        model = build_canonical_model(o)
        with pytest.raises(ResourceCapExceeded, match="query matching wall-clock"):
            provenance_of_matches(model, q, compute_rewriting(q), Limits(max_seconds=0))


class TestManyMatches:
    """Independent atoms over 20 annotated individuals: 20**n matches,
    counted and never kept."""

    ONTOLOGY = "".join(f"ca A(i{j}) @ v{j}\n" for j in range(20))

    def answer(self, atoms):
        q = parse_query(" & ".join(f"A(?x{k}, ?t{k})" for k in range(atoms)))
        return answer_query(parse_ontology(self.ONTOLOGY), q, Polynomial())

    def test_four_atoms(self):
        # the terms are the sets of 1 to 4 of the 20 variables
        answer = self.answer(4)
        assert answer.entailed
        assert answer.matches == 160_000
        assert len(answer.provenance.terms()) == 20 + 190 + 1140 + 4845
        assert answer.provenance.coefficient(mono("v0")) == 1
        assert answer.provenance.coefficient(mono("v0*v1*v2*v3")) == 24

    def test_three_atoms_keep_no_match(self):
        tracemalloc.start()
        try:
            answer = self.answer(3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert answer.matches == 8000
        assert peak < 3 * 2**20, peak


class TestTracedSurface:
    """What an outside-in tracer reads of the model builder."""

    def test_one_saturation_per_model_and_per_query(self, monkeypatch):
        calls = []

        def counting_saturate(*args, **kwargs):
            calls.append(args)
            return saturate(*args, **kwargs)

        monkeypatch.setattr(elprov.canonical, "saturate", counting_saturate)
        o = parse_ontology(LOOP)
        interp = build_canonical_model(o)
        assert len(calls) == 1
        answer_query(o, parse_query(LOOP_QUERY), poly("u1"))
        assert len(calls) == 2
        assert sum(map(interp.is_aux, interp.domain)) == 3
        assert sum(map(len, interp.concept_ext.values())) == 5
        assert sum(map(len, interp.role_ext.values())) == 6


class TestEngineBoundary:
    def test_model_reads_facts_without_converting_them(self, monkeypatch):
        calls = Counter()

        def counting_axiom(fact):
            calls[fact[0]] += 1
            return axiom_of(fact)

        monkeypatch.setattr(elprov.completion, "_axiom", counting_axiom)
        interp = build_canonical_model(parse_ontology((GOLDEN / "layered.elp").read_text()))
        assert interp.domain and not calls


class TestComputeRewriting:
    def test_loop_query(self):
        rc = compute_rewriting(parse_query(LOOP_QUERY))
        classes = {frozenset(str(t) for t in cls) for cls in rc.classes}
        assert frozenset(["?x", "?z"]) in classes
        assert {str(v) for v in rc.cyc} == {"?x", "?z"}
        assert len(rc.forks) == 1
        fork = rc.forks[0]
        assert tuple(str(t) for t in fork.pre) == ("?x", "?z")
        assert str(fork.representative) == "?y"

    def test_concept_atoms_only(self):
        rc = compute_rewriting(parse_query("A(?x, ?t) & B(?y, ?t2)"))
        assert all(len(cls) == 1 for cls in rc.classes)
        assert rc.cyc == frozenset() and rc.forks == ()

    def test_single_edge(self):
        rc = compute_rewriting(parse_query("R(?x, ?y, ?t)"))
        assert rc.cyc == frozenset() and rc.forks == ()

    def test_merge_budget(self):
        # every merge joins two classes: ?x and ?z, which both point at ?y
        q = parse_query(LOOP_QUERY)
        rc = compute_rewriting(q)
        assert len(q.ordinary_terms()) - len(rc.classes) == 1

    def test_same_as_pairwise_fixpoint(self):
        rng = random.Random(5)
        for n in range(600):
            if n % 2:
                q = random_query(rng, ("A", "B"), ("R", "S"), ("a", "b"), max_atoms=30)
            else:
                # up to 16 variables, so that classes, cycles and forks vary more
                terms = [Var(f"x{i}") for i in range(rng.randint(2, 16))] + [Ind("a")]
                q = BCQ(
                    RoleAtom("R", rng.choice(terms), rng.choice(terms), Var(f"t{k}"))
                    for k in range(rng.randint(1, 16))
                )
            assert compute_rewriting(q) == pairwise_rewriting(q), str(q)

    @pytest.mark.parametrize("shape", ["star", "chain"])
    def test_long_queries_rewrite_in_linear_time(self, shape):
        # the pairwise fixpoint took about a minute on the star
        n = 2000
        if shape == "star":
            atoms = [RoleAtom("R", Var(f"y{i}"), Var("x"), Var(f"t{i}")) for i in range(n)]
        else:
            atoms = [RoleAtom("R", Var(f"x{i}"), Var(f"x{i + 1}"), Var(f"t{i}")) for i in range(n)]
        start = time.perf_counter()
        rc = compute_rewriting(BCQ(atoms))
        assert time.perf_counter() - start < 2.0
        assert len(rc.classes) == (2 if shape == "star" else n + 1)
        assert rc.cyc == frozenset() and len(rc.forks) == (shape == "star")

    def test_render(self):
        text = render_rewriting(parse_query(LOOP_QUERY), compute_rewriting(parse_query(LOOP_QUERY)))
        lines = text.strip().splitlines()
        assert lines[0] == "R(?x, ?x, ?t) & R(?x, ?y, ?t2) & R(?z, ?y, ?t3)"
        assert "!aux(?x)" in lines and "!aux(?z)" in lines
        assert "aux(?y) -> ?x = ?z" in lines


class TestEntailsQuery:
    def test_loop_true_and_false(self):
        o = parse_ontology(LOOP)
        q = parse_query(LOOP_QUERY)
        assert answer_query(o, q, poly("u1")).entailed
        assert not answer_query(o, q, poly("u2*v1*v2")).entailed

    def test_side_conditions_block_anonymous_cycles(self):
        o = parse_ontology(LOOP)
        q = parse_query(LOOP_QUERY)
        interp = build_canonical_model(o)
        rc = compute_rewriting(q)
        matches = scan_matches(interp, q, rc)
        assert matches and provenance_of_matches(interp, q, rc) == scan_polynomial(q, matches)
        for match in matches:
            assert dict(match.binding)[Var("x")] == Named("a")
            assert dict(match.binding)[Var("z")] == Named("a")
        assert provenance_of_matches(interp, q) != provenance_of_matches(interp, q, rc)

    def test_fork_blocks_cross_parent_anonymous_matches(self):
        # two individuals share one anonymous successor (same role and edge
        # monomial); matches pairing different parents through it do not
        # correspond to matches in the unraveled model and must not count
        o = parse_ontology(
            "ca A(a) @ u\nca B(b) @ u\ngci A <= some(R) @ v\ngci B <= some(R) @ v"
        )
        interp = build_canonical_model(o)
        shared = AuxElement("R", mono("u*v"))
        parents = {d for d, e, _ in interp.role_triples("R") if e == shared}
        assert parents == {Named("a"), Named("b")}
        q = parse_query("R(?x, ?y, ?t) & R(?z, ?y, ?t2)")
        rc = compute_rewriting(q)
        with_rc = provenance_of_matches(interp, q, rc)
        assert with_rc == Polynomial({mono("u*v"): 2})
        without = provenance_of_matches(interp, q)
        assert without == Polynomial({mono("u*v"): 4})
        assert answer_query(o, q, poly("2 u*v")).entailed
        assert not answer_query(o, q, poly("3 u*v")).entailed

    def test_two_fact_cycle_multiplicity(self):
        o = parse_ontology("ra R(a, b) @ v1\nra R(b, a) @ v2")
        q = parse_query("R(?x, ?y, ?t) & R(?y, ?x, ?t2)")
        assert answer_query(o, q, poly("v1*v2 + v1*v2")).entailed
        assert not answer_query(o, q, poly("3 v1*v2")).entailed

    def test_zero_polynomial(self):
        o = parse_ontology("ca A(a) @ v")
        assert answer_query(o, parse_query("A(?x, ?t)"), Polynomial()).entailed
        assert not answer_query(o, parse_query("B(?x, ?t)"), Polynomial()).entailed

    def test_foreign_variables_fail(self):
        o = parse_ontology("ca A(a) @ v")
        assert not answer_query(o, parse_query("A(?x, ?t)"), poly("zz")).entailed

    def test_unknown_individual_raises(self):
        o = parse_ontology("ca A(a) @ v")
        with pytest.raises(UnknownIndividualError):
            answer_query(o, parse_query("A(nobody, ?t)"), poly("v"))

    def test_city_mayor_polynomial(self):
        o = parse_ontology(
            "ra mayor(Venice, Brugnaro) @ v1\n"
            "ra mayor(Venice, Orsoni) @ v2\n"
            "rr ran(mayor) <= Mayor @ v3"
        )
        interp = build_canonical_model(o)
        q = parse_query("Mayor(?x, ?t)")
        assert provenance_of_matches(interp, q, compute_rewriting(q)) == poly("v1*v3 + v2*v3")

    def test_existential_tree_query_agrees_with_instance_query(self):
        from elprov.completion import entails
        from elprov.ontology import ExistsQ
        from elprov.provenance import Monomial
        from generators import VARS

        rng = random.Random(24)
        checked = 0
        for _ in range(40):
            o = random_normalized_ontology(rng, max_axioms=5)
            if not (o.concept_names and o.role_names and o.individuals):
                continue
            ind = rng.choice(o.individuals)
            role = rng.choice(o.role_names)
            concept = rng.choice(o.concept_names)
            q = parse_query(f"{role}({ind}, ?y, ?t) & {concept}(?y, ?t2)")
            for k in range(3):
                m = Monomial(tuple(rng.sample(VARS, k)))
                via_query = answer_query(o, q, Polynomial([(m, 1)])).entailed
                via_iq = entails(o, (ExistsQ(role, Atomic(concept)), ind), m)
                assert via_query == via_iq, (render_ontology(o), role, concept, ind, str(m))
                checked += 1
        assert checked > 30

    def test_role_atom_query_agrees_with_role_assertion(self):
        from elprov.provenance import Monomial
        from generators import VARS

        rng = random.Random(25)
        checked = 0
        for _ in range(40):
            o = random_normalized_ontology(rng, max_axioms=5)
            if not (o.role_names and len(o.individuals) >= 2):
                continue
            role = rng.choice(o.role_names)
            a, b = rng.sample(o.individuals, 2)
            q = parse_query(f"{role}({a}, {b}, ?t)")
            for k in range(3):
                m = Monomial(tuple(rng.sample(VARS, k)))
                assert answer_query(o, q, Polynomial([(m, 1)])).entailed == entails_assertion(
                    o, RA(role, a, b), m
                )
                checked += 1
        assert checked > 30

    def test_atomic_query_agrees_with_assertion_entailment(self):
        rng = random.Random(23)
        checked = 0
        for _ in range(20):
            o = random_normalized_ontology(rng, max_axioms=5)
            result = chase(o)
            sat_facts = list(result.concept_facts)[:3]
            candidates = sat_facts + [
                ("A", ind, mono("v1")) for ind in list(o.individuals)[:1]
            ]
            for concept, ind, m in candidates:
                if concept not in o.concept_names:
                    continue
                q = parse_query(f"{concept}({ind}, ?t)")
                expected = entails_assertion(o, CA(Atomic(concept), ind), m)
                got = answer_query(o, q, Polynomial([(m, 1)])).entailed
                assert got == expected, (render_ontology(o), concept, ind, str(m))
                checked += 1
        assert checked > 10
