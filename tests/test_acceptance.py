"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. All checks are exact (set equality / boolean agreement); the random
corpora are seeded and therefore reproducible.
"""

import itertools
import random

from elprov.canonical import answer_query, build_canonical_model, compute_rewriting
from elprov.completion import entails, entails_assertion, saturate
from elprov.interpretation import (
    AuxElement,
    Named,
    parse_query,
    provenance_of_matches,
)
from elprov.ontology import (
    CA,
    GCI,
    RA,
    Atomic,
    normalize,
    parse_ontology,
)
from elprov.provenance import (
    BOOLEAN,
    FUZZY,
    ONE,
    Monomial,
    Polynomial,
    Variable,
    evaluate,
    parse_monomial,
    parse_polynomial,
)
from elprov.relevance import merged_saturate

from crosscheck import (
    CONJUNCTION_RULES,
    entails_ca_via_gci,
    entails_ra_via_ri,
    entails_without_rules,
)
from generators import VARS, random_general_ontology, random_normalized_ontology
from oracle import chase

MAYOR = """
ra mayor(Venice, Orsoni) @ v1
ra predecessor(Brugnaro, Orsoni) @ v2
gci some(predecessor, Mayor) <= Mayor @ v3
rr ran(mayor) <= Mayor @ v4
"""

CHAIN = """
gci A <= B1 @ v1
gci A <= B2 @ v2
gci and(B1, B2) <= C @ v3
"""

LOOP = """
ra R(a, a) @ u1
ca A(a) @ u2
gci A <= some(R) @ v1
rr ran(R) <= A @ v2
"""

LOOP_QUERY = "R(?x, ?x, ?t) & R(?x, ?y, ?t2) & R(?z, ?y, ?t3)"

CITY = """
ra mayor(Venice, Brugnaro) @ v1
ra mayor(Venice, Orsoni) @ v2
rr ran(mayor) <= Mayor @ v3
"""


def mono(text):
    return parse_monomial(text)


def blowup_ontology(n):
    lines = [f"gci A <= A{i} @ v{i}\ngci A{i} <= B @ u{i}" for i in range(1, n + 1)]
    lines.append("gci B <= A @ u")
    return parse_ontology("\n".join(lines))


def named_facts_of_saturation(sat, concepts, roles, max_degree=None):
    cas, ras = set(), set()
    for ann in sat.axioms:
        ax, m = ann.axiom, ann.annotation
        if max_degree is not None and m.degree > max_degree:
            continue
        if isinstance(ax, CA) and isinstance(ax.concept, Atomic) and ax.concept.name in concepts:
            cas.add((ax.concept.name, ax.ind, m))
        elif isinstance(ax, RA) and ax.role in roles:
            ras.add((ax.role, ax.a, ax.b, m))
    return cas, ras


def test_criterion_01_mayor_entailment_is_exact():
    o = parse_ontology(MAYOR)
    target = CA(Atomic("Mayor"), "Brugnaro")
    full = [Variable(f"v{i}") for i in range(1, 5)]
    assert entails_assertion(o, target, Monomial(full))
    for k in range(4):
        for subset in itertools.combinations(full, k):
            assert not entails_assertion(o, target, Monomial(subset)), subset
    print("ACCEPTANCE PASS [1]: four-axiom mayor ontology entails Mayor(Brugnaro) "
          "exactly at v1*v2*v3*v4, no strict sub-monomial")


def test_criterion_02_conjunction_dependent_gci():
    o = parse_ontology(CHAIN)
    m = mono("v1*v2*v3")
    assert entails(o, GCI(Atomic("A"), Atomic("C")), m)
    # control: the entailment needs the idempotent merge of two memberships
    # of the same individual; the GCI is decided at a fresh individual, so
    # the merge runs through the conjunction rules (TBox, range and
    # assertion variants) - with all of them off it must disappear
    assert not entails_without_rules(o, GCI(Atomic("A"), Atomic("C")), m, CONJUNCTION_RULES)
    print("ACCEPTANCE PASS [2]: A<=C holds at v1*v2*v3 and vanishes with the "
          "conjunction rules disabled")


def test_criterion_03_annotation_family_blowup():
    n = 3
    sat = saturate(normalize(blowup_ontology(n)))
    got = {ann.annotation for ann in sat.axioms if ann.axiom == GCI(Atomic("B"), Atomic("A"))}
    expected = set()
    for size in range(n + 1):
        for subset in itertools.combinations(range(1, n + 1), size):
            vs = [Variable("u")]
            for i in subset:
                vs += [Variable(f"u{i}"), Variable(f"v{i}")]
            expected.add(Monomial(tuple(vs)))
    assert got == expected
    assert len(got) == 2 ** n
    print(f"ACCEPTANCE PASS [3]: full saturation carries exactly the {2**n} "
          "subset annotations on B<=A")


def test_criterion_04_merged_saturation_and_union_equivalence():
    n = 3
    instance = normalize(blowup_ontology(n))
    merged = merged_saturate(instance)
    vs = [Variable("u")]
    for i in range(1, n + 1):
        vs += [Variable(f"u{i}"), Variable(f"v{i}")]
    m = Monomial(tuple(vs))
    assert merged.entries
    for ax, got in merged.entries.items():
        assert got == m, f"{ax} carries {got}"
    # union equivalence on this very instance
    full = saturate(instance)
    assert set(merged.entries) == {ann.axiom for ann in full.axioms}
    for axiom, entry in merged.entries.items():
        union = frozenset(v for a in full.axioms if a.axiom == axiom for v in a.annotation.vars)
        assert frozenset(entry.vars) == union

    rng = random.Random(2024)
    for _ in range(200):
        o = normalize(random_normalized_ontology(rng))
        merged = merged_saturate(o)
        sat = saturate(o)
        axioms = {ann.axiom for ann in sat.axioms}
        assert set(merged.entries) == axioms
        for axiom in axioms:
            union = frozenset(v for a in sat.axioms if a.axiom == axiom for v in a.annotation.vars)
            assert frozenset(merged.entries[axiom].vars) == union, axiom
    print("ACCEPTANCE PASS [4]: merged saturation collapses the blowup family "
          "to one monomial and matches the full-saturation variable union on "
          "200 random ontologies")


def test_criterion_05_canonical_model_extensions():
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
    print("ACCEPTANCE PASS [5]: canonical model reproduces the expected "
          "5 concept pairs and 6 role triples exactly")


def test_criterion_06_query_and_rewriting():
    o = parse_ontology(LOOP)
    q = parse_query(LOOP_QUERY)
    assert answer_query(o, q, parse_polynomial("u1")).entailed
    assert not answer_query(o, q, parse_polynomial("u2*v1*v2")).entailed
    rc = compute_rewriting(q)
    classes = {frozenset(str(t) for t in cls) for cls in rc.classes}
    assert frozenset(["?x", "?z"]) in classes
    assert {str(v) for v in rc.cyc} == {"?x", "?z"}
    assert [(tuple(str(t) for t in f.pre), str(f.representative)) for f in rc.forks] == [
        (("?x", "?z"), "?y")
    ]
    print("ACCEPTANCE PASS [6]: loop query entailed at u1 and refuted at "
          "u2*v1*v2; rewriting has class {x,z}, fork ({x,z} -> y), cyc {x,z}")


def test_criterion_07_match_multiplicity():
    o = parse_ontology("ra R(a, b) @ v1\nra R(b, a) @ v2")
    interp = build_canonical_model(o)
    q = parse_query("R(?x, ?y, ?t) & R(?y, ?x, ?t2)")
    p = provenance_of_matches(interp, q, compute_rewriting(q))
    assert p == Polynomial({mono("v1*v2"): 2})
    assert answer_query(o, q, Polynomial()).matches == 2
    assert parse_polynomial("v1*v2 + v1*v2").contained_in(p)
    assert not parse_polynomial("3 v1*v2").contained_in(p)
    print("ACCEPTANCE PASS [7]: query provenance is 2 v1*v2; containment "
          "accepts two occurrences and rejects three")


def test_criterion_08_alternative_derivations_polynomial():
    interp = build_canonical_model(parse_ontology(CITY))
    q = parse_query("Mayor(?x, ?t)")
    p = provenance_of_matches(interp, q, compute_rewriting(q))
    assert p == parse_polynomial("v1*v3 + v2*v3")
    print("ACCEPTANCE PASS [8]: two-mayor ontology yields v1*v3 + v2*v3")


def test_criterion_09_oracle_equivalence_500():
    rng = random.Random(90)
    disagreements = 0
    spot_checks = 0
    for _ in range(500):
        o = random_normalized_ontology(rng)
        result = chase(o)
        concepts, roles = set(o.concept_names), set(o.role_names)
        for k in (0, 1, 2, 4):
            sat = saturate(o, k=k)
            got_ca, got_ra = named_facts_of_saturation(sat, concepts, roles, max_degree=k)
            want_ca = {f for f in result.concept_facts if f[2].degree <= k}
            want_ra = {f for f in result.role_facts if f[3].degree <= k}
            if got_ca != want_ca or got_ra != want_ra:
                disagreements += 1
        # spot-check the public operation itself on a few queries
        facts = sorted(result.concept_facts, key=str)[:2]
        for concept, ind, m in facts:
            if entails_assertion(o, CA(Atomic(concept), ind), m) is not True:
                disagreements += 1
            spot_checks += 1
        if o.concept_names and o.individuals:
            concept = rng.choice(o.concept_names)
            ind = rng.choice(o.individuals)
            m = Monomial(tuple(rng.sample(VARS, rng.randint(0, 4))))
            expected = result.holds_ca(concept, ind, m)
            if entails_assertion(o, CA(Atomic(concept), ind), m) is not expected:
                disagreements += 1
            spot_checks += 1
    assert disagreements == 0
    assert spot_checks > 500
    print("ACCEPTANCE PASS [9]: 500 random ontologies, saturation assertions "
          "equal the ground-chase facts at every monomial bound; zero "
          "disagreements")


def test_criterion_10_assertion_inclusion_cross_check_500():
    rng = random.Random(100)
    disagreements = 0
    checks = 0
    for _ in range(500):
        o = random_normalized_ontology(rng, max_axioms=5)
        result = chase(o)
        ca_samples = sorted(result.concept_facts, key=str)[:1]
        if o.concept_names and o.individuals:
            ca_samples.append(
                (
                    rng.choice(o.concept_names),
                    rng.choice(o.individuals),
                    Monomial(tuple(rng.sample(VARS, rng.randint(0, 2)))),
                )
            )
        for concept, ind, m in ca_samples:
            direct = entails_assertion(o, CA(Atomic(concept), ind), m)
            via_gci = entails_ca_via_gci(o, concept, ind, m)
            if direct != via_gci:
                disagreements += 1
            checks += 1
        ra_samples = sorted(result.role_facts, key=str)[:1]
        if o.role_names and o.individuals:
            ra_samples.append(
                (
                    rng.choice(o.role_names),
                    rng.choice(o.individuals),
                    rng.choice(o.individuals),
                    Monomial(tuple(rng.sample(VARS, rng.randint(0, 2)))),
                )
            )
        for role, a, b, m in ra_samples:
            direct = entails_assertion(o, RA(role, a, b), m)
            via_ri = entails_ra_via_ri(o, role, a, b, m)
            if direct != via_ri:
                disagreements += 1
            checks += 1
    assert disagreements == 0
    assert checks >= 1000
    print(f"ACCEPTANCE PASS [10]: {checks} assertion/inclusion reduction "
          "cross-checks on 500 random ontologies, zero disagreements")


def test_criterion_11_algebra_property_suite():
    rng = random.Random(110)
    pool = [Variable(n) for n in ("u", "v", "w", "x")]

    def rand_mono():
        return Monomial(tuple(rng.sample(pool, rng.randint(0, 3))))

    def rand_poly():
        return Polynomial([(rand_mono(), rng.randint(1, 3)) for _ in range(rng.randint(0, 3))])

    cases = 10_000
    for _ in range(cases):
        a, b, c = rand_mono(), rand_mono(), rand_mono()
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * a == a
        assert a * ONE == a
    for _ in range(cases):
        p, q, r = rand_poly(), rand_poly(), rand_poly()
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
    for _ in range(cases):
        p, q, r = rand_poly(), rand_poly(), rand_poly()
        assert p.contained_in(p)
        if p.contained_in(q) and q.contained_in(p):
            assert p == q
        if p.contained_in(q) and q.contained_in(r):
            assert p.contained_in(r)
    bool_env = {v: rng.random() < 0.5 for v in pool}
    fuzzy_env = {v: round(rng.random(), 3) for v in pool}
    for _ in range(cases):
        p, q = rand_poly(), rand_poly()
        for s, env in ((BOOLEAN, bool_env), (FUZZY, fuzzy_env)):
            assert evaluate(p + q, env, s) == s.add(evaluate(p, env, s), evaluate(q, env, s))
            assert evaluate(p * q, env, s) == s.mul(evaluate(p, env, s), evaluate(q, env, s))
    print(f"ACCEPTANCE PASS [11]: semiring laws, idempotency, containment "
          f"order and evaluation homomorphism hold on {cases} cases each")


def test_criterion_12_normalization_preserves_entailment_200():
    rng = random.Random(120)
    disagreements = 0
    for _ in range(200):
        o = random_general_ontology(rng)
        result = chase(o)  # evaluates nested lhs concepts directly, no normalization
        normalized = normalize(o)
        sat = saturate(normalized)
        concepts, roles = set(o.concept_names), set(o.role_names)
        got_ca, got_ra = named_facts_of_saturation(sat, concepts, roles)
        if got_ca != result.concept_facts or got_ra != result.role_facts:
            disagreements += 1
    assert disagreements == 0
    print("ACCEPTANCE PASS [12]: on 200 random ontologies, entailed assertions "
          "over the original signature are unchanged by normalization")
