from functools import reduce
from operator import attrgetter, or_

import pytest
from hypothesis import given, strategies as st

from crosscheck import dataclass_monomial_key
from elprov.completion import _VarTable
from elprov.provenance import (
    BOOLEAN,
    FUZZY,
    ONE,
    ZERO,
    MissingAssignmentError,
    Monomial,
    Polynomial,
    SemiringSpec,
    Variable,
    evaluate,
    parse_monomial,
    parse_polynomial,
)

u, v, w = Variable("u"), Variable("v"), Variable("w")
v1, v2, v3 = Variable("v1"), Variable("v2"), Variable("v3")
n_ = Variable("n")


def mono(*vs):
    return Monomial(vs)


variables = st.sampled_from([u, v, w, v1])
monomials = st.lists(variables, max_size=4).map(lambda vs: Monomial(tuple(vs)))
polynomials = st.lists(st.tuples(monomials, st.integers(1, 3)), max_size=4).map(Polynomial)


class TestMonomial:
    def test_representative_sorts_and_dedups(self):
        assert Monomial((v, u, v)) == mono(u, v)
        assert str(Monomial((v, u, v))) == "u*v"

    def test_empty_product_is_unit(self):
        assert Monomial(()) == ONE
        assert str(ONE) == "1"

    def test_idempotent(self):
        assert Monomial((v1, v1)) == mono(v1)

    def test_product_is_set_union(self):
        assert mono(u, v) * mono(v, w) == mono(u, v, w)

    def test_unit_law(self):
        m = mono(u, v)
        assert m * ONE == m and ONE * m == m

    def test_shared_factor_collapses(self):
        assert mono(n_, v1) * mono(n_, v2) == mono(n_, v1, v2)

    def test_representative_idempotent_on_canonical(self):
        m = Monomial((w, u))
        assert Monomial(m.vars) == m

    @given(monomials, monomials, monomials)
    def test_laws(self, a, b, c):
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * a == a
        assert a * ONE == a

    def test_variable_name_validation(self):
        with pytest.raises(ValueError):
            Variable("1")
        with pytest.raises(ValueError):
            Variable("2x")
        with pytest.raises(ValueError):
            Variable("a-b")


# names whose order is not the order they are made in: case, digits, prefixes
NAMED = tuple(Variable(n) for n in ("v2", "v10", "V", "a", "_z", "ab", "a_", "v1"))
name_lists = st.lists(st.sampled_from(NAMED), max_size=8)


class TestConstructionPaths:
    @given(name_lists, name_lists, st.permutations(NAMED))
    def test_every_path_gives_one_value_and_hash(self, vs, ws, order):
        whole = Monomial(tuple(vs + ws))
        assert whole.vars == tuple(sorted(set(vs + ws)))
        table = _VarTable([Monomial((v,)) for v in order])
        mask = reduce(or_, (table.bits[v] for v in vs + ws), 0)
        built = [
            parse_monomial("*".join(v.name for v in vs + ws) or "1"),
            table.monomial(mask),
            table.monomial(mask),
            whole * ONE,
            ONE * whole,
            Monomial(tuple(vs)) * Monomial(tuple(ws)),
        ]
        for mon in built:
            assert (mon, mon.vars, mon.names, hash(mon)) == (
                whole, whole.vars, whole.names, hash(whole)
            )

    @given(st.lists(name_lists.map(lambda vs: Monomial(tuple(vs))), max_size=8))
    def test_name_tuples_sort_like_the_dataclass_order(self, mons):
        assert sorted(mons, key=attrgetter("names")) == sorted(mons, key=dataclass_monomial_key)
        assert sorted(mons) == sorted(mons, key=dataclass_monomial_key)
        poly = Polynomial((m, 1) for m in mons)
        assert poly.monomials() == tuple(sorted(set(mons), key=dataclass_monomial_key))


class TestPolynomial:
    def test_sum_keeps_multiplicity(self):
        p = Polynomial.of(mono(v1, v2)) + Polynomial.of(mono(v1, v2))
        assert p.coefficient(mono(v1, v2)) == 2

    def test_zero_is_neutral(self):
        p = Polynomial.of(mono(u), mono(v))
        assert p + ZERO == p

    def test_distinct_monomials(self):
        p = Polynomial.of(mono(u)) + Polynomial.of(mono(v))
        assert p.terms() == ((mono(u), 1), (mono(v), 1))

    def test_product_distributes(self):
        p = Polynomial.of(mono(u), mono(v)) * Polynomial.of(mono(w))
        assert p == Polynomial.of(mono(u, w), mono(v, w))

    def test_product_idempotent_monomial(self):
        p = Polynomial.of(mono(v1)) * Polynomial.of(mono(v1))
        assert p == Polynomial.of(mono(v1))

    def test_product_collapses_after_distribution(self):
        p = Polynomial.of(mono(v1), mono(v2)) * Polynomial.of(mono(v1))
        assert p == Polynomial.of(mono(v1), mono(v1, v2))

    def test_contains_multiset(self):
        big = Polynomial({mono(v1, v2): 2})
        assert Polynomial.of(mono(v1, v2), mono(v1, v2)).contained_in(big)
        assert not Polynomial({mono(v1, v2): 2}).contained_in(Polynomial.of(mono(v1, v2)))
        assert Polynomial.of(mono(u, v)).contained_in(Polynomial.of(mono(v, u), mono(w)))

    def test_zero_contained_in_everything(self):
        assert ZERO.contained_in(ZERO)
        assert ZERO.contained_in(Polynomial.of(mono(u)))

    @given(polynomials, polynomials, polynomials)
    def test_semiring_laws(self, p, q, r):
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + ZERO == p
        assert p * Polynomial.of(ONE) == p
        assert p * ZERO == ZERO

    @given(polynomials, polynomials)
    def test_contained_in_partial_order(self, p, q):
        assert p.contained_in(p)
        if p.contained_in(q) and q.contained_in(p):
            assert p == q

    @given(polynomials, polynomials, polynomials)
    def test_contained_in_transitive(self, p, q, r):
        if p.contained_in(q) and q.contained_in(r):
            assert p.contained_in(r)


class TestEvaluate:
    def test_boolean(self):
        p = Polynomial.of(mono(v1, v3), mono(v2, v3))
        env = {v1: True, v2: True, v3: True}
        assert evaluate(p, env, BOOLEAN) is True

    def test_unit_monomial_maps_to_one(self):
        assert evaluate(Polynomial.of(ONE), {}, BOOLEAN) is True
        assert evaluate(Polynomial.of(ONE), {}, FUZZY) == 1.0

    def test_fuzzy(self):
        p = Polynomial.of(mono(v1, v3), mono(v2, v3))
        env = {v1: 0.5, v2: 0.9, v3: 0.8}
        assert evaluate(p, env, FUZZY) == pytest.approx(0.8)

    def test_zero_polynomial(self):
        assert evaluate(ZERO, {}, BOOLEAN) is False

    def test_missing_assignment(self):
        with pytest.raises(MissingAssignmentError) as exc:
            evaluate(Polynomial.of(mono(u, v)), {u: True}, BOOLEAN)
        assert exc.value.variable == v

    @given(polynomials, polynomials)
    def test_homomorphism(self, p, q):
        env = {u: 0.3, v: 0.6, w: 0.9, v1: 0.1}
        for s in (BOOLEAN, FUZZY):
            e = {k: bool(val > 0.5) for k, val in env.items()} if s is BOOLEAN else env
            assert evaluate(p + q, e, s) == s.add(evaluate(p, e, s), evaluate(q, e, s))
            assert evaluate(p * q, e, s) == s.mul(evaluate(p, e, s), evaluate(q, e, s))


class TestParsing:
    def test_monomial_round_trip(self):
        for text in ("1", "u", "u*v*w"):
            assert str(parse_monomial(text)) == text

    def test_monomial_canonicalizes(self):
        assert parse_monomial("v*u*v") == mono(u, v)

    def test_polynomial_round_trip(self):
        for text in ("0", "1", "u*v", "u + v", "2 u*v + w", "3 1"):
            assert str(parse_polynomial(text)) == str(parse_polynomial(str(parse_polynomial(text))))

    def test_polynomial_coefficient_prefix(self):
        assert parse_polynomial("2 v1*v2") == Polynomial({mono(v1, v2): 2})
        assert parse_polynomial("v1*v2 + v1*v2") == Polynomial({mono(v1, v2): 2})

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_monomial("u +")
        with pytest.raises(ValueError):
            parse_polynomial("u * + v")
        with pytest.raises(ValueError):
            parse_polynomial("0 u")
        with pytest.raises(ValueError):
            parse_monomial("2")


def test_custom_semiring_spec():
    clearance = SemiringSpec(zero=0.0, one=float("inf"), add=max, mul=min)
    p = Polynomial.of(mono(u), mono(v))
    assert evaluate(p, {u: 4, v: 7}, clearance) == 7
    assert evaluate(Polynomial.of(mono(u, v)), {u: 4, v: 7}, clearance) == 4
