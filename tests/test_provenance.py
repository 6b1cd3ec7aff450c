import re
from functools import reduce
from operator import attrgetter, or_

import pytest
from hypothesis import event, example, given, settings, strategies as st

from crosscheck import dataclass_monomial_key, parse_monomial_by_kinds, parse_polynomial_by_kinds
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
from elprov.syntax import ParseError

u, v, w = Variable("u"), Variable("v"), Variable("w")
v1, v2, v3 = Variable("v1"), Variable("v2"), Variable("v3")
n_ = Variable("n")


def mono(*vs):
    return Monomial(vs)


def poly(*monomials):
    return Polynomial((m, 1) for m in monomials)


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

    def test_a_monomial_holds_its_variables_not_its_node_fields(self):
        m = Monomial(vars=(v, u, v))
        assert list(m) == [u, v] and m.vars == (u, v) and m.names == ("u", "v") and m.degree == 2
        assert u in m and w not in m and "Monomial" not in m and ("u", "v") not in m

    def test_an_int_does_not_repeat_a_monomial(self):
        for bad in (lambda m: 2 * m, lambda m: m * 2, lambda m: m * u):
            with pytest.raises(TypeError):  # not the tuple's repeat
                bad(mono(u, v))

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
        p = poly(mono(v1, v2)) + poly(mono(v1, v2))
        assert p.coefficient(mono(v1, v2)) == 2

    def test_zero_is_neutral(self):
        p = poly(mono(u), mono(v))
        assert p + ZERO == p

    def test_distinct_monomials(self):
        p = poly(mono(u)) + poly(mono(v))
        assert p.terms() == ((mono(u), 1), (mono(v), 1))

    def test_product_distributes(self):
        p = poly(mono(u), mono(v)) * poly(mono(w))
        assert p == poly(mono(u, w), mono(v, w))

    def test_product_idempotent_monomial(self):
        p = poly(mono(v1)) * poly(mono(v1))
        assert p == poly(mono(v1))

    def test_product_collapses_after_distribution(self):
        p = poly(mono(v1), mono(v2)) * poly(mono(v1))
        assert p == poly(mono(v1), mono(v1, v2))

    def test_contains_multiset(self):
        big = Polynomial({mono(v1, v2): 2})
        assert poly(mono(v1, v2), mono(v1, v2)).contained_in(big)
        assert not Polynomial({mono(v1, v2): 2}).contained_in(poly(mono(v1, v2)))
        assert poly(mono(u, v)).contained_in(poly(mono(v, u), mono(w)))

    def test_zero_contained_in_everything(self):
        assert ZERO.contained_in(ZERO)
        assert ZERO.contained_in(poly(mono(u)))

    @given(polynomials, polynomials, polynomials)
    def test_semiring_laws(self, p, q, r):
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + ZERO == p
        assert p * poly(ONE) == p
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
        p = poly(mono(v1, v3), mono(v2, v3))
        env = {v1: True, v2: True, v3: True}
        assert evaluate(p, env, BOOLEAN) is True

    def test_unit_monomial_maps_to_one(self):
        assert evaluate(poly(ONE), {}, BOOLEAN) is True
        assert evaluate(poly(ONE), {}, FUZZY) == 1.0

    def test_fuzzy(self):
        p = poly(mono(v1, v3), mono(v2, v3))
        env = {v1: 0.5, v2: 0.9, v3: 0.8}
        assert evaluate(p, env, FUZZY) == pytest.approx(0.8)

    def test_zero_polynomial(self):
        assert evaluate(ZERO, {}, BOOLEAN) is False

    def test_missing_assignment(self):
        with pytest.raises(MissingAssignmentError) as exc:
            evaluate(poly(mono(u, v)), {u: True}, BOOLEAN)
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


# pieces of provenance text: names, integers, operators, whole terms, the
# blanks and blanks of no grammar
PROV_PIECES = (
    "v1", "u", "_w", "1", "0", "2", "10", "*", "+", "-", "2 v1*u", " + ",
    " ", "\t", "\n", "\xa0", "\x0c", "\u2003",
)
PARSERS = [(parse_monomial, parse_monomial_by_kinds), (parse_polynomial, parse_polynomial_by_kinds)]


def outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return exc


@pytest.mark.parametrize("parsers", PARSERS, ids=["monomial", "polynomial"])
class TestParsersAgainstTheKindTokenParsers:
    """``parse_monomial`` and ``parse_polynomial`` on the shared scanner
    against the parsers they replaced (``crosscheck.*_by_kinds``): the same
    value wherever both accept, a ``ParseError`` wherever the old one raises,
    and a new error only at a blank other than space or tab inside the text,
    which the old ones took as any other blank."""

    @staticmethod
    def check(parsers, text: str) -> str:
        parse, by_kinds = parsers
        old, new = outcome(by_kinds, text), outcome(parse, text)
        if not isinstance(new, ValueError):
            assert new == old, (text, old)
            return "ok"
        assert isinstance(new, ParseError), (text, new)
        if isinstance(old, ValueError):
            return "error"
        stripped = text.strip()
        blank = stripped[new.column - 1]
        assert blank.isspace() and blank not in " \t", (text, new)
        assert new.message == f"unexpected character {blank!r}"
        assert parse(re.sub(r"[^\S \t]", " ", stripped)) == old
        return "blank"

    @settings(max_examples=300)
    @given(text=st.lists(st.sampled_from(PROV_PIECES), max_size=10).map("".join))
    @example(text=" 2 v1\xa0*\x0cv4\n")
    def test_pieces(self, parsers, text):
        event(self.check(parsers, text))

    @settings(max_examples=200)
    @given(rng=st.randoms(use_true_random=False), p=polynomials, edits=st.integers(0, 2))
    def test_printed_values_and_mutations(self, parsers, rng, p, edits):
        text = str(p.monomials()[0] if p and parsers[0] is parse_monomial else p)
        for _ in range(edits):  # a piece replaces a character, or is put between two
            i = rng.randrange(len(text) + 1)
            text = text[:i] + rng.choice(PROV_PIECES) + text[i + rng.randrange(2):]
        event(self.check(parsers, text))


def test_custom_semiring_spec():
    clearance = SemiringSpec(zero=0.0, one=float("inf"), add=max, mul=min)
    p = poly(mono(u), mono(v))
    assert evaluate(p, {u: 4, v: 7}, clearance) == 7
    assert evaluate(poly(mono(u, v)), {u: 4, v: 7}, clearance) == 4
