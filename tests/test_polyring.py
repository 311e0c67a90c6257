from __future__ import annotations

import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import (dense_divmod, dense_eval, dense_mul, dense_sub,
                      dense_trim, from_terms, random_polynomial,
                      random_univariate, small_fraction)

from stably_distinct.errors import (DivisionByZero, DivisionByZeroPolynomial,
                                    MixedDiscriminant, NotDivisible,
                                    ParseError, ResourceLimit,
                                    SignatureMismatch, StablyDistinctError,
                                    UnknownVariable)
from stably_distinct.exactfield import quadext
from stably_distinct.hypersurface import PqSpec, reduce_mod_relation, z_part
from stably_distinct.morphisms import RingEndomorphism
from stably_distinct.polyring import (Polynomial, RingSignature,
                                      UnivariatePoly, difference_quotient,
                                      exact_divide, parse_polynomial,
                                      random_point, rewrite_single_rule,
                                      x_power_bracket)


def sig1():
    return RingSignature(1)


def sig2():
    return RingSignature(2)


# a float is not truncated, a bool not read as 0 or 1, a text not parsed
NON_INT_DIMENSIONS = [2.7, 1.0, True, False, "2", None]


class TestSignature:
    @pytest.mark.parametrize("n", NON_INT_DIMENSIONS)
    def test_non_int_dimension_is_refused(self, n):
        with pytest.raises(ParseError, match=re.escape(repr(n))):
            RingSignature(n)

    def test_dimension_below_one(self):
        with pytest.raises(ValueError, match="need n >= 1, got 0"):
            RingSignature(0)

    def test_names_and_order(self):
        s = RingSignature(3, has_w=True)
        assert s.names == ("x1", "x2", "x3", "y", "z", "w")
        assert s.index("y") == 3 and s.index("w") == 5

    def test_no_w_by_default(self):
        with pytest.raises(UnknownVariable):
            RingSignature(2).index("w")

    def test_equality(self):
        assert RingSignature(2) == RingSignature(2)
        assert RingSignature(2) != RingSignature(2, has_w=True)


class TestArithmetic:
    def test_zero_coefficients_dropped(self):
        s = sig1()
        p = parse_polynomial(s, "0*x1 + 2*y")
        assert p.term_count() == 1

    def test_add_cancel(self):
        s = sig1()
        z = Polynomial.variable(s, "z")
        assert (z - z).is_zero()
        assert z + 0 == z

    def test_square(self):
        s = sig1()
        x, y = (Polynomial.variable(s, v) for v in ("x1", "y"))
        assert (x + y) ** 2 == x * x + 2 * x * y + y * y

    def test_scalar_mixing(self):
        s = sig1()
        z = Polynomial.variable(s, "z")
        assert 2 * z - z == z
        assert (z * Fraction(1, 2)) * 2 == z
        r2 = quadext(0, 1, 2)
        assert (z * r2) * r2 == 2 * z

    def test_division_by_zero_scalar(self):
        z = Polynomial.variable(sig1(), "z")
        for zero in (0, Fraction(0)):
            with pytest.raises(DivisionByZero):
                z / zero
        assert (2 * z) / 2 == z

    def test_signature_mismatch(self):
        with pytest.raises(SignatureMismatch):
            Polynomial.variable(sig1(), "z") + Polynomial.variable(sig2(), "z")

    def test_ring_axioms_random(self):
        # 200 random triples, degree <= 6: associativity and distributivity
        rng = random.Random(0)
        s = sig2()
        for _ in range(200):
            a = random_polynomial(s, rng, max_deg=6)
            b = random_polynomial(s, rng, max_deg=6)
            c = random_polynomial(s, rng, max_deg=6)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a

    def test_degrees(self):
        s = sig2()
        p = parse_polynomial(s, "x1^2*x2^2*y + z^2")
        assert p.degree() == 5
        assert p.degree_in("z") == 2
        assert p.degree_in("x1") == 2
        assert Polynomial.zero(s).degree() == -1


class TestNamedConstructions:
    def test_x_power_bracket(self):
        s = sig2()
        assert str(x_power_bracket(s, 2)) == "x1^2*x2^2"
        assert x_power_bracket(s, 0) == 1
        assert x_power_bracket(s, 1) * x_power_bracket(s, 1) \
            == x_power_bracket(s, 2)

    def test_partial_derivative(self):
        s = sig1()
        p = parse_polynomial(s, "x1^2*y + z^2 + x1*z^2")
        assert p.partial_derivative("z") == parse_polynomial(s, "2*z + 2*x1*z")
        assert p.partial_derivative("y") == parse_polynomial(s, "x1^2")

    def test_leibniz_on_partials(self):
        rng = random.Random(1)
        s = sig2()
        for _ in range(50):
            a = random_polynomial(s, rng)
            b = random_polynomial(s, rng)
            for v in s.names:
                lhs = (a * b).partial_derivative(v)
                rhs = a.partial_derivative(v) * b + a * b.partial_derivative(v)
                assert lhs == rhs


class TestSubstitute:
    def test_scaling_invariance(self):
        # x1^2 * y is fixed by x1 -> L*x1, y -> y/L^2
        s = sig1()
        p = parse_polynomial(s, "x1^2*y")
        lam = Fraction(3)
        img = p.substitute({"x1": Polynomial.variable(s, "x1") * lam,
                            "y": Polynomial.variable(s, "y") / (lam * lam)})
        assert img == p

    def test_homomorphism_property(self):
        rng = random.Random(2)
        s = sig2()
        for _ in range(40):
            a = random_polynomial(s, rng, max_deg=3, max_terms=4)
            b = random_polynomial(s, rng, max_deg=3, max_terms=4)
            images = {"x1": random_polynomial(s, rng, max_deg=2, max_terms=3),
                      "z": random_polynomial(s, rng, max_deg=2, max_terms=3)}
            assert (a + b).substitute(images) == \
                a.substitute(images) + b.substitute(images)
            assert (a * b).substitute(images) == \
                a.substitute(images) * b.substitute(images)

    def test_untouched_variables_fixed(self):
        s = sig2()
        p = parse_polynomial(s, "x1*x2*y")
        assert p.substitute({}) == p
        assert p.substitute({"z": 5}) == p

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            Polynomial.variable(sig1(), "y").substitute({"x9": 1})

    def test_foreign_image_refused_for_an_absent_variable(self):
        p = parse_polynomial(sig1(), "x1 + y")
        with pytest.raises(SignatureMismatch):
            p.substitute({"z": Polynomial.variable(sig2(), "z")})

    @pytest.mark.parametrize("source", ["(0+1*sqrt(2))*y",
                                        "(0+1*sqrt(2))*y + z"],
                             ids=["one-term", "multi-term"])
    def test_two_fields_refused(self, source):
        s = sig1()
        with pytest.raises(MixedDiscriminant, match="cannot mix"):
            parse_polynomial(s, source).substitute(
                {"y": parse_polynomial(s, "x1 + (0+1*sqrt(3))")})

    def test_evaluate_matches_substitute(self):
        rng = random.Random(3)
        s = sig2()
        for _ in range(20):
            p = random_polynomial(s, rng)
            point = {name: small_fraction(rng) for name in s.names}
            via_subs = p.substitute(point)
            assert via_subs.term_count() <= 1
            assert p.evaluate(point) == via_subs.coefficient((0,) * s.nvars)


class TestExactDivide:
    def test_by_monomial(self):
        s = sig2()
        p = parse_polynomial(s, "x1^3*x2^2*y + x1^2*x2^2*z")
        d = parse_polynomial(s, "x1^2*x2^2")
        assert exact_divide(p, d) == parse_polynomial(s, "x1*y + z")

    def test_not_divisible(self):
        s = sig1()
        with pytest.raises(NotDivisible, match="leading term 1$"):
            exact_divide(parse_polynomial(s, "x1*z + 1"),
                         parse_polynomial(s, "x1"))
        with pytest.raises(NotDivisible, match=r"leading term -1/2\*z\^3$"):
            exact_divide(parse_polynomial(s, "x1^2*y - 1/2*z^3"),
                         parse_polynomial(s, "x1^2"))

    def test_zero_divisor(self):
        s = sig1()
        with pytest.raises(DivisionByZeroPolynomial):
            exact_divide(Polynomial.variable(s, "z"), Polynomial.zero(s))

    def test_product_roundtrip_random(self):
        rng = random.Random(4)
        s = sig2()
        for _ in range(100):
            p = random_polynomial(s, rng, max_deg=4, max_terms=5)
            d = random_polynomial(s, rng, max_deg=3, max_terms=1)
            if d.is_zero():
                continue
            assert exact_divide(p * d, d) == p


class TestRewriteRule:
    def test_single_step(self):
        # x1^2*y -> 1 - z^2 inside x1^2*y*z
        s = sig1()
        rhs = parse_polynomial(s, "1 - z^2")
        p = parse_polynomial(s, "x1^2*y*z + z")
        result, steps = rewrite_single_rule(p, (2, 1, 0), rhs)
        assert result == parse_polynomial(s, "z - z^3 + z")
        assert steps == 1

    def test_cascades_until_normal(self):
        s = sig1()
        rhs = parse_polynomial(s, "1 - z^2")
        p = parse_polynomial(s, "x1^4*y^2")
        result, steps = rewrite_single_rule(p, (2, 1, 0), rhs)
        # x1^4 y^2 -> x1^2 y (1 - z^2), then each of the two remaining
        # reducible terms is rewritten once more: three single-term steps
        assert result == parse_polynomial(s, "1 - 2*z^2 + z^4")
        assert steps == 3

    def test_requires_decreasing_variable(self):
        s = sig1()
        with pytest.raises(ValueError):
            rewrite_single_rule(Polynomial.variable(s, "y"), (0, 1, 0),
                                parse_polynomial(s, "y^2"))

    @pytest.mark.parametrize("order", [1, -1])
    def test_term_cancelled_earlier_in_a_pass_is_skipped(self, order):
        # rewriting x1^4*y^2 first cancels the queued -x1^2*y; with the
        # terms the other way round nothing is cancelled before its turn
        s = sig1()
        terms = list(parse_polynomial(s, "x1^4*y^2 - x1^2*y").terms.items())
        p = Polynomial(s, dict(terms[::order]))
        result, _ = reduce_mod_relation(p, PqSpec(1, [0], 1))
        assert result == parse_polynomial(s, "z^4 - z^2")

    # x1^(2k+a)*y^(k+b)*z^j: rewrites of such terms often land on others
    @settings(deadline=None)
    @given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 1),
                                     st.integers(0, 1), st.integers(0, 2)).map(
                               lambda t: (2 * t[0] + t[1], t[0] + t[2], t[3])),
                           st.integers(-2, 2).filter(bool), max_size=6),
           st.lists(st.integers(-2, 2), max_size=3), st.integers(-1, 2))
    def test_normal_form_ignores_term_order(self, terms, q, c):
        s = sig1()
        p = from_terms(s, terms)
        rhs = c - z_part(UnivariatePoly(q), Polynomial.variable(s, "z"))
        flipped = Polynomial(s, dict(reversed(p.terms.items())))
        assert (rewrite_single_rule(p, (2, 1, 0), rhs)[0]
                == rewrite_single_rule(flipped, (2, 1, 0), rhs)[0])


class TestRandomEvaluate:
    def test_same_seed_same_point(self):
        s = sig2()
        p = parse_polynomial(s, "x1*x2*y - z^2")
        v1 = p.evaluate(random_point(s, random.Random(11)))
        v2 = p.evaluate(random_point(s, random.Random(11)))
        assert v1 == v2

    def test_point_bounds(self):
        pt = random_point(sig2(), random.Random(5))
        for v in pt.values():
            assert 0 <= v < 2 ** 61 - 1

    def test_identity_spot_check(self):
        s = sig1()
        lhs = parse_polynomial(s, "x1^2*y + z^2") ** 2
        rhs = parse_polynomial(s, "x1^4*y^2 + 2*x1^2*y*z^2 + z^4")
        for seed in range(5):
            assert lhs.evaluate(random_point(s, random.Random(seed))) == \
                rhs.evaluate(random_point(s, random.Random(seed)))


class TestTermLimit:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("STABLY_DISTINCT_TERM_LIMIT", "8")
        s = sig1()
        p = parse_polynomial(s, "1 + x1 + y + z")
        with pytest.raises(ResourceLimit):
            p ** 4

    def test_limit_counts_nonzero_terms(self, monkeypatch):
        # the cross terms cancel, so no row leaves more than 2 terms
        monkeypatch.setenv("STABLY_DISTINCT_TERM_LIMIT", "2")
        s = sig1()
        p = parse_polynomial(s, "y + z") * parse_polynomial(s, "y - z")
        assert str(p) == "y^2 - z^2"
        y = Polynomial.variable(s, "y")
        z = Polynomial.variable(s, "z") * quadext(0, 1, 2)
        assert str((y + z) * (y - z)) == "y^2 - 2*z^2"
        # 2 x 16 term pairs take the packed path: 16 terms after the first
        # row, 2 nonzero of 17 after the second
        monkeypatch.setenv("STABLY_DISTINCT_TERM_LIMIT", "16")
        geometric = parse_polynomial(
            s, " + ".join(f"y^{i}" for i in range(1, 16)) + " + 1")
        assert str(parse_polynomial(s, "1 - y") * geometric) == "-y^16 + 1"

    @pytest.mark.parametrize("left, right, message", [
        ("x1", "1 + z + z^2 + z^3", "product of 1 and 4 terms exceeded 3"),
        ("x1 + y", "1 + z + z^2 + z^3", "product of 2 and 4 terms exceeded 3"),
        ("x1 + (0+1*sqrt(2))*y", "1 + z + z^2 + z^3",
         "product of 2 and 4 terms exceeded 3"),
        # three terms once lifted, but the message names the operand's two
        ("x1 + (1+1*sqrt(2))*y", "1 + z + z^2 + z^3",
         "product of 2 and 4 terms exceeded 3"),
        ("x1 + y + z + x1*y", "1 + z + z^2 + z^3 + z^4 + z^5 + z^6 + z^7",
         "product of 4 and 8 terms exceeded 3"),
    ])
    def test_limit_message_names_operand_sizes(self, monkeypatch, left,
                                               right, message):
        monkeypatch.setenv("STABLY_DISTINCT_TERM_LIMIT", "3")
        s = sig1()
        with pytest.raises(ResourceLimit, match=message):
            parse_polynomial(s, left) * parse_polynomial(s, right)

    def test_substitution_limit_names_the_operands(self, monkeypatch):
        # (x1 + z + 1)^2 already has 6 terms
        monkeypatch.setenv("STABLY_DISTINCT_TERM_LIMIT", "5")
        s = sig1()
        p = parse_polynomial(s, "y^2 + y*z + z^3 + x1")
        images = {"y": parse_polynomial(s, "x1 + z + 1"),
                  "z": parse_polynomial(s, "x1 - y")}
        message = ("substitution of y (3 terms), z (2 terms) into 4 terms "
                   "exceeded 5 terms")
        with pytest.raises(ResourceLimit, match=re.escape(message)):
            p.substitute(images)

    def test_sqrt2_substitution_limit_names_the_operands(self, monkeypatch):
        # (x1 + (1+sqrt(2))*z + 1)^2 already has 6 terms
        monkeypatch.setenv("STABLY_DISTINCT_TERM_LIMIT", "5")
        s = sig1()
        p = parse_polynomial(s, "y^2 + (0+1*sqrt(2))*z")
        images = {"y": parse_polynomial(s, "x1 + (1+1*sqrt(2))*z + 1")}
        message = "substitution of y (3 terms) into 2 terms exceeded 5 terms"
        with pytest.raises(ResourceLimit, match=re.escape(message)):
            p.substitute(images)

    def test_substitution_limit_counts_nonzero_terms(self, monkeypatch):
        # x1 cancels between the two images: 3 entries, 2 of them nonzero
        monkeypatch.setenv("STABLY_DISTINCT_TERM_LIMIT", "2")
        s = sig1()
        got = parse_polynomial(s, "y + z").substitute({
            "y": parse_polynomial(s, "x1 + z^2"),
            "z": parse_polynomial(s, "y^3 - x1")})
        assert str(got) == "y^3 + z^2"

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5"])
    def test_bad_limit_names_the_variable(self, monkeypatch, value):
        monkeypatch.setenv("STABLY_DISTINCT_TERM_LIMIT", value)
        p = parse_polynomial(sig1(), "y + z")
        with pytest.raises(StablyDistinctError, match=(
                f"STABLY_DISTINCT_TERM_LIMIT .*'{re.escape(value)}'")):
            p * p

    def test_default_allows_normal_work(self, monkeypatch):
        monkeypatch.delenv("STABLY_DISTINCT_TERM_LIMIT", raising=False)
        s = sig1()
        p = parse_polynomial(s, "1 + x1 + y + z")
        assert (p ** 4).term_count() == 35


class TestTextRoundtrip:
    def test_canonical_order_is_graded_lex(self):
        s = sig2()
        p = parse_polynomial(s, "z^2 + x1^2*x2^2*y - 1/2 + x1*x2")
        assert str(p) == "x1^2*x2^2*y + x1*x2 + z^2 - 1/2"

    def test_examples(self):
        s = sig1()
        assert str(Polynomial.zero(s)) == "0"
        assert str(parse_polynomial(s, "-x1 + 1")) == "-x1 + 1"
        assert str(parse_polynomial(s, "y - y")) == "0"
        assert str(parse_polynomial(s, "3/2*z^2*x1")) == "3/2*x1*z^2"

    def test_quadext_coefficients(self):
        s = sig1()
        p = from_terms(s, {(0, 0, 1): quadext(0, 1, 2),
                           (0, 0, 0): Fraction(1)})
        text = str(p)
        assert text == "(0+1*sqrt(2))*z + 1"
        assert parse_polynomial(s, text) == p

    def test_roundtrip_random(self):
        rng = random.Random(6)
        s = RingSignature(3, has_w=True)
        for _ in range(60):
            p = random_polynomial(s, rng, max_deg=5, max_terms=7)
            assert parse_polynomial(s, str(p)) == p

    def test_parse_flexible_whitespace(self):
        s = sig1()
        assert parse_polynomial(s, "  x1 ^2* y+ z^2 ") \
            == parse_polynomial(s, "x1^2*y + z^2")

    def test_parse_errors_carry_position(self):
        s = sig1()
        with pytest.raises(ParseError) as err:
            parse_polynomial(s, "x1^")
        assert err.value.position is not None
        with pytest.raises(ParseError):
            parse_polynomial(s, "")
        with pytest.raises(ParseError):
            parse_polynomial(s, "x1 + @")
        with pytest.raises(ParseError):
            parse_polynomial(s, "x9 + 1")   # outside signature
        with pytest.raises(ParseError):
            parse_polynomial(s, "x1^-2")


# a coefficient: a rational, or an element of Q(sqrt(d)) for the given d
def _coefficients(d):
    small = st.fractions(min_value=-50, max_value=50, max_denominator=20)
    if d is None:
        return small.filter(bool)
    return st.one_of(small.filter(bool),
                     st.builds(quadext, small, small.filter(bool), st.just(d)))


@st.composite
def _polynomials(draw):
    sig = RingSignature(draw(st.integers(1, 3)), has_w=draw(st.booleans()))
    coeffs = _coefficients(draw(st.sampled_from(
        [None, Fraction(2), Fraction(3), Fraction(-1), Fraction(1, 3)])))
    exps = st.tuples(*[st.integers(0, 4)] * sig.nvars)
    return from_terms(
        sig, draw(st.dictionaries(exps, coeffs, max_size=6)))


# pieces of the grammar and junk around them
_PIECES = ["x1", "x2", "x3", "x4", "x01", "x1y", "yz", "y", "z", "w", "x",
           "2", "1/2", "1/0", "0", "12", "(0+1*sqrt(2))", "(1-2*sqrt(3))",
           "(1/2 3)", "(1 /2)", "(x1)", "((", "))", "(", ")", "sqrt", "sq rt",
           "^", "^-", "^2", "^2/3", "*", "+", "-", " ", "\t", "/", "_", "ä",
           "\u0663", "\u00b2", "@", ".", "9" * 4400]
_junk_texts = st.lists(st.sampled_from(_PIECES), max_size=12).map("".join)


class TestReaderLanguage:
    @settings(deadline=None, max_examples=200)
    @given(_polynomials(), st.randoms(use_true_random=False))
    def test_roundtrip_with_optional_spaces(self, p, rng):
        text = str(p)
        spaced = re.sub(r"[-+*^]", lambda m: rng.choice(["", " "]) + m[0]
                        + rng.choice(["", " "]), text)
        assert parse_polynomial(p.sig, text) == p
        assert parse_polynomial(p.sig, spaced) == p

    @settings(deadline=None, max_examples=500)
    @given(st.integers(1, 3), st.booleans(), _junk_texts)
    def test_any_text_parses_or_raises_parse_error(self, n, has_w, text):
        sig = RingSignature(n, has_w)
        try:
            p = parse_polynomial(sig, text)
        except ParseError as err:
            assert err.position is not None
        except MixedDiscriminant:
            # well-formed, but its monomials take coefficients from two fields
            assert "sqrt(2)" in text and "sqrt(3)" in text
        else:
            assert isinstance(p, Polynomial) and p.sig == sig

    @settings(deadline=None, max_examples=300)
    @given(st.dictionaries(st.sampled_from(["x1", "x2", "y", "z", "w", "v"]),
                           _junk_texts | st.sampled_from(["x1", "y + 1"]),
                           max_size=5))
    def test_map_reader_ends_in_package_error(self, images):
        try:
            RingEndomorphism.from_json(json.dumps(images))
        except StablyDistinctError:
            pass


class TestUnivariate:
    def test_normalization(self):
        q = UnivariatePoly([1, 2, 0, 0])
        assert q.degree() == 1 and q.coeffs == (1, 2)
        assert UnivariatePoly([0, 0]).coeffs == ()

    def test_coefficients_become_field_elements(self):
        half = Fraction(1, 2)
        q = UnivariatePoly([half, 3, True, "1/3", quadext(0, 1, 2)])
        assert q.coeffs[0] is half
        assert [type(c) for c in q.coeffs[1:4]] == [Fraction] * 3
        assert q.coeffs[1:4] == (3, 1, Fraction(1, 3))
        assert q.coeffs[4] == quadext(0, 1, 2)
        with pytest.raises(ParseError, match="cannot coerce 1.5"):
            UnivariatePoly([1, 1.5])

    def test_eval_horner(self):
        q = UnivariatePoly([-1, 0, 1])          # t^2 - 1
        assert q(3) == 8
        assert q(Fraction(1, 2)) == Fraction(-3, 4)
        assert q(3) == dense_eval([-1, 0, 1], 3)

    def test_from_csv(self):
        assert UnivariatePoly.from_csv("-1,1") == UnivariatePoly([-1, 1])
        assert UnivariatePoly.from_csv("1/2, 0, 2") \
            == UnivariatePoly([Fraction(1, 2), 0, 2])
        with pytest.raises(ParseError):
            UnivariatePoly.from_csv("")

    def test_str(self):
        assert str(UnivariatePoly([-1, 1])) == "t - 1"
        assert str(UnivariatePoly([1, -2, 1])) == "t^2 - 2*t + 1"
        assert str(UnivariatePoly()) == "0"

    def test_subs_into(self):
        s = sig1()
        q = UnivariatePoly([1, 0, 1])           # 1 + t^2
        zsq = parse_polynomial(s, "z^2")
        assert q.subs_into(zsq) == parse_polynomial(s, "z^4 + 1")


class TestQuotients:
    def test_difference_quotient_examples(self):
        assert difference_quotient(UnivariatePoly([-1, 1]), 1) \
            == UnivariatePoly([1])
        assert difference_quotient(UnivariatePoly([1, -2, 1]), 1) \
            == UnivariatePoly([-1, 1])
        assert difference_quotient(UnivariatePoly([7]), 3) == UnivariatePoly()

    def test_difference_quotient_against_oracle(self):
        rng = random.Random(9)
        for _ in range(100):
            q = random_univariate(rng, 8)
            c = small_fraction(rng)
            g = difference_quotient(q, c)
            # oracle: long-divide q(t) - q(c) by (t - c)
            shifted = dense_sub(list(q.coeffs), [q(c)])
            quot, rem = dense_divmod(shifted, [-c, 1])
            assert rem == []
            assert list(g.coeffs) == quot
            # defining identity, exactly
            assert dense_sub(list(q.coeffs),
                             dense_mul(list(g.coeffs), [-c, 1])) \
                == dense_trim([q(c)])

    # r = difference_quotient(q, 0) / 2 is the r of the stable pair, which
    # builds it as q's coefficients shifted down one place and halved
    def test_half_t_quotient_examples(self):
        assert difference_quotient(UnivariatePoly([-1, 1]), 0) \
            == UnivariatePoly([1])
        assert difference_quotient(UnivariatePoly([1, -2, 1]), 0) \
            == UnivariatePoly([-2, 1])
        assert difference_quotient(UnivariatePoly([5]), 0) == UnivariatePoly()

    def test_half_t_quotient_identity(self):
        rng = random.Random(10)
        for _ in range(100):
            q = random_univariate(rng, 8)
            g = difference_quotient(q, 0)
            assert g == UnivariatePoly(q.coeffs[1:])
            assert dense_sub(list(q.coeffs),
                             dense_mul([0, 1], list(g.coeffs))) \
                == dense_trim([q(Fraction(0))])
