"""The polynomial kernel against the reference kernel in conftest.

Products of random polynomials, substitutions into them, and exact
divisions by one-term divisors, must give the same term dicts as the
plain term-pair loop, the term-by-term substitution and the
leading-term-scan division, on rational coefficients with denominators,
on coefficients in Q(sqrt(2)), on one-term operands and on results
whose terms cancel, whole parts included.  The kernel carries sqrt(2)
as one more variable s and lowers its results by s^2 = 2; the reference
multiplies field elements, so the two share no code for Q(sqrt(2)).
Operands from two quadratic fields raise MixedDiscriminant.  On
non-multiples both divisions raise NotDivisible with the same message.
A divisor with two or more terms is refused with a plain
StablyDistinctError.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from conftest import (reference_divide, reference_mul,
                      reference_substitute)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stably_distinct.errors import (MixedDiscriminant, NotDivisible,
                                    StablyDistinctError)
from stably_distinct.exactfield import QuadExt, quadext
from stably_distinct.polyring import Polynomial, RingSignature, exact_divide

SIG = RingSignature(2, has_w=True)

exponents = st.tuples(*[st.integers(0, 4)] * SIG.nvars)
rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
# b = 0 makes quadext return a Fraction, so these mix both kinds
sqrt2_scalars = st.builds(lambda a, b: quadext(a, b, 2), rationals, rationals)


CUTOFF_SIZES = [(2, 15), (2, 16), (4, 7), (4, 8), (5, 6), (6, 6)]


def term_dicts(coeffs, min_size=0, max_size=8):
    return st.dictionaries(exponents, coeffs, min_size=min_size,
                           max_size=max_size).map(
        lambda terms: {e: c for e, c in terms.items() if c})


def nonzero(coeffs, max_size=8):
    return term_dicts(coeffs, 1, max_size).filter(bool)


def poly(terms: dict) -> Polynomial:
    return Polynomial(SIG, terms)


def assert_product(a: dict, b: dict):
    got = (poly(a) * poly(b)).terms
    assert got == reference_mul(a, b)
    assert all(got.values())
    assert all(type(c) in (Fraction, QuadExt) for c in got.values())


def outcome(divide):
    try:
        return "quotient", divide()
    except NotDivisible as exc:
        return "not divisible", str(exc)


class TestProductMatchesReference:
    @settings(deadline=None)
    @given(term_dicts(rationals), term_dicts(rationals))
    def test_rational_coefficients(self, a, b):
        assert_product(a, b)

    @settings(deadline=None)
    @given(term_dicts(sqrt2_scalars), term_dicts(sqrt2_scalars))
    def test_sqrt2_coefficients(self, a, b):
        assert_product(a, b)

    @settings(deadline=None)
    @given(term_dicts(sqrt2_scalars, 1, 1), term_dicts(sqrt2_scalars))
    def test_one_term_operand(self, a, b):
        assert_product(a, b)
        assert_product(b, a)

    @pytest.mark.parametrize("coeffs", [rationals, sqrt2_scalars],
                             ids=["rational", "sqrt2"])
    @settings(deadline=None)
    @given(data=st.data())
    def test_cancelling_product(self, coeffs, data):
        a = data.draw(term_dicts(coeffs))
        b = data.draw(term_dicts(coeffs))
        # in (a + b) * (a - b) the cross terms cancel
        assert_product((poly(a) + poly(b)).terms, (poly(a) - poly(b)).terms)

    @pytest.mark.parametrize("sizes", CUTOFF_SIZES)
    @settings(deadline=None, max_examples=30)
    @given(data=st.data())
    def test_sizes_around_packed_cutoff(self, sizes, data):
        a, b = (data.draw(st.dictionaries(exponents, rationals.filter(bool),
                                          min_size=size, max_size=size))
                for size in sizes)
        assert_product(a, b)

    def test_large_exponents_do_not_carry(self):
        # exponent sums up to 256 need wider fields than either operand
        a = {(200, 0, 1, 0, 0): Fraction(1, 3), (0, 255, 0, 0, 9): Fraction(2)}
        a.update({(k, 0, 0, k, 0): Fraction(1, k + 2) for k in range(1, 7)})
        b = {(56, 1, 0, 0, 0): Fraction(-3, 7), (0, 1, 0, 0, 0): Fraction(5),
             (0, 0, 0, 1, 0): Fraction(7), (1, 1, 1, 1, 1): Fraction(-1, 5)}
        assert_product(a, b)


X1 = (1, 0, 0, 0, 0)
ONE = (0, 0, 0, 0, 0)


class TestSurdSplit:
    """Q(sqrt(2)) products whose rational or surd part cancels once the
    lifted result is lowered by s^2 = 2, and mixed rational operands."""

    def test_surd_part_cancels(self):
        # (1 + sqrt(2)*x1)(1 - sqrt(2)*x1) = 1 - 2*x1^2
        a = {ONE: Fraction(1), X1: quadext(0, 1, 2)}
        b = {ONE: Fraction(1), X1: quadext(0, -1, 2)}
        assert_product(a, b)
        assert (poly(a) * poly(b)).terms == {ONE: Fraction(1),
                                             (2, 0, 0, 0, 0): Fraction(-2)}

    def test_rational_part_cancels(self):
        # (1 + sqrt(2)*x1)(sqrt(2) - 2*x1) = sqrt(2) - 2*sqrt(2)*x1^2
        a = {ONE: Fraction(1), X1: quadext(0, 1, 2)}
        b = {ONE: quadext(0, 1, 2), X1: Fraction(-2)}
        assert_product(a, b)
        assert (poly(a) * poly(b)).terms == {
            ONE: quadext(0, 1, 2), (2, 0, 0, 0, 0): quadext(0, -2, 2)}

    @settings(deadline=None)
    @given(term_dicts(sqrt2_scalars, 2), term_dicts(rationals, 2))
    def test_sqrt2_times_rational(self, a, b):
        assume(len(a) >= 2 and len(b) >= 2)
        assume(any(isinstance(c, QuadExt) for c in a.values()))
        assert_product(a, b)
        assert_product(b, a)

    @pytest.mark.parametrize("sizes", [(2, 2), (1, 2), (2, 1), (1, 1)],
                             ids=["multi-term", "one-term-left",
                                  "one-term-right", "one-term-both"])
    def test_two_fields_refused(self, sizes):
        a = {ONE: quadext(0, 1, 2), X1: Fraction(1)}
        b = {ONE: quadext(1, 1, 3), X1: quadext(0, 1, 3)}
        a, b = (dict(list(terms.items())[:size])
                for terms, size in zip((a, b), sizes))
        with pytest.raises(MixedDiscriminant, match="cannot mix"):
            poly(a) * poly(b)
        with pytest.raises(MixedDiscriminant, match="cannot mix"):
            poly(b) * poly(a)


small_exponents = st.tuples(*[st.integers(0, 2)] * SIG.nvars)


def small_term_dicts(coeffs, min_size=0, max_size=4):
    return st.dictionaries(small_exponents, coeffs, min_size=min_size,
                           max_size=max_size).map(
        lambda terms: {e: c for e, c in terms.items() if c})


def image_maps(coeffs, min_size=0):
    """{variable index: image}, an image being a scalar (zero included)
    or a term dict (the empty one included)."""
    images = st.one_of(coeffs, small_term_dicts(coeffs, max_size=3))
    return st.dictionaries(st.integers(0, SIG.nvars - 1), images,
                           min_size=min_size, max_size=3)


def image_terms(image) -> dict:
    if isinstance(image, dict):
        return image
    return {ONE: image} if image else {}


def assert_substitution(terms: dict, images: dict):
    got = poly(terms).substitute({
        SIG.names[i]: poly(image) if isinstance(image, dict) else image
        for i, image in images.items()}).terms
    assert got == reference_substitute(
        terms, {i: image_terms(image) for i, image in images.items()})
    assert all(got.values())
    assert all(type(c) in (Fraction, QuadExt) for c in got.values())


# (source coefficients, image coefficients)
SUBSTITUTION_FIELDS = pytest.mark.parametrize(
    "source, image", [(rationals, rationals), (sqrt2_scalars, sqrt2_scalars),
                      (rationals, sqrt2_scalars)],
    ids=["rational", "sqrt2", "rational-into-sqrt2"])


class TestSubstitutionMatchesReference:
    @SUBSTITUTION_FIELDS
    @settings(deadline=None)
    @given(data=st.data())
    def test_multi_term_source(self, source, image, data):
        assert_substitution(data.draw(small_term_dicts(source, 2, 6)),
                            data.draw(image_maps(image)))

    @SUBSTITUTION_FIELDS
    @settings(deadline=None)
    @given(data=st.data())
    def test_one_term_source(self, source, image, data):
        assert_substitution(data.draw(small_term_dicts(source, 1, 1)),
                            data.draw(image_maps(image)))

    @SUBSTITUTION_FIELDS
    @settings(deadline=None)
    @given(data=st.data())
    def test_terms_substituting_several_variables(self, source, image, data):
        terms = data.draw(small_term_dicts(source, 1, 6))
        images = data.draw(image_maps(image, min_size=2))
        assume(any(sum(1 for i in images if exps[i]) >= 2 for exps in terms))
        assert_substitution(terms, images)

    @pytest.mark.parametrize("coeffs", [rationals, sqrt2_scalars],
                             ids=["rational", "sqrt2"])
    @settings(deadline=None)
    @given(data=st.data())
    def test_result_cancels_to_zero(self, coeffs, data):
        # y and z share an image, so a minus a with y and z swapped maps to 0
        a = data.draw(small_term_dicts(coeffs, 1))
        image = data.draw(small_term_dicts(coeffs, max_size=3))
        y, z = SIG.index("y"), SIG.index("z")

        def swap(exps):
            exps = list(exps)
            exps[y], exps[z] = exps[z], exps[y]
            return tuple(exps)

        terms = (poly(a) - poly({swap(e): c for e, c in a.items()})).terms
        assert_substitution(terms, {y: image, z: image})
        assert poly(terms).substitute({"y": poly(image),
                                       "z": poly(image)}).is_zero()

    # with every coefficient scaled by 1 + sqrt(2), sqrt(2) is carried as
    # a variable s, and z^8 in the source lifts s to degree 9
    @pytest.mark.parametrize("scale", [Fraction(1), quadext(1, 1, 2)],
                             ids=["rational", "sqrt2"])
    def test_large_exponents_do_not_carry(self, scale):
        # x1^490 in the result needs a 9-bit field; no operand goes past
        # x1^60, and the eighth power of z's image is what reaches 490
        y, z = SIG.index("y"), SIG.index("z")
        terms = {(10, 0, 0, 8, 0): Fraction(1, 3),
                 (0, 0, 1, 1, 9): Fraction(2),
                 (1, 1, 1, 1, 1): Fraction(-1, 5)}
        images = {z: {(60, 1, 0, 0, 0): Fraction(-3, 7),
                      (0, 0, 0, 0, 6): Fraction(5), ONE: Fraction(7)},
                  y: {(30, 0, 0, 0, 0): Fraction(2, 9),
                      (0, 0, 1, 0, 1): Fraction(1)}}
        assert_substitution(
            {e: c * scale for e, c in terms.items()},
            {j: {e: c * scale for e, c in image.items()}
             for j, image in images.items()})


class TestMultiTermDivisorRefused:
    @settings(deadline=None)
    @given(st.sampled_from([rationals, sqrt2_scalars]).flatmap(
        lambda coeffs: st.tuples(term_dicts(coeffs), nonzero(coeffs),
                                 term_dicts(coeffs, max_size=3))),
           st.booleans())
    def test_plain_error_on_multiples_and_non_multiples(self, operands,
                                                        perturb):
        p, d, r = operands
        assume(len(d) >= 2)
        dividend = poly(p) * poly(d) + poly(r if perturb else {})
        with pytest.raises(StablyDistinctError,
                           match="not one with %d terms" % len(d)) as exc:
            exact_divide(dividend, poly(d))
        assert not isinstance(exc.value, NotDivisible)


# one-term divisors and factors: unit, -1, rational with a denominator,
# Q(sqrt(2)), at any exponent or at the all-zero exponent (a constant)
one_term_coeffs = st.one_of(
    st.sampled_from([Fraction(1), Fraction(-1), Fraction(3, 7),
                     Fraction(-5, 2)]),
    sqrt2_scalars.filter(bool))
one_terms = st.builds(lambda exps, coeff: {exps: coeff},
                      st.one_of(st.just((0,) * SIG.nvars), exponents),
                      one_term_coeffs)


class TestOneTermPaths:
    @settings(deadline=None)
    @given(term_dicts(sqrt2_scalars), one_terms)
    def test_exact_multiple(self, p, m):
        product = poly(p) * poly(m)
        got = exact_divide(product, poly(m)).terms
        assert got == p
        assert got == reference_divide(SIG, product.terms, m)

    @settings(deadline=None)
    @given(term_dicts(sqrt2_scalars), one_terms,
           term_dicts(sqrt2_scalars, max_size=4))
    def test_same_outcome_on_perturbed_multiples(self, p, m, r):
        dividend = poly(p) * poly(m) + poly(r)
        expected = outcome(lambda: reference_divide(SIG, dividend.terms, m))
        got = outcome(lambda: exact_divide(dividend, poly(m)).terms)
        assert got == expected

    def test_not_divisible_names_the_largest_bad_term(self):
        # x1^3*z and 3*z^2 are not multiples of 2*x1*y; the graded-lex
        # larger one is named, with its coefficient in the dividend
        m = {(1, 0, 1, 0, 0): Fraction(2)}
        dividend = {(0, 0, 0, 2, 0): Fraction(3), (2, 0, 3, 0, 0): Fraction(4),
                    (3, 0, 0, 1, 0): Fraction(-1, 2)}
        message = "remainder has leading term -1/2*x1^3*z"
        assert outcome(lambda: reference_divide(SIG, dividend, m)) == \
            ("not divisible", message)
        assert outcome(lambda: exact_divide(poly(dividend), poly(m))) == \
            ("not divisible", message)

    @settings(deadline=None)
    @given(exponents, st.sampled_from([Fraction(1), Fraction(-1)]),
           term_dicts(sqrt2_scalars))
    def test_unit_and_minus_unit_products(self, exps, coeff, b):
        a = {exps: coeff}
        assert_product(a, b)
        assert_product(b, a)
        if coeff == 1:
            # a unit factor reuses the other side's coefficients
            got = (poly(a) * poly(b)).terms.values()
            assert all(c is d for c, d in zip(got, b.values()))
