"""The polynomial kernel against the reference kernel in conftest.

Products and exact divisions of random polynomials must give the same
term dicts as the plain term-pair loop and the leading-term-scan
division, on rational coefficients with denominators, on coefficients in
Q(sqrt(2)), on one-term operands and on products whose terms cancel.
On non-multiples both divisions raise NotDivisible with the same message.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from conftest import reference_divide, reference_mul
from hypothesis import given, settings
from hypothesis import strategies as st

from stably_distinct.errors import NotDivisible
from stably_distinct.exactfield import QuadExt, quadext
from stably_distinct.polyring import Polynomial, RingSignature, exact_divide

SIG = RingSignature(2, has_w=True)

exponents = st.tuples(*[st.integers(0, 4)] * SIG.nvars)
rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
# b = 0 makes quadext return a Fraction, so these mix both kinds
sqrt2_scalars = st.builds(lambda a, b: quadext(a, b, 2), rationals, rationals)


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

    def test_large_exponents_do_not_carry(self):
        a = {(200, 0, 1, 0, 0): Fraction(1, 3), (0, 255, 0, 0, 9): Fraction(2)}
        b = {(56, 1, 0, 0, 0): Fraction(-3, 7), (0, 1, 0, 0, 0): Fraction(5)}
        assert_product(a, b)


class TestDivisionMatchesReference:
    @settings(deadline=None)
    @given(term_dicts(rationals), nonzero(rationals))
    def test_exact_multiple(self, p, d):
        product = poly(p) * poly(d)
        assert exact_divide(product, poly(d)) == poly(p)
        assert exact_divide(product, poly(d)).terms == \
            reference_divide(SIG, product.terms, d)

    @settings(deadline=None)
    @given(term_dicts(sqrt2_scalars), nonzero(sqrt2_scalars),
           term_dicts(sqrt2_scalars, max_size=3))
    def test_same_outcome_on_perturbed_multiples(self, p, d, r):
        dividend = poly(p) * poly(d) + poly(r)
        expected = outcome(lambda: reference_divide(SIG, dividend.terms, d))
        got = outcome(lambda: exact_divide(dividend, poly(d)).terms)
        assert got == expected
