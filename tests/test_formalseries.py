"""Tests for series truncation and the exponential change."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stably_distinct.certificate import Certificate
from stably_distinct.errors import NonzeroConstantTerm, ParseError
from stably_distinct.formalseries import (_record_series, exp_series,
                                          second_tail_series,
                                          truncation_coherence,
                                          verify_biholomorphism)
from stably_distinct.polyring import (Polynomial, RingSignature,
                                      parse_polynomial, truncate,
                                      x_power_bracket)

from conftest import from_terms


class TestTruncate:
    def setup_method(self):
        self.sig = RingSignature(1)

    def test_truncation_drops_high_x_degree_only(self):
        p = parse_polynomial(self.sig, "x1^3 + x1*y^5 + y^7")
        assert truncate(p, 2) == parse_polynomial(self.sig, "x1*y^5 + y^7")

    def test_y_and_z_degrees_are_exact(self):
        assert truncate(parse_polynomial(self.sig, "y^9*z^9"), 0)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            truncate(parse_polynomial(self.sig, "x1"), -1)


_COEFFS = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@st.composite
def _polynomials_and_order(draw):
    """Two polynomials in x1..xn, y, z (n in 1..3) and an order in 0..6."""
    sig = RingSignature(draw(st.integers(1, 3)))
    exps = st.tuples(*[st.integers(0, 4)] * sig.nvars)
    a, b = (from_terms(sig, draw(st.dictionaries(
        exps, _COEFFS, max_size=6))) for _ in range(2))
    return a, b, draw(st.integers(0, 6))


@settings(deadline=None)
@given(_polynomials_and_order())
def test_truncate_is_a_ring_homomorphism(case):
    a, b, order = case
    ta, tb = truncate(a, order), truncate(b, order)
    assert truncate(a * b, order) == truncate(ta * tb, order)
    assert truncate(a + b, order) == ta + tb
    n = a.sig.n
    # a term is cut by its x-degree alone, whatever its y and z degrees
    assert ta.terms == {e: c for e, c in a.terms.items()
                        if sum(e[:n]) <= order}
    with pytest.raises(ValueError):
        truncate(a, -1 - order)


class TestExpSeries:
    def test_univariate_coefficients(self):
        sig = RingSignature(1)
        e = exp_series(x_power_bracket(sig, 1), 6)
        for m in range(7):
            expected = Fraction(1, math.factorial(m))
            assert e.coefficient((m, 0, 0)) == expected

    def test_exp_sum_rule(self):
        # exp(u)*exp(v) = exp(u+v) for commuting arguments
        sig = RingSignature(2)
        u = parse_polynomial(sig, "x1")
        v = parse_polynomial(sig, "x2*z")
        lhs = exp_series(u, 5) * exp_series(v, 5)
        assert truncate(lhs, 5) == exp_series(u + v, 5)

    def test_exp_of_negation_inverts(self):
        sig = RingSignature(2)
        u = parse_polynomial(sig, "x1*x2*y")
        product = exp_series(u, 6) * exp_series(-u, 6)
        assert truncate(product, 6) == Polynomial.constant(sig, 1)

    def test_rejects_x_degree_zero_terms(self):
        sig = RingSignature(1)
        with pytest.raises(NonzeroConstantTerm):
            exp_series(parse_polynomial(sig, "x1 + 1"), 4)
        with pytest.raises(NonzeroConstantTerm):
            # no constant term, but the z term still has x-degree zero
            exp_series(parse_polynomial(sig, "x1 + z"), 4)

    def test_rejects_a_non_polynomial_argument(self):
        with pytest.raises(ParseError):
            exp_series("x1", 4)

    def test_rejects_a_negative_order(self):
        with pytest.raises(ValueError):
            exp_series(x_power_bracket(RingSignature(1), 1), -1)

    def test_returns_a_polynomial(self):
        u = x_power_bracket(RingSignature(2), 1)
        assert isinstance(exp_series(u, 3), Polynomial)
        assert isinstance(second_tail_series(u, 3), Polynomial)

    def test_second_tail_matches_exp_tail(self):
        sig = RingSignature(1)
        u = x_power_bracket(sig, 1)
        tail = second_tail_series(u, 7)
        assert truncate(u * u * tail, 7) == exp_series(-u, 7) - 1 + u

    def test_second_tail_leading_coefficient(self):
        sig = RingSignature(1)
        tail = second_tail_series(x_power_bracket(sig, 1), 3)
        assert tail.coefficient((0, 0, 0)) == Fraction(1, 2)
        assert tail.coefficient((1, 0, 0)) == Fraction(-1, 6)


class TestVerifyBiholomorphism:
    @pytest.mark.parametrize("n,order", [(1, 8), (2, 6), (3, 4)])
    def test_passes(self, n, order):
        cert = verify_biholomorphism(n, order)
        assert cert.passed, [c.name for c in cert.failed_checks()]

    def test_check_names(self):
        names = {c.name for c in verify_biholomorphism(1, 4).checks}
        assert names == {
            "transported-member-factors",
            "z-scaling-squares-to-y-scaling",
            "tail-solves-functional-equation",
            "y-scaling-inverts", "z-scaling-inverts",
            "round-trip-y", "round-trip-z"}

    def test_details_report_agreement_depth(self):
        cert = verify_biholomorphism(1, 5)
        for check in cert.checks:
            assert "x-degree 5" in check.details

    def test_first_failing_degree_reported_on_mismatch(self):
        # corrupt one series by hand and confirm the reporting helper
        sig = RingSignature(1)
        good = exp_series(x_power_bracket(sig, 1), 5)
        bad = good + parse_polynomial(sig, "x1^3")
        cert = Certificate("corruption probe", {})
        check = _record_series(cert, "probe", good, bad, 5)
        assert not check.passed
        assert check.details == "first differing x-degree: 3"

    def test_record_series_truncates_both_sides(self):
        sig = RingSignature(1)
        a = parse_polynomial(sig, "1 + x1 + x1^2")
        b = parse_polynomial(sig, "1 + x1 + 2*x1^2 + x1^3")
        cert = Certificate("truncation probe", {})
        low = _record_series(cert, "low", a, b, 1)
        assert low.passed
        assert low.details == "agrees through x-degree 1"
        high = _record_series(cert, "high", a, b, 4)
        assert not high.passed
        assert high.details == "first differing x-degree: 2"
        # the recorded residual is that of the truncated sides
        assert high.residual == str(truncate(a - b, 4))
        assert [c.name for c in cert.checks] == ["low", "high"]

    def test_preconditions(self):
        with pytest.raises(ValueError):
            verify_biholomorphism(0, 4)
        with pytest.raises(ValueError):
            verify_biholomorphism(1, 1)

    @pytest.mark.parametrize("n", [2.7, True, "2"])
    def test_non_int_dimension_is_refused(self, n):
        with pytest.raises(ParseError):
            verify_biholomorphism(n, 4)

    @pytest.mark.parametrize("order", [4.5, 4.0, "4", True, None])
    def test_non_int_order_is_refused(self, order):
        with pytest.raises(ParseError, match="order must be an int"):
            verify_biholomorphism(1, order)

    def test_numeric_hooks_attached(self):
        from stably_distinct.certificate import run_schwartz_zippel
        cert = verify_biholomorphism(1, 4)
        added = run_schwartz_zippel(cert, random.Random(5), points=20)
        assert added == 7
        assert cert.passed


class TestTruncationCoherence:
    def test_coherent_six_to_eight(self):
        cert = truncation_coherence(1, 8, 6)
        assert cert.passed
        assert {c.name for c in cert.checks} == {
            "stable-y-scaling", "stable-z-scaling", "stable-tail",
            "stable-y-image", "stable-z-image"}

    def test_two_variables(self):
        assert truncation_coherence(2, 6, 4).passed

    def test_order_guard(self):
        with pytest.raises(ValueError):
            truncation_coherence(1, 6, 6)
        with pytest.raises(ValueError):
            truncation_coherence(1, 6, 1)

    @pytest.mark.parametrize("high, low", [(6.0, 4), (6, 4.0), ("6", 4),
                                           (6, True)])
    def test_non_int_orders_are_refused(self, high, low):
        with pytest.raises(ParseError, match="order must be an int"):
            truncation_coherence(1, high, low)
