from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stably_distinct import exactfield
from stably_distinct.errors import (DivisionByZero, MixedDiscriminant,
                                    NotASquare, ParseError)
from stably_distinct.exactfield import (QuadExt, int_nth_root,
                                        is_rational_square, parse_scalar,
                                        quadext, rational, rational_nth_root,
                                        scalar_to_text, sqrt_in_field)

rationals = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                         max_denominator=10 ** 4)
nonzero_rationals = rationals.filter(lambda x: x != 0)


class TestRational:
    def test_basic(self):
        assert rational(1, 2) + rational(1, 3) == Fraction(5, 6)
        assert rational("7/3") == Fraction(7, 3)
        assert rational("-4") == -4

    def test_canonical_form(self):
        r = rational(2, -4)
        assert r.numerator == -1 and r.denominator == 2

    def test_parse_rejects_garbage(self):
        with pytest.raises(ParseError):
            rational("1.5")
        with pytest.raises(ParseError):
            rational("3/0")

    @pytest.mark.parametrize("args, error", [
        ((1, 0), DivisionByZero),
        ((Fraction(1, 2), 0), DivisionByZero),
        (("3/0",), ParseError)])
    def test_zero_denominator(self, args, error):
        with pytest.raises(error):
            rational(*args)

    @given(nonzero_rationals)
    def test_inverse_law(self, a):
        assert a * (1 / a) == 1


class TestRoots:
    def test_nth_root_examples(self):
        assert rational_nth_root(Fraction(27, 8), 3) == Fraction(3, 2)
        assert rational_nth_root(Fraction(-27), 3) == -3
        assert rational_nth_root(Fraction(2), 2) is None
        assert rational_nth_root(Fraction(-4), 2) is None
        assert rational_nth_root(Fraction(0), 5) == 0

    def test_large_perfect_power(self):
        base = 10 ** 6 + 3
        assert rational_nth_root(Fraction(base ** 5), 5) == base
        assert rational_nth_root(Fraction(base ** 5 + 1), 5) is None

    @given(st.integers(min_value=2, max_value=10 ** 200 - 1),
           st.integers(min_value=2, max_value=7))
    def test_int_root_of_huge_powers(self, b, n):
        # no float guess: these powers are far above 1e308
        assert int_nth_root(b ** n, n) == b
        assert int_nth_root(b ** n - 1, n) is None
        assert int_nth_root(b ** n + 1, n) is None

    @given(rationals, st.integers(min_value=1, max_value=6))
    def test_root_roundtrip(self, x, n):
        if x < 0 and n % 2 == 0:
            return
        r = rational_nth_root(x ** n, n)
        assert r is not None and r ** n == x ** n


class TestQuadExt:
    def test_factory_collapses_rational_cases(self):
        assert quadext(3, 0, 2) == Fraction(3)
        assert quadext(1, 2, 4) == 5          # sqrt(4) = 2
        assert quadext(0, Fraction(3, 2), Fraction(9, 4)) == Fraction(9, 4)
        assert isinstance(quadext(0, 1, 2), QuadExt)

    def test_arithmetic(self):
        r2 = quadext(0, 1, 2)
        assert r2 * r2 == 2
        assert (1 + r2) * (1 - r2) == -1
        assert (r2 + r2) / 2 == r2
        assert r2 ** 0 == 1
        assert r2 ** -2 == Fraction(1, 2)

    def test_imaginary_unit(self):
        i = quadext(0, 1, -1)
        assert i * i == -1
        assert i ** 4 == 1

    def test_inverse(self):
        v = quadext(Fraction(1, 2), Fraction(-1, 3), 5)
        assert v * v.inverse() == 1
        assert 1 / v == v.inverse()

    def test_mixed_discriminant_rejected(self):
        with pytest.raises(MixedDiscriminant):
            quadext(0, 1, 2) + quadext(0, 1, 3)

    def test_never_equal_to_rational(self):
        assert quadext(1, 1, 2) != Fraction(1)
        assert bool(quadext(0, 1, 2))

    @given(rationals, nonzero_rationals)
    def test_field_laws_in_sqrt2(self, a, b):
        v = quadext(a, b, 2)
        assert isinstance(v, QuadExt)
        assert v * v.inverse() == 1
        assert v - v == 0
        assert (v + 1) - 1 == v


non_squares = st.sampled_from([Fraction(2), Fraction(3), Fraction(-1),
                               Fraction(1, 3), Fraction(-7, 2)])


class TestQuadExtArithmetic:
    """Each operation against quadext() on the components it computes."""

    @given(rationals, nonzero_rationals, rationals, rationals, non_squares)
    def test_operations_match_the_checking_factory(self, a, b, c, e, d):
        x, y = quadext(a, b, d), quadext(c, e, d)
        assert isinstance(x, QuadExt)
        expected = [
            (x + y, quadext(a + c, b + e, d)),
            (x - y, quadext(a - c, b - e, d)),
            (y - x, quadext(c - a, e - b, d)),
            (c - x, quadext(c - a, -b, d)),
            (x * y, quadext(a * c + b * e * d, a * e + b * c, d)),
            (c * x, quadext(a * c, b * c, d)),
            (-x, quadext(-a, -b, d)),
        ]
        n = a * a - b * b * d
        expected.append((1 / x, quadext(a / n, -b / n, d)))
        expected.append((y / x, quadext((c * a - e * b * d) / n,
                                        (e * a - c * b) / n, d)))
        if y != 0:
            m = c * c - e * e * d
            expected.append((x / y, quadext((a * c - b * e * d) / m,
                                            (b * c - a * e) / m, d)))
        for got, want in expected:
            assert got == want
            assert type(got) is type(want)
            if isinstance(got, QuadExt):
                assert got.b != 0

    def test_arithmetic_skips_the_square_test(self, monkeypatch):
        calls = []
        root = exactfield.rational_nth_root

        def counting_root(*args):
            calls.append(args)
            return root(*args)

        x = quadext(1, 1, 2)
        y = quadext(Fraction(1, 2), -3, 2)
        xy = quadext(Fraction(-11, 2), Fraction(-5, 2), 2)
        monkeypatch.setattr(exactfield, "rational_nth_root", counting_root)
        assert x * y == xy
        assert x * x - 2 * x == 1
        assert (x + y) / y - x / y == 1
        assert 3 / x + x ** 3 != 0
        assert calls == []


class TestSqrtInField:
    def test_rational_squares(self):
        assert sqrt_in_field(Fraction(1, 4)) == Fraction(1, 2)
        assert sqrt_in_field(Fraction(0)) == 0
        assert sqrt_in_field(9) == 3

    def test_rational_nonsquare_raises(self):
        with pytest.raises(NotASquare):
            sqrt_in_field(Fraction(3))

    def test_root_in_ambient_extension(self):
        r = sqrt_in_field(Fraction(2), d=2)
        assert r == quadext(0, 1, 2)
        r = sqrt_in_field(Fraction(8), d=2)
        assert r * r == 8
        with pytest.raises(NotASquare):
            sqrt_in_field(Fraction(3), d=2)

    def test_negative_discriminant(self):
        i = sqrt_in_field(Fraction(-1), d=-1)
        assert i * i == -1

    def test_quadext_square_lands_in_field(self):
        v = quadext(1, 1, 2)            # (1 + sqrt(2))^2 = 3 + 2*sqrt(2)
        sq = v * v
        r = sqrt_in_field(sq)
        assert r * r == sq

    def test_quadext_nonsquare(self):
        with pytest.raises(NotASquare):
            sqrt_in_field(quadext(0, 1, 2))     # sqrt(sqrt(2)) needs a tower
        with pytest.raises(NotASquare):
            sqrt_in_field(quadext(0, Fraction(1, 2), 2))  # sqrt(2)/2 in Q(sqrt2)

    def test_thousand_random_square_roundtrips(self):
        rng = random.Random(7)
        for _ in range(1000):
            num = rng.randint(-50, 50)
            den = rng.randint(1, 50)
            if rng.random() < 0.5:
                v = Fraction(num, den)
            else:
                v = quadext(Fraction(num, den),
                            Fraction(rng.randint(-9, 9), rng.randint(1, 9)), 3)
            sq = v * v
            root = sqrt_in_field(sq, d=3)
            assert root * root == sq

    def test_is_rational_square(self):
        assert is_rational_square(Fraction(49, 64))
        assert not is_rational_square(Fraction(2))
        assert not is_rational_square(Fraction(-1))


class TestTextForm:
    def test_print(self):
        assert scalar_to_text(Fraction(-5, 6)) == "-5/6"
        assert scalar_to_text(quadext(Fraction(1, 2), Fraction(-1, 3), 2)) \
            == "1/2-1/3*sqrt(2)"
        assert scalar_to_text(quadext(0, 1, -1)) == "0+1*sqrt(-1)"

    def test_parse(self):
        assert parse_scalar("5/6") == Fraction(5, 6)
        assert parse_scalar("1/2-1/3*sqrt(2)") == quadext(
            Fraction(1, 2), Fraction(-1, 3), 2)
        assert parse_scalar("0+1*sqrt(-1)") == quadext(0, 1, -1)
        with pytest.raises(ParseError):
            parse_scalar("sqrt(2)+1")

    @given(rationals, rationals,
           st.sampled_from([2, 3, 5, -1, Fraction(1, 2), 7]))
    def test_roundtrip(self, a, b, d):
        v = quadext(a, b, d)
        assert parse_scalar(scalar_to_text(v)) == v
