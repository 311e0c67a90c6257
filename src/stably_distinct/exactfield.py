"""Exact scalar arithmetic: rationals and one quadratic extension Q(sqrt(d)).

Rationals are stdlib ``fractions.Fraction`` (already canonical: reduced,
positive denominator).  ``QuadExt`` represents a + b*sqrt(d) with a, b
rational and b != 0; the factory ``quadext`` collapses every degenerate
case (b == 0, or d a perfect square) back to a plain Fraction, so a
QuadExt instance is always genuinely irrational.  At most one
discriminant is in play per computation; mixing two raises
MixedDiscriminant.  Nested extensions are not supported: square roots
that would need a tower raise NotASquare.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Union

from .errors import DivisionByZero, MixedDiscriminant, NotASquare, ParseError

# Every coefficient in the package is one of these; ints are accepted at API
# boundaries and normalized via as_scalar().
Scalar = Union[Fraction, "QuadExt"]


def rational(num, den=1) -> Fraction:
    """Build a Fraction, accepting ints, Fractions or 'p/q' text.

    Anything else, a float or a QuadExt included, raises ParseError, as
    does text with a zero denominator; ``den`` = 0 raises DivisionByZero.
    """
    if isinstance(num, str):
        return _parse_rational_text(num)
    if type(num) is Fraction and den == 1:
        return num  # already canonical; Fraction(num) would rebuild it
    for value in (num, den):
        if not isinstance(value, (int, Fraction)):
            raise ParseError("not a rational: %r" % (value,))
    if not den:
        raise DivisionByZero("zero denominator in rational(%r, %r)"
                             % (num, den))
    return Fraction(num, den)


def int_nth_root(value: int, n: int):
    """Exact integer n-th root of value >= 0, or None if not a perfect power."""
    if value < 0:
        raise ValueError("value must be nonnegative")
    if value < 2 or n == 1:
        return value
    if n == 2:
        r = math.isqrt(value)
        return r if r * r == value else None
    # integer Newton iteration, descending from 2^ceil(bits/n) >= the root
    r = 1 << -(-value.bit_length() // n)
    while True:
        s = ((n - 1) * r + value // r ** (n - 1)) // n
        if s >= r:
            break
        r = s
    return r if r ** n == value else None


def rational_nth_root(x: Fraction, n: int):
    """Exact rational n-th root of x, or None.

    For even n only the nonnegative root is returned; for odd n the sign
    of x is preserved.  x is read by ``rational``.
    """
    x = rational(x)
    if n <= 0:
        raise ValueError("n must be positive")
    if x == 0:
        return Fraction(0)
    neg = x < 0
    if neg and n % 2 == 0:
        return None
    num = int_nth_root(abs(x.numerator), n)
    if num is None:
        return None
    den = int_nth_root(x.denominator, n)
    if den is None:
        return None
    root = Fraction(num, den)
    return -root if neg else root


def quadext(a, b, d):
    """a + b*sqrt(d) as a field element.

    Returns a plain Fraction whenever the value is rational (b == 0, or
    d a perfect rational square); otherwise a proper QuadExt.  a, b and
    d are read by ``rational``, so a float raises ParseError.
    """
    a, b, d = rational(a), rational(b), rational(d)
    if b == 0:
        return a
    if d == 0:
        return a
    s = rational_nth_root(d, 2) if d > 0 else None
    if s is not None:
        return a + b * s
    return QuadExt(a, b, d)


def _same_field(a: Fraction, b: Fraction, d: Fraction):
    """a + b*sqrt(d) for a d already known not to be a square.

    The arithmetic of QuadExt builds its results here: only b == 0 can
    make them rational, so the root test of ``quadext`` is skipped.
    """
    return QuadExt(a, b, d) if b else a


class QuadExt:
    """Irrational element a + b*sqrt(d) of Q(sqrt(d)), b != 0.

    Use the ``quadext`` factory rather than the constructor; the factory
    guarantees the irrationality invariant, which in turn guarantees the
    norm a^2 - b^2*d is nonzero (so inversion never divides by zero).
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a: Fraction, b: Fraction, d: Fraction):
        self.a = a
        self.b = b
        self.d = d

    # -- coercion ---------------------------------------------------------

    def _coerce(self, other):
        """Return (a, b) components of other in this element's field, or None."""
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise MixedDiscriminant(
                    "cannot mix sqrt(%s) with sqrt(%s)" % (self.d, other.d))
            return other.a, other.b
        if isinstance(other, (int, Fraction)):
            return Fraction(other), Fraction(0)
        return None

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        return _same_field(self.a + co[0], self.b + co[1], self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.d)

    def __sub__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        return _same_field(self.a - co[0], self.b - co[1], self.d)

    def __rsub__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        return _same_field(co[0] - self.a, co[1] - self.b, self.d)

    def __mul__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        oa, ob = co
        return _same_field(self.a * oa + self.b * ob * self.d,
                           self.a * ob + self.b * oa, self.d)

    __rmul__ = __mul__

    def inverse(self):
        n = self.a * self.a - self.b * self.b * self.d
        # n == 0 would mean sqrt(d) = +-a/b is rational, excluded by the
        # factory invariant; -b/n != 0, so the inverse is irrational too.
        return QuadExt(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        oa, ob = co
        if oa == 0 and ob == 0:
            raise DivisionByZero("division by zero scalar")
        if ob == 0:
            return QuadExt(self.a / oa, self.b / oa, self.d)
        return self * QuadExt(oa, ob, self.d).inverse()

    def __rtruediv__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        return co[0] * self.inverse()  # other is rational: co[1] == 0

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = Fraction(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- comparison / misc ------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            return (self.a, self.b, self.d) == (other.a, other.b, other.d)
        if isinstance(other, (int, Fraction)):
            return False  # proper QuadExt is never rational
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return True  # never zero

    def __repr__(self):
        return "QuadExt(%s, %s, %s)" % (self.a, self.b, self.d)

    def __str__(self):
        return scalar_to_text(self)


def sqrt_in_field(value, d=None):
    """Square root of value inside the current field, if one exists.

    For rational input: a rational root is preferred; failing that, a
    root b*sqrt(d) in the ambient Q(sqrt(d)) is tried when ``d`` is
    given.  For QuadExt input the root must again lie in Q(sqrt(d)).
    Raises NotASquare when no in-field root exists.
    """
    if isinstance(value, int):
        value = Fraction(value)
    if isinstance(value, Fraction):
        if value == 0:
            return Fraction(0)
        r = rational_nth_root(value, 2) if value > 0 else None
        if r is not None:
            return r
        if d is not None:
            d = Fraction(d)
            if d != 0:
                s = value / d
                if s > 0:
                    b = rational_nth_root(s, 2)
                    if b is not None:
                        return quadext(0, b, d)
        raise NotASquare("%s has no square root in the field" % value)
    if isinstance(value, QuadExt):
        # (u + v*sqrt(d))^2 = a + b*sqrt(d) needs u^2 + v^2 d = a, 2uv = b.
        a, b, dd = value.a, value.b, value.d
        norm = a * a - b * b * dd
        w = rational_nth_root(norm, 2) if norm > 0 else None
        if w is not None:
            for usq in ((a + w) / 2, (a - w) / 2):
                if usq > 0:
                    u = rational_nth_root(usq, 2)
                    if u is not None and u != 0:
                        v = b / (2 * u)
                        cand = quadext(u, v, dd)
                        if cand * cand == value:
                            return cand
        raise NotASquare("%s has no square root in Q(sqrt(%s))" % (value, dd))
    raise ParseError("not a field element: %r" % (value,))


# -- text form ------------------------------------------------------------

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")
_QUADEXT_RE = re.compile(
    r"^(?P<a>[+-]?\d+(?:/\d+)?)"
    r"(?P<sign>[+-])"
    r"(?P<b>\d+(?:/\d+)?)\*sqrt\((?P<d>[+-]?\d+(?:/\d+)?)\)$")


def _parse_rational_text(text: str) -> Fraction:
    t = text.strip()
    if not _RATIONAL_RE.match(t):
        raise ParseError("not a rational: %r" % text)
    try:
        return Fraction(t)
    except ZeroDivisionError:
        raise ParseError("zero denominator in %r" % text) from None
    except ValueError:  # more digits than int() converts
        raise ParseError("number too long: %d characters" % len(t)) from None


def parse_scalar(text: str):
    """Parse 'p/q' or 'a+b*sqrt(d)' (also 'a-b*sqrt(d)') text."""
    t = text.strip().replace(" ", "")
    if "sqrt" not in t:
        return _parse_rational_text(t)
    m = _QUADEXT_RE.match(t)
    if not m:
        raise ParseError("not a scalar: %r" % text)
    a, b, d = (_parse_rational_text(m.group(key)) for key in "abd")
    if m.group("sign") == "-":
        b = -b
    return quadext(a, b, d)


def scalar_to_text(value) -> str:
    """Canonical text form: 'p/q' for rationals, 'a+b*sqrt(d)' otherwise."""
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, QuadExt):
        sign = "+" if value.b > 0 else "-"
        return "%s%s%s*sqrt(%s)" % (value.a, sign, abs(value.b), value.d)
    raise ParseError("not a field element: %r" % (value,))


def as_scalar(value):
    """Coerce ints, Fractions, QuadExt or text into a field element.

    Anything else, a float included, raises ParseError.
    """
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, (Fraction, QuadExt)):
        return value
    if isinstance(value, str):
        return parse_scalar(value)
    raise ParseError("cannot coerce %r to a field element" % (value,))
