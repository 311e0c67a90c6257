"""Truncated power series and the analytic change of coordinates.

Over the complex numbers the member with constant q = 1 can be carried
onto the level set of the q = 0 member by scaling y and z with
exponentials of the x-monomial u = x^[1] — a coordinate change that is
holomorphic but not polynomial.  This module realizes those exponentials
as formal power series truncated by total x-degree and verifies the
defining identities hold at every retained order.

A :class:`TruncatedSeries` keeps polynomial coefficients exactly; only
monomials whose total degree in the x-variables exceeds the truncation
order are dropped.  Degrees in y and z are never truncated, so equality
of two series at order N means the underlying identity holds through
x-degree N with nothing rounded.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .certificate import Certificate, CheckResult
from .errors import NonzeroConstantTerm, SignatureMismatch
from .polyring import Polynomial, RingSignature, x_power_bracket


def _x_degree(sig: RingSignature, exps) -> int:
    return sum(exps[:sig.n])


class TruncatedSeries:
    """A polynomial kept exactly up to a total x-degree cutoff."""

    __slots__ = ("sig", "order", "terms")

    def __init__(self, sig: RingSignature, order: int, terms=None):
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        self.sig = sig
        self.order = order
        kept = {}
        for exps, coeff in (terms or {}).items():
            if coeff and _x_degree(sig, exps) <= order:
                kept[exps] = coeff
        self.terms = kept

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, sig: RingSignature, order: int) -> "TruncatedSeries":
        return cls(sig, order, {})

    @classmethod
    def constant(cls, sig: RingSignature, order: int,
                 value) -> "TruncatedSeries":
        return cls.from_polynomial(Polynomial.constant(sig, value), order)

    @classmethod
    def from_polynomial(cls, p: Polynomial,
                        order: int) -> "TruncatedSeries":
        return cls(p.sig, order, p.terms)

    # -- views -------------------------------------------------------------

    def to_polynomial(self) -> Polynomial:
        return Polynomial(self.sig, dict(self.terms))

    def is_zero(self) -> bool:
        return not self.terms

    def truncate(self, new_order: int) -> "TruncatedSeries":
        if new_order > self.order:
            raise ValueError(
                f"cannot raise truncation order from {self.order} to "
                f"{new_order}; the dropped coefficients are gone")
        return TruncatedSeries(self.sig, new_order, self.terms)

    def x_slice(self, degree: int) -> Polynomial:
        """The part of the series with total x-degree exactly ``degree``."""
        picked = {e: c for e, c in self.terms.items()
                  if _x_degree(self.sig, e) == degree}
        return Polynomial(self.sig, picked)

    def first_mismatch_x_degree(self, other: "TruncatedSeries"):
        """Smallest x-degree where the two series differ, or None."""
        self._require_compatible(other)
        diff = self - other
        if diff.is_zero():
            return None
        return min(_x_degree(self.sig, e) for e in diff.terms)

    # -- arithmetic --------------------------------------------------------

    def _require_compatible(self, other: "TruncatedSeries"):
        if self.sig != other.sig:
            raise SignatureMismatch(
                f"series signatures differ: {self.sig} vs {other.sig}")
        if self.order != other.order:
            raise ValueError(
                f"series truncation orders differ: {self.order} vs "
                f"{other.order}")

    def _lift(self, other) -> Polynomial:
        """A series, polynomial or scalar operand as a polynomial."""
        if isinstance(other, TruncatedSeries):
            self._require_compatible(other)
            return Polynomial(other.sig, other.terms)
        if isinstance(other, Polynomial):
            if other.sig != self.sig:
                raise SignatureMismatch(
                    "polynomial signature differs from series signature")
            return other
        return Polynomial.constant(self.sig, other)

    def _capped(self, p: Polynomial) -> "TruncatedSeries":
        return TruncatedSeries(self.sig, self.order, p.terms)

    def __add__(self, other):
        return self._capped(self.to_polynomial() + self._lift(other))

    __radd__ = __add__

    def __neg__(self):
        return self._capped(-self.to_polynomial())

    def __sub__(self, other):
        return self._capped(self.to_polynomial() - self._lift(other))

    def __rsub__(self, other):
        return self._capped(self._lift(other) - self.to_polynomial())

    def __mul__(self, other):
        return self._capped(self.to_polynomial() * self._lift(other))

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, TruncatedSeries):
            return (self.sig == other.sig and self.order == other.order
                    and self.terms == other.terms)
        return NotImplemented

    def __hash__(self):
        return hash((self.sig, self.order,
                     frozenset(self.terms.items())))

    def __str__(self):
        body = str(self.to_polynomial())
        return f"{body} + O(x-degree {self.order + 1})"

    def __repr__(self):
        return f"TruncatedSeries(order={self.order}, {self.to_polynomial()!r})"


def _series_argument(u, order: int) -> TruncatedSeries:
    if isinstance(u, Polynomial):
        u = TruncatedSeries.from_polynomial(u, order)
    elif isinstance(u, TruncatedSeries):
        u = u.truncate(order) if u.order > order else u
        if u.order != order:
            raise ValueError(
                f"argument truncated at order {u.order}, need {order}")
    else:
        raise TypeError(f"expected a polynomial or series, got {type(u)}")
    for exps in u.terms:
        if _x_degree(u.sig, exps) == 0:
            raise NonzeroConstantTerm(
                "series argument has a term of x-degree zero; the "
                "exponential sum would not terminate order by order")
    return u


def _power_series(u, order: int, coeff) -> TruncatedSeries:
    """Sum_m coeff(m) * u^m truncated at the given total x-degree.

    Every monomial of ``u`` must have x-degree at least one: then u^m has
    x-degree at least m, the sum is finite at each retained order, and
    the result is exact through x-degree ``order``.
    """
    u = _series_argument(u, order)
    result = TruncatedSeries.constant(u.sig, order, coeff(0))
    power = TruncatedSeries.constant(u.sig, order, 1)
    for m in range(1, order + 1):
        power = power * u
        if power.is_zero():
            break
        result = result + power * coeff(m)
    return result


def exp_series(u, order: int) -> TruncatedSeries:
    """exp(u) = Sum_m u^m / m!, truncated as in :func:`_power_series`."""
    return _power_series(u, order, lambda m: Fraction(1, math.factorial(m)))


def second_tail_series(u, order: int) -> TruncatedSeries:
    """The series Sum_m (-1)^m u^m / (m+2)!, the degree-two tail of exp.

    Satisfies u^2 * tail = exp(-u) - 1 + u exactly at every order; it is
    the correction term making the transported y-coordinate polynomial
    in y.
    """
    return _power_series(u, order, lambda m: Fraction(
        (-1) ** m, math.factorial(m + 2)))


def _record_series(cert: Certificate, name: str, lhs: TruncatedSeries,
                   rhs: TruncatedSeries) -> CheckResult:
    """Record series equality, reporting the first failing x-degree."""
    check = cert.record(name, lhs.to_polynomial(), rhs.to_polynomial())
    mismatch = lhs.first_mismatch_x_degree(rhs)
    if mismatch is None:
        check.details = (f"agrees through x-degree {lhs.order}")
    else:
        check.details = f"first differing x-degree: {mismatch}"
    return check


def _series_generators(sig: RingSignature, order: int):
    """y, z and u = x^[1] as series truncated at ``order``."""
    return tuple(TruncatedSeries.from_polynomial(p, order) for p in (
        Polynomial.variable(sig, "y"), Polynomial.variable(sig, "z"),
        x_power_bracket(sig, 1)))


def _coordinate_change(sig: RingSignature,
                       order: int) -> dict[str, TruncatedSeries]:
    """The series of the coordinate change y -> E*y - T, z -> gamma*z.

    E = exp(-u) is the y-scaling, gamma = exp(-u/2) the z-scaling and T
    the degree-two tail, all truncated at ``order``.
    """
    y, z, u = _series_generators(sig, order)
    e_fwd = exp_series(-u, order)
    gamma_fwd = exp_series(u * Fraction(-1, 2), order)
    tail = second_tail_series(u, order)
    return {"y-scaling": e_fwd, "z-scaling": gamma_fwd, "tail": tail,
            "y-image": e_fwd * y - tail, "z-image": gamma_fwd * z}


def verify_biholomorphism(n: int, order: int) -> Certificate:
    """Certify the exponential coordinate change order by order.

    With u = x^[1], E = exp(-u), gamma = exp(-u/2) and T the degree-two
    exponential tail, the map sending y to E*y - T and z to gamma*z
    carries x^[2]y + z^2 + x^[1] - 1 onto exactly E * (x^[2]y + z^2 - 1):
    a unit multiple of the q = 0 member's level set.  All identities are
    checked through total x-degree ``order`` (at least 2, so the first
    nontrivial corrections are visible), together with the inverse map
    round trips, which certify the change of coordinates is invertible
    in the same truncated sense.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if order < 2:
        raise ValueError(
            f"order must be at least 2 to see the first corrections, "
            f"got {order}")
    sig = RingSignature(n)
    y, z, u = _series_generators(sig, order)
    s2 = TruncatedSeries.from_polynomial(x_power_bracket(sig, 2), order)
    one = TruncatedSeries.constant(sig, order, 1)

    change = _coordinate_change(sig, order)
    e_fwd, gamma_fwd = change["y-scaling"], change["z-scaling"]
    tail, psi_y, psi_z = change["tail"], change["y-image"], change["z-image"]
    e_bwd = exp_series(u, order)
    gamma_bwd = exp_series(u * Fraction(1, 2), order)

    cert = Certificate(
        "an exponential (non-polynomial) change of coordinates carries "
        "the constant-q member onto a unit multiple of the q = 0 member, "
        "exactly at every truncation order",
        {"n": str(n), "order": str(order)})

    lhs = s2 * psi_y + psi_z * psi_z + u - one
    rhs = e_fwd * (s2 * y + z * z - one)
    _record_series(cert, "transported-member-factors", lhs, rhs)
    _record_series(cert, "z-scaling-squares-to-y-scaling",
                   gamma_fwd * gamma_fwd, e_fwd)
    _record_series(cert, "tail-solves-functional-equation",
                   u * u * tail, e_fwd - one + u)
    _record_series(cert, "y-scaling-inverts", e_fwd * e_bwd, one)
    _record_series(cert, "z-scaling-inverts", gamma_fwd * gamma_bwd, one)
    # inverse map: y back via exp(u), z back via exp(u/2)
    _record_series(cert, "round-trip-y",
                   e_bwd * psi_y + e_bwd * tail, y)
    _record_series(cert, "round-trip-z", gamma_bwd * psi_z, z)
    return cert


def truncation_coherence(n: int, high_order: int,
                         low_order: int) -> Certificate:
    """Certify that truncating a higher-order run reproduces a lower one.

    Every series entering :func:`verify_biholomorphism` is computed at
    ``high_order``, truncated down to ``low_order``, and compared with
    the same series computed natively at ``low_order``; agreement means
    the coefficients are stable under refinement — raising the order
    only appends new terms, it never revises old ones.
    """
    if low_order < 2 or high_order <= low_order:
        raise ValueError(
            f"need 2 <= low < high, got low={low_order} "
            f"high={high_order}")
    sig = RingSignature(n)
    high = _coordinate_change(sig, high_order)
    low = _coordinate_change(sig, low_order)
    cert = Certificate(
        "coefficients of the exponential coordinate change are stable "
        "under truncation-order refinement",
        {"n": str(n), "high_order": str(high_order),
         "low_order": str(low_order)})
    for name in high:
        _record_series(cert, f"stable-{name}",
                       high[name].truncate(low_order), low[name])
    return cert
