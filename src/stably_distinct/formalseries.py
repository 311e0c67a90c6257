"""Power series of the analytic change of coordinates, as kernel polynomials.

Over the complex numbers the member with constant q = 1 can be carried
onto the level set of the q = 0 member by scaling y and z with
exponentials of the x-monomial u = x^[1] — a coordinate change that is
holomorphic but not polynomial.  This module realizes those exponentials
as power series truncated by total x-degree and verifies the defining
identities hold at every retained order.

A series is a plain :class:`Polynomial` with exact coefficients.  The
monomials of total x-degree above N span an ideal, so :func:`truncate`,
which drops them, is a ring homomorphism: truncating once, where two
sides are compared, gives the same polynomial as truncating after every
operation.  Degrees in y and z are never truncated, so equality of two
sides at order N means the underlying identity holds through x-degree N
with nothing rounded.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .certificate import Certificate, CheckResult
from .errors import NonzeroConstantTerm, ParseError
from .polyring import (Polynomial, RingSignature, check_dimension,
                       check_int, x_power_bracket)


def _x_degree(sig: RingSignature, exps) -> int:
    return sum(exps[:sig.n])


def truncate(p: Polynomial, order: int) -> Polynomial:
    """``p`` without its terms of total x-degree above ``order``."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    return Polynomial(p.sig, {e: c for e, c in p.terms.items()
                              if _x_degree(p.sig, e) <= order})


def _power_series(u, order: int, coeff) -> Polynomial:
    """Sum_m coeff(m) * u^m truncated at the given total x-degree.

    Every monomial of ``u`` must have x-degree at least one: then u^m has
    x-degree at least m, the sum is finite at each retained order, and
    the result is exact through x-degree ``order``.
    """
    if not isinstance(u, Polynomial):
        raise ParseError(f"expected a polynomial, got {type(u).__name__}")
    u = truncate(u, order)
    if any(_x_degree(u.sig, exps) == 0 for exps in u.terms):
        raise NonzeroConstantTerm(
            "series argument has a term of x-degree zero; the "
            "exponential sum would not terminate order by order")
    result = Polynomial.constant(u.sig, coeff(0))
    power = Polynomial.constant(u.sig, 1)
    for m in range(1, order + 1):
        power = truncate(power * u, order)
        if power.is_zero():
            break
        result = result + power * coeff(m)
    return result


def exp_series(u: Polynomial, order: int) -> Polynomial:
    """exp(u) = Sum_m u^m / m!, truncated as in :func:`_power_series`."""
    return _power_series(u, order, lambda m: Fraction(1, math.factorial(m)))


def second_tail_series(u: Polynomial, order: int) -> Polynomial:
    """The series Sum_m (-1)^m u^m / (m+2)!, the degree-two tail of exp.

    Satisfies u^2 * tail = exp(-u) - 1 + u exactly at every order; it is
    the correction term making the transported y-coordinate polynomial
    in y.
    """
    return _power_series(u, order, lambda m: Fraction(
        (-1) ** m, math.factorial(m + 2)))


def _record_series(cert: Certificate, name: str, lhs: Polynomial,
                   rhs: Polynomial, order: int) -> CheckResult:
    """Record equality through x-degree ``order``, reporting the first
    failing x-degree."""
    lhs, rhs = truncate(lhs, order), truncate(rhs, order)
    check = cert.record(name, lhs, rhs)
    if check.passed:
        check.details = f"agrees through x-degree {order}"
    else:
        mismatch = min(_x_degree(lhs.sig, e) for e in (lhs - rhs).terms)
        check.details = f"first differing x-degree: {mismatch}"
    return check


def _coordinate_change(sig: RingSignature,
                       order: int) -> dict[str, Polynomial]:
    """The series of the coordinate change y -> E*y - T, z -> gamma*z.

    E = exp(-u) is the y-scaling, gamma = exp(-u/2) the z-scaling and T
    the degree-two tail, all truncated at ``order``.
    """
    u = x_power_bracket(sig, 1)
    e_fwd = exp_series(-u, order)
    gamma_fwd = exp_series(u * Fraction(-1, 2), order)
    tail = second_tail_series(u, order)
    return {"y-scaling": e_fwd, "z-scaling": gamma_fwd, "tail": tail,
            "y-image": e_fwd * Polynomial.variable(sig, "y") - tail,
            "z-image": gamma_fwd * Polynomial.variable(sig, "z")}


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
    check_dimension(n)
    check_int(order, "the order")
    if order < 2:
        raise ValueError(
            f"order must be at least 2 to see the first corrections, "
            f"got {order}")
    sig = RingSignature(n)
    y, z = Polynomial.variable(sig, "y"), Polynomial.variable(sig, "z")
    u, s2 = x_power_bracket(sig, 1), x_power_bracket(sig, 2)
    one = Polynomial.constant(sig, 1)

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

    def record(name, lhs, rhs):
        _record_series(cert, name, lhs, rhs, order)

    record("transported-member-factors",
           s2 * psi_y + psi_z * psi_z + u - one,
           e_fwd * (s2 * y + z * z - one))
    record("z-scaling-squares-to-y-scaling", gamma_fwd * gamma_fwd, e_fwd)
    record("tail-solves-functional-equation",
           u * u * tail, e_fwd - one + u)
    record("y-scaling-inverts", e_fwd * e_bwd, one)
    record("z-scaling-inverts", gamma_fwd * gamma_bwd, one)
    # inverse map: y back via exp(u), z back via exp(u/2)
    record("round-trip-y", e_bwd * psi_y + e_bwd * tail, y)
    record("round-trip-z", gamma_bwd * psi_z, z)
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
    check_int(high_order, "the high order")
    check_int(low_order, "the low order")
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
        _record_series(cert, f"stable-{name}", high[name], low[name],
                       low_order)
    return cert
