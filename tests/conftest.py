"""Shared helpers for the test suite.

The dense univariate routines here are an independent reference
implementation (plain coefficient lists, no library code) used to
derive expected values for division- and quotient-style operations.
The sparse reference kernel is the plain term-pair product loop, the
leading-term-scan division that the library's fast kernel replaced, and
a term-by-term substitution on that product loop; the property tests
compare them with the library.  ``reference_text`` is the text form as
first written, on Fraction arithmetic and a sort through a key function.
The brute-force search for a rational
mu is the reference for the hypersurface-equivalence decider; it shares
no code with it.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from stably_distinct.errors import NotDivisible
from stably_distinct.exactfield import QuadExt, as_scalar, scalar_to_text
from stably_distinct.morphisms import DeferredImage, RingEndomorphism
from stably_distinct.polyring import Polynomial, RingSignature, UnivariatePoly


# -- independent dense univariate oracle ----------------------------------

def dense_trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def dense_sub(a, b):
    size = max(len(a), len(b))
    return dense_trim([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
                       for i in range(size)])


def dense_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += Fraction(ai) * Fraction(bj)
    return dense_trim(out)


def dense_power(a, k):
    out = [1]
    for _ in range(k):
        out = dense_mul(out, a)
    return out


def dense_divmod(a, b):
    """Long division of coefficient lists (constant first)."""
    a = [Fraction(c) for c in dense_trim(a)]
    b = [Fraction(c) for c in dense_trim(b)]
    if not b:
        raise ZeroDivisionError
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    rem = a[:]
    while len(rem) >= len(b) and rem:
        shift = len(rem) - len(b)
        factor = rem[-1] / b[-1]
        quot[shift] = factor
        for i, bc in enumerate(b):
            rem[shift + i] -= factor * bc
        rem = dense_trim(rem)
    return dense_trim(quot), rem


def dense_eval(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + Fraction(c)
    return acc


# -- sparse reference kernel on exponent-tuple -> scalar dicts -----------

def reference_mul(a: dict, b: dict) -> dict:
    """Product of two term dicts, one term pair at a time."""
    result = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(map(sum, zip(ea, eb)))
            s = result.get(key, 0) + ca * cb
            if s:
                result[key] = s
            else:
                result.pop(key, None)
    return result


def reference_substitute(terms: dict, images: dict) -> dict:
    """Term dict of ``terms`` with the variable at index i replaced by the
    term dict ``images[i]``: each term times its images, one factor at a
    time through reference_mul, then added up."""
    result = {}
    for exps, coeff in terms.items():
        base = tuple(0 if i in images else e for i, e in enumerate(exps))
        acc = {base: coeff}
        for i, image in images.items():
            for _ in range(exps[i]):
                acc = reference_mul(acc, image)
        for key, c in acc.items():
            s = result.get(key, 0) + c
            if s:
                result[key] = s
            else:
                result.pop(key, None)
    return result


def _grlex(exps):
    return (sum(exps), exps)


def reference_text(p: Polynomial) -> str:
    """Canonical text of p: terms in descending graded-lex order, the sign
    of a negative rational pulled out in front of its monomial, a Q(sqrt(d))
    coefficient in parentheses, a unit coefficient left out."""
    out = []
    for exps, coeff in sorted(p.terms.items(), key=lambda kv: _grlex(kv[0]),
                              reverse=True):
        negative = isinstance(coeff, Fraction) and coeff < 0
        if out:
            out.append(" - " if negative else " + ")
        elif negative:
            out.append("-")
        coeff = -coeff if negative else coeff
        factors = [name if e == 1 else "%s^%d" % (name, e)
                   for name, e in zip(p.sig.names, exps) if e]
        text = scalar_to_text(coeff)
        if isinstance(coeff, QuadExt):
            text = "(%s)" % text
        if not factors:
            out.append(text)
        elif coeff == 1:
            out.append("*".join(factors))
        else:
            out.append("%s*%s" % (text, "*".join(factors)))
    return "".join(out) or "0"


def reference_divide(sig: RingSignature, p: dict, d: dict) -> dict:
    """Quotient term dict of p / d by rescanning for each leading term.

    Raises NotDivisible naming the remainder's leading term, in the
    library's message format, when d does not divide p.
    """
    lead = max(d, key=_grlex)
    remaining = dict(p)
    quotient = {}
    while remaining:
        exps = max(remaining, key=_grlex)
        coeff = remaining[exps]
        qexps = tuple(a - b for a, b in zip(exps, lead))
        if any(e < 0 for e in qexps):
            raise NotDivisible("remainder has leading term %s"
                               % Polynomial.monomial(sig, exps, coeff))
        qcoeff = coeff / d[lead]
        quotient[qexps] = qcoeff
        for e, c in reference_mul({qexps: qcoeff}, d).items():
            s = remaining.get(e, 0) - c
            if s:
                remaining[e] = s
            else:
                remaining.pop(e, None)
    return quotient


# -- brute-force oracle for hypersurface equivalence (rational mu) -------

def _int_root(value: int, k: int):
    """The integer k-th root of value >= 0, or None, by bisection."""
    lo, hi = 0, 1
    while hi ** k <= value:
        hi *= 2
    while hi - lo > 1:              # lo^k <= value < hi^k
        mid = (lo + hi) // 2
        if mid ** k <= value:
            lo = mid
        else:
            hi = mid
    return lo if lo ** k == value else None


def _rational_roots(num: int, den: int, k: int) -> list:
    """Every (p, s) with (p/s)^k = num/den, for nonzero integers num, den."""
    if den < 0:
        num, den = -num, -den
    g = math.gcd(num, den)
    num, den = num // g, den // g
    if num < 0 and k % 2 == 0:
        return []
    p, s = _int_root(abs(num), k), _int_root(den, k)
    if p is None or s is None:
        return []
    p = -p if num < 0 else p
    return [(p, s), (-p, s)] if k % 2 == 0 else [(p, s)]


def _integer_coeffs(q) -> list:
    """q's coefficients times their common denominator (mu is unchanged)."""
    coeffs = getattr(q, "coeffs", q)
    scale = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (scale // c.denominator) for c in coeffs]


def brute_force_hyper_mu(q1, c1, q2, c2):
    """A rational mu with q2(t) = lam*q1(mu*t), some lam != 0, and
    c1 = mu*c2; or None when no rational mu exists.

    q1 and q2 are UnivariatePoly or lists of rational coefficients
    (constant first); c1 and c2 are rational.  Every valid mu solves
    mu^(j1-j0) = (q2[j1]*q1[j0]) / (q1[j1]*q2[j0]) for the two lowest
    degrees j0 < j1 of the support, and is c1/c2 when the levels are
    nonzero, so trying those candidates against every coefficient is
    exhaustive over the rationals.  All of it runs on integers.
    """
    a, b = _integer_coeffs(q1), _integer_coeffs(q2)
    support = [j for j, x in enumerate(a) if x]
    if support != [j for j, x in enumerate(b) if x]:
        return None
    if (c1 == 0) != (c2 == 0):
        return None
    j0 = support[0] if support else 0
    if c1:
        candidates = [(c1.numerator * c2.denominator,
                       c1.denominator * c2.numerator)]
    elif len(support) < 2:
        return Fraction(1)          # mu is free: lam alone matches q
    else:
        j1 = support[1]
        candidates = _rational_roots(b[j1] * a[j0], a[j1] * b[j0], j1 - j0)
    for p, s in candidates:
        # q2[j] / q1[j] = lam * mu^j for every j, with lam fixed by j0
        if all(b[j] * a[j0] * s ** (j - j0) == b[j0] * a[j] * p ** (j - j0)
               for j in support):
            return Fraction(p, s)
    return None


# -- random object builders ----------------------------------------------

def with_record(m: RingEndomorphism, **change) -> RingEndomorphism:
    """A map of the stable pair whose z-, w- and y-images are one record,
    ``m``'s with the fields in ``change`` (z_sym, w_sym, q, target)
    replaced."""
    record = m.record
    data = {"z_sym": record.z_sym, "w_sym": record.w_sym, "q": record.q,
            "target": record.target, **change}
    return RingEndomorphism(m.sig, record=DeferredImage(
        data["z_sym"], data["w_sym"], data["q"], data["target"],
        record.label))


def from_terms(sig: RingSignature, terms: dict) -> Polynomial:
    """The polynomial of an exponent-tuple -> scalar dict, zeros dropped."""
    return Polynomial(sig, {tuple(exps): as_scalar(coeff)
                            for exps, coeff in terms.items() if coeff})


def small_fraction(rng: random.Random, bound: int = 20) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def random_univariate(rng: random.Random, max_deg: int,
                      bound: int = 20) -> UnivariatePoly:
    deg = rng.randint(0, max_deg)
    return UnivariatePoly([small_fraction(rng, bound) for _ in range(deg + 1)])


def random_polynomial(sig: RingSignature, rng: random.Random,
                      max_deg: int = 4, max_terms: int = 6,
                      bound: int = 9) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * sig.nvars
        budget = rng.randint(0, max_deg)
        for _ in range(budget):
            exps[rng.randrange(sig.nvars)] += 1
        coeff = small_fraction(rng, bound)
        if coeff:
            exps = tuple(exps)
            terms[exps] = terms.get(exps, Fraction(0)) + coeff
    return from_terms(sig, terms)


# -- spec corpus used by derivation / classification suites ---------------

def spec_corpus():
    """(n, q coefficients, c) triples exercised across the suites."""
    qs = [
        [],              # q = 0
        [1],             # constant 1
        [-2],
        [0, 1],          # t
        [-1, 1],         # t - 1
        [-2, 1],         # t - 2
        [1, -2, 1],      # (t - 1)^2
        [-1, 3, -3, 1],  # (t - 1)^3
        [Fraction(1, 2), 0, 2],
    ]
    cs = [0, 1, 2, -1, Fraction(1, 2)]
    out = []
    for n in (1, 2, 3):
        for q in qs:
            for c in cs:
                out.append((n, list(q), c))
    return out
