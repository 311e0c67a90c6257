"""Shared helpers for the test suite.

The dense univariate routines here are an independent reference
implementation (plain coefficient lists, no library code) used to
derive expected values for division- and quotient-style operations.
The sparse reference kernel is the plain term-pair product loop and the
leading-term-scan division that the library's fast kernel replaced; the
property tests compare the two.
"""

from __future__ import annotations

import random
from fractions import Fraction

from stably_distinct.errors import NotDivisible
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


def _grlex(exps):
    return (sum(exps), exps)


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


# -- random object builders ----------------------------------------------

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
    return Polynomial.from_terms(sig, terms)


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
