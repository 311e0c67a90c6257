"""Sparse multivariate polynomials over exact scalars.

The ambient ring is Q[x1..xn, y, z] or Q[x1..xn, y, z, w] (scalars may
live in one quadratic extension, see exactfield).  A polynomial is a
dict mapping exponent tuples to nonzero coefficients; the variable
order is x1 < ... < xn < y < z < w and exponent tuples follow it.

Canonical text form sorts terms graded-lexicographically, highest
first, e.g. "x1^2*x2^2*y + z^2 - 1/2".  ``parse_polynomial`` reads it
back: an optional sign, then terms joined by '+' or '-', each a product
of factors joined by '*'.  A factor is a rational "p/q", a parenthesized
scalar as ``exactfield.parse_scalar`` reads it ("(1-2*sqrt(3))"), or a
generator name with an optional "^exponent"; whitespace may sit between
tokens.  One regular expression matches a factor and another what
follows it; names are looked up in the RingSignature, the only place
that knows them.  Repeated monomials are merged, and str() is the exact
inverse of the reader.

Products and substitutions run on one packed integer kernel.  A
coefficient in Q(sqrt(d)) is carried there as one more variable s, by
Q(sqrt(d))[X] = Q[X, s]/(s^2 - d): the operands are lifted to rational
term dicts in X and s, and the result is lowered back by s^2 = d.

Intermediate results are capped at 10^6 terms; the environment variable
STABLY_DISTINCT_TERM_LIMIT overrides the cap.  On lifted operands the
cap counts lifted terms, never fewer than the lowered ones, so it can
only trip earlier.
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import add, itemgetter, mul, sub

from .errors import (DivisionByZero, DivisionByZeroPolynomial,
                     MixedDiscriminant, NotDivisible, ParseError,
                     ResourceLimit, SignatureMismatch, StablyDistinctError,
                     UnknownVariable)
from .exactfield import (QuadExt, _same_field, as_scalar, parse_scalar,
                         scalar_to_text)

_DEFAULT_TERM_LIMIT = 10 ** 6


def term_limit() -> int:
    value = os.environ.get("STABLY_DISTINCT_TERM_LIMIT")
    try:
        limit = int(value) if value else _DEFAULT_TERM_LIMIT
    except ValueError:
        limit = 0
    if limit < 1:
        raise StablyDistinctError("STABLY_DISTINCT_TERM_LIMIT must be a "
                                  "positive integer, got %r" % value)
    return limit


def check_int(value, what: str) -> int:
    """``value`` if it is an int; anything else raises ParseError naming
    ``what`` (a float is not truncated, a bool not read as 0 or 1)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError("%s must be an int, got %r" % (what, value))
    return value


def check_dimension(n) -> int:
    """n, the number of x variables: ParseError naming a non-int,
    ValueError below 1."""
    check_int(n, "the dimension n")
    if n < 1:
        raise ValueError("need n >= 1, got %d" % n)
    return n


class RingSignature:
    """Shape of the ambient ring: n base variables, optional extra w."""

    __slots__ = ("n", "has_w", "names", "_index")

    def __init__(self, n: int, has_w: bool = False):
        self.n = check_dimension(n)
        self.has_w = bool(has_w)
        names = tuple("x%d" % (i + 1) for i in range(n)) + ("y", "z")
        if has_w:
            names += ("w",)
        self.names = names
        self._index = {name: i for i, name in enumerate(names)}

    @property
    def nvars(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownVariable("no variable %r in %r" % (name, self)) from None

    def __eq__(self, other):
        return (isinstance(other, RingSignature)
                and self.n == other.n and self.has_w == other.has_w)

    def __hash__(self):
        return hash((self.n, self.has_w))

    def __repr__(self):
        return "RingSignature(n=%d, has_w=%s)" % (self.n, self.has_w)


def _grlex_key(exps):
    return (sum(exps), exps)


def _check_sig(a, b):
    if a.sig != b.sig:
        raise SignatureMismatch("%r vs %r" % (a.sig, b.sig))


class Polynomial:
    """Immutable-by-convention sparse polynomial."""

    __slots__ = ("sig", "terms")

    def __init__(self, sig: RingSignature, terms: dict):
        self.sig = sig
        self.terms = terms  # trusted: no zero coefficients

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, sig):
        return cls(sig, {})

    @classmethod
    def constant(cls, sig, value):
        value = as_scalar(value)
        if not value:
            return cls(sig, {})
        return cls(sig, {(0,) * sig.nvars: value})

    @classmethod
    def variable(cls, sig, name):
        exps = [0] * sig.nvars
        exps[sig.index(name)] = 1
        return cls(sig, {tuple(exps): Fraction(1)})

    @classmethod
    def monomial(cls, sig, exps, coeff=1):
        exps = tuple(exps)
        if len(exps) != sig.nvars or any(e < 0 for e in exps):
            raise ValueError("bad exponent tuple %r" % (exps,))
        coeff = as_scalar(coeff)
        if not coeff:
            return cls(sig, {})
        return cls(sig, {exps: coeff})

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def term_count(self) -> int:
        return len(self.terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, name: str) -> int:
        if not self.terms:
            return -1
        idx = self.sig.index(name)
        return max(e[idx] for e in self.terms)

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), Fraction(0))

    def sorted_terms(self):
        """Terms in descending graded-lex order."""
        terms = self.terms
        if len(terms) < 2:
            return list(terms.items())
        # exponent tuples are distinct, so (degree, exponents) never tie
        return [(exps, terms[exps]) for _, exps in
                sorted(zip(map(sum, terms), terms), reverse=True)]

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            _check_sig(self, other)
            return other
        if isinstance(other, (int, Fraction, QuadExt)):
            return Polynomial.constant(self.sig, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        result = dict(self.terms)
        _add_into(result, other.terms)
        return Polynomial(self.sig, result)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.sig, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        result = dict(self.terms)
        _sub_into(result, other.terms)
        return Polynomial(self.sig, result)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QuadExt)):
            if not other:
                return Polynomial.zero(self.sig)
            return Polynomial(self.sig,
                              {e: c * other for e, c in self.terms.items()})
        if isinstance(other, Polynomial):
            _check_sig(self, other)
            return Polynomial(self.sig, _mul_terms(self.terms, other.terms))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if isinstance(scalar, int):
            scalar = Fraction(scalar)
        if isinstance(scalar, (Fraction, QuadExt)):
            if not scalar:
                raise DivisionByZero("polynomial divided by the zero scalar")
            return self * (1 / scalar)
        return NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Polynomial.constant(self.sig, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.sig == other.sig and self.terms == other.terms
        if isinstance(other, (int, Fraction, QuadExt)):
            return self.terms == Polynomial.constant(self.sig, other).terms
        return NotImplemented

    __hash__ = None

    def __bool__(self):
        return bool(self.terms)

    # -- calculus / substitution -----------------------------------------

    def partial_derivative(self, name: str):
        idx = self.sig.index(name)
        # lowering one exponent is injective and coeff*e != 0 in
        # characteristic 0, so no two terms merge and none cancels
        return Polynomial(self.sig, {
            exps[:idx] + (exps[idx] - 1,) + exps[idx + 1:]: coeff * exps[idx]
            for exps, coeff in self.terms.items() if exps[idx]})

    def substitute(self, images: dict):
        """Simultaneously replace variables by polynomials (or scalars).

        Variables absent from ``images`` are left alone.  This is the ring
        homomorphism determined by the generator images.

        Every image is checked against the signature; images of variables
        the source does not contain are then dropped, and with none left
        the source is returned as it is.  The rest runs on packed integers
        (:func:`_substitute_fraction_terms`), on lifted term dicts when a
        coefficient lies in Q(sqrt(d)).  The term limit counts the nonzero
        terms of every intermediate.
        """
        sig = self.sig
        given = {}
        for name, img in images.items():
            idx = sig.index(name)
            if not isinstance(img, Polynomial):
                img = Polynomial.constant(sig, img)
            elif img.sig != sig:
                raise SignatureMismatch("image of %s has %r, expected %r"
                                        % (name, img.sig, sig))
            given[idx] = img
        used = {idx: img.terms for idx, img in given.items()
                if any(exps[idx] for exps in self.terms)}
        if not used:
            return self
        limit = term_limit()

        def refuse():
            return _substitution_limit(self, given, limit)

        source = self.terms
        d = check_one_field(chain(source.values(),
                                  *map(dict.values, used.values())))
        if d is not None:
            source = _lift(source)
            used = {idx: _lift(terms) for idx, terms in used.items()}
        result = _substitute_fraction_terms(source, used, limit, refuse)
        return Polynomial(sig, result if d is None else _lower(result, d))

    def evaluate(self, point: dict):
        """Exact value at a point given as {variable name: scalar}."""
        sig = self.sig
        values = []
        for name in sig.names:
            if name not in point:
                raise UnknownVariable("point missing variable %r" % name)
            values.append(as_scalar(point[name]))
        caches = [{0: Fraction(1), 1: v} for v in values]
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            prod = coeff
            for i, e in enumerate(exps):
                if e:
                    cache = caches[i]
                    pw = cache.get(e)
                    if pw is None:
                        pw = values[i] ** e
                        cache[e] = pw
                    prod = prod * pw
            total = total + prod
        return total

    # -- text -------------------------------------------------------------

    def __str__(self):
        return poly_to_text(self)

    def __repr__(self):
        text = poly_to_text(self)
        if len(text) > 60:
            text = text[:57] + "..."
        return "Polynomial(%r, %s)" % (self.sig, text)


# -- raw term-dict helpers (hot paths) ------------------------------------

def _add_into(acc: dict, terms: dict):
    for exps, coeff in terms.items():
        prev = acc.get(exps)
        if prev is None:
            acc[exps] = coeff
        else:
            s = prev + coeff
            if s:
                acc[exps] = s
            else:
                del acc[exps]


def _sub_into(acc: dict, terms: dict):
    for exps, coeff in terms.items():
        prev = acc.get(exps)
        if prev is None:
            acc[exps] = -coeff
        else:
            s = prev - coeff
            if s:
                acc[exps] = s
            else:
                del acc[exps]


def _mul_terms(a: dict, b: dict) -> dict:
    """Term dict of the product.

    A one-term operand shifts the other side's exponents and scales its
    coefficients (reused as they are when its coefficient is 1).  Other
    products run on integers over one common denominator, each exponent
    tuple packed into one int (after Monagan and Pearce, CASC 2007), on
    lifted operands when a coefficient lies in Q(sqrt(d)).  The term
    limit counts nonzero terms after each row; a refusal names the
    operands' own sizes.
    """
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    limit = term_limit()
    if len(a) == 1:
        if len(b) > limit:
            raise _product_limit(a, b, limit)
        ((ea, ca),) = a.items()
        if ca == 1:
            return {tuple(map(add, ea, eb)): cb for eb, cb in b.items()}
        return {tuple(map(add, ea, eb)): ca * cb for eb, cb in b.items()}

    def refuse():
        return _product_limit(a, b, limit)

    d = check_one_field(chain(a.values(), b.values()))
    if d is None:
        return _mul_fraction_terms(a, b, limit, refuse)
    return _lower(_mul_fraction_terms(_lift(a), _lift(b), limit, refuse), d)


def _lift(terms: dict) -> dict:
    """Rational term dict over one more variable s, with s^2 = d: each
    coefficient a + b*sqrt(d) becomes a*s^0 + b*s^1."""
    lifted = {}
    for exps, c in terms.items():
        if type(c) is QuadExt:
            if c.a:
                lifted[exps + (0,)] = c.a
            lifted[exps + (1,)] = c.b
        else:
            lifted[exps + (0,)] = c
    return lifted


def _lower(terms: dict, d: Fraction) -> dict:
    """Term dict over Q(sqrt(d)) of a lifted one: s^k becomes
    d^(k div 2)*s^(k mod 2), and the parts at s^0 and s^1 join into
    one coefficient."""
    parts = ({}, {})
    for exps, c in terms.items():
        k = exps[-1]
        if k > 1:
            c *= d ** (k >> 1)
        part = parts[k & 1]
        key = exps[:-1]
        prev = part.get(key)
        part[key] = c if prev is None else prev + c
    rational, surd = parts
    for key, b in surd.items():
        rational[key] = _same_field(rational.get(key, Fraction(0)), b, d)
    return {key: c for key, c in rational.items() if c}


def _product_limit(a: dict, b: dict, limit: int) -> ResourceLimit:
    return ResourceLimit("product of %d and %d terms exceeded %d terms"
                         % (len(a), len(b), limit))


def _substitution_limit(source: Polynomial, images: dict,
                        limit: int) -> ResourceLimit:
    sizes = ", ".join("%s (%d terms)" % (source.sig.names[idx],
                                         len(images[idx].terms))
                      for idx in sorted(images))
    return ResourceLimit("substitution of %s into %d terms exceeded %d terms"
                         % (sizes, len(source.terms), limit))


# -- packed integer kernel --------------------------------------------------
#
# A term dict over rationals becomes a list of (packed exponents, numerator)
# pairs over one common denominator.  Each variable gets a bit field wide
# enough for the largest exponent it can reach in the result, so packed
# exponents add without carrying from one field into the next (after
# Monagan and Pearce, CASC 2007).

def _layout(tops) -> tuple[list, list]:
    """Weights 2^shift, and (shift, mask) fields, for per-variable
    exponent bounds."""
    weights, fields = [], []
    offset = 0
    for top in tops:
        width = top.bit_length()
        weights.append(1 << offset)
        fields.append((offset, (1 << width) - 1))
        offset += width
    return weights, fields


def _pack(terms: dict, weights: list) -> tuple[int, list]:
    """The common denominator of ``terms`` and its packed term list."""
    den = lcm(*[c.denominator for c in terms.values()])
    return den, [(sum(map(mul, exps, weights)),
                  c.numerator * (den // c.denominator))
                 for exps, c in terms.items()]


def _mul_packed_into(acc: dict, a: list, b: list, limit: int, refuse) -> None:
    """Add the product of packed term lists a and b into ``acc``.

    Cancelled terms stay in ``acc`` as zeros; after each row past
    ``limit`` entries they are dropped, and ``refuse()`` is raised if the
    nonzero terms still exceed it.
    """
    get = acc.get
    for pa, na in a:
        for pb, nb in b:
            key = pa + pb
            acc[key] = get(key, 0) + na * nb
        if len(acc) > limit:
            for key in [key for key, num in acc.items() if not num]:
                del acc[key]
            if len(acc) > limit:
                raise refuse()


def _packed_product(a: list, b: list, limit: int, refuse) -> list:
    acc = {}
    _mul_packed_into(acc, a, b, limit, refuse)
    return [item for item in acc.items() if item[1]]


def _unpack(acc: dict, fields: list, den: int) -> dict:
    return {tuple([(key >> s) & m for s, m in fields]): Fraction(num, den)
            for key, num in acc.items() if num}


def _mul_fraction_terms(a: dict, b: dict, limit: int, refuse) -> dict:
    """Product of two all-rational term dicts in packed integer form."""
    weights, fields = _layout(map(add, map(max, zip(*a)), map(max, zip(*b))))
    den_a, packed_a = _pack(a, weights)
    den_b, packed_b = _pack(b, weights)
    acc = {}
    _mul_packed_into(acc, packed_a, packed_b, limit, refuse)
    return _unpack(acc, fields, den_a * den_b)


def _substitute_fraction_terms(terms: dict, images: dict, limit: int,
                               refuse) -> dict:
    """Term dict of ``terms`` with variable index j replaced by the term
    dict ``images[j]``, every coefficient rational, in packed form.

    Source terms are grouped by their exponents of the replaced
    variables, so each group is one product: its other factors times
    the product of its image powers.  The fields are sized from the
    result's exponent bound per variable, the max over source terms of
    the untouched exponent plus the sum of e_j times image j's degree in
    that variable, so no intermediate carries.  Image powers are chained
    in packed form, and every group's product is summed on integers over
    one common denominator, then unpacked once.
    """
    touched = sorted(images)
    groups = {}
    for item in terms.items():
        groups.setdefault(tuple(map(item[0].__getitem__, touched)),
                          []).append(item)
    # a zero image to a positive power sends its terms to zero
    groups = {key: group for key, group in groups.items()
              if all(images[j] or not e for j, e in zip(touched, key))}
    if not groups:
        return {}
    tops = {j: list(map(max, zip(*images[j]))) for j in touched if images[j]}
    keep = [int(i not in images) for i in range(len(next(iter(terms))))]
    bound = [0] * len(keep)
    for key, group in groups.items():
        reach = list(map(mul, map(max, zip(*[exps for exps, _ in group])),
                         keep))
        for j, e in zip(touched, key):
            if e:
                reach = list(map(add, reach, [e * t for t in tops[j]]))
        bound = list(map(max, bound, reach))
    weights, fields = _layout(bound)
    other_weights = list(map(mul, weights, keep))
    den_src = lcm(*[c.denominator for group in groups.values()
                    for _, c in group])
    den = den_src
    # per replaced variable: its image's denominator and packed powers
    chains = []
    top_e = list(map(max, zip(*groups)))
    for j, top in zip(touched, top_e):
        if top:
            den_j, packed = _pack(images[j], weights)
            chains.append((den_j, [[(0, 1)], packed]))
            den *= den_j ** top
        else:
            chains.append((1, [[(0, 1)]]))
    acc = {}
    for key, group in groups.items():
        scale = den_src
        power = None
        for (den_j, powers), e, top in zip(chains, key, top_e):
            scale *= den_j ** (top - e)
            while len(powers) <= e:
                powers.append(_packed_product(powers[-1], powers[1], limit,
                                              refuse))
            if e:
                power = powers[e] if power is None else _packed_product(
                    power, powers[e], limit, refuse)
        if power is None:
            power = [(0, 1)]
        others = [(sum(map(mul, exps, other_weights)),
                   c.numerator * (scale // c.denominator))
                  for exps, c in group]
        if len(others) > len(power):
            others, power = power, others
        _mul_packed_into(acc, others, power, limit, refuse)
    return _unpack(acc, fields, den)


# -- named constructions --------------------------------------------------

def x_power_bracket(sig: RingSignature, k: int) -> Polynomial:
    """(x1*...*xn)^k as a polynomial; k = 0 gives 1."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    exps = tuple([k] * sig.n + [0] * (sig.nvars - sig.n))
    return Polynomial(sig, {exps: Fraction(1)})


def exact_divide(p: Polynomial, d: Polynomial) -> Polynomial:
    """Quotient p/d for a one-term d that divides p; otherwise NotDivisible.

    Every exponent of p shifts down by d's in one pass, and coefficients
    are divided only when d's coefficient is not 1.  NotDivisible names
    the graded-lex largest term of p that d does not divide, with its
    coefficient in p.  A d with two or more terms is refused: every
    division in the construction is by a power of x^[1].
    """
    if d.is_zero():
        raise DivisionByZeroPolynomial("division by zero polynomial")
    _check_sig(p, d)
    if len(d.terms) != 1:
        raise StablyDistinctError("exact_divide takes a one-term divisor, "
                                  "not one with %d terms" % len(d.terms))
    ((lead_exps, lead_coeff),) = d.terms.items()
    quotient = {tuple(map(sub, exps, lead_exps)): coeff
                for exps, coeff in p.terms.items()}
    # shifting every exponent by one tuple keeps the graded-lex order
    bad = [qexps for qexps in quotient if min(qexps) < 0]
    if bad:
        qexps = max(bad, key=_grlex_key)
        raise NotDivisible("remainder has leading term %s" % _signed_sum(
            p.sig.names,
            [(tuple(map(add, qexps, lead_exps)), quotient[qexps])]))
    if lead_coeff != 1:
        quotient = {exps: coeff / lead_coeff
                    for exps, coeff in quotient.items()}
    return Polynomial(p.sig, quotient)


def rewrite_single_rule(p: Polynomial, lhs_exps, rhs: Polynomial):
    """Normal form of p under the rewrite  monomial(lhs) -> rhs.

    Requires a variable v with lhs exponent > 0 such that every monomial
    of rhs has smaller v-exponent; the multiset of v-degrees then drops
    strictly at each step, so the rewrite terminates and (for a single
    rule) the normal form is unique.  Returns (normal_form, steps).
    """
    lhs_exps = tuple(lhs_exps)
    _check_sig(p, rhs)
    witness = None
    for i, le in enumerate(lhs_exps):
        if le > 0 and all(e[i] < le for e in rhs.terms):
            witness = i
            break
    if witness is None:
        raise ValueError("rewrite rule has no decreasing variable")
    current = dict(p.terms)
    steps = 0
    while True:
        reducible = [e for e in current
                     if all(a >= b for a, b in zip(e, lhs_exps))]
        if not reducible:
            break
        for exps in reducible:
            coeff = current.pop(exps, None)
            if coeff is None:   # cancelled by a rewrite earlier this pass
                continue
            shift = tuple(a - b for a, b in zip(exps, lhs_exps))
            _add_into(current, _mul_terms({shift: coeff}, rhs.terms))
            steps += 1
    return Polynomial(p.sig, current), steps


# -- random evaluation (Schwartz-Zippel support) --------------------------

def random_point(sig: RingSignature, rng, modulus: int = 2 ** 61 - 1) -> dict:
    """A point drawn uniformly from F_p, p = ``modulus``: one int in
    [0, p) per generator.

    A polynomial of total degree d that is nonzero mod p vanishes at such a
    point with probability at most d/p (Schwartz 1980, Zippel 1979).  The
    values are plain ints, so ``Polynomial.evaluate`` also takes the point,
    exactly over Q.  Two identically seeded generators draw the same point.
    """
    return {name: rng.randrange(modulus) for name in sig.names}


# -- canonical text form --------------------------------------------------

class _PowerTexts(dict):
    """Power texts by (name, exponent), each made on first use: 'x1' for
    exponent 1, 'x1^5' for 5."""

    __slots__ = ()

    def __missing__(self, key) -> str:
        text = self[key] = "%s^%d" % key if key[1] > 1 else key[0]
        return text


def _signed_sum(names, terms) -> str:
    """Join (exponents, coefficient) pairs as 'a - b + c'.

    The sign of a negative rational coefficient is pulled out in front of
    its monomial; coefficients in Q(sqrt(d)) keep theirs in parentheses.
    A rational is read by its numerator and denominator, and each
    variable's power text is made once per call.
    """
    powers = _PowerTexts()
    out = []
    for exps, coeff in terms:
        body = "*".join(map(powers.__getitem__,
                            filter(itemgetter(1), zip(names, exps))))
        if type(coeff) is QuadExt:
            negative, text = False, "(%s)" % scalar_to_text(coeff)
        else:
            num, den = coeff.numerator, coeff.denominator
            negative = num < 0
            if negative:
                num = -num
            if den != 1:
                text = "%d/%d" % (num, den)
            else:
                text = "" if num == 1 and body else str(num)
        if out:
            out.append(" - " if negative else " + ")
        elif negative:
            out.append("-")
        out.append(body if not text else
                   "%s*%s" % (text, body) if body else text)
    return "".join(out) or "0"


def poly_to_text(p: Polynomial) -> str:
    if not p.terms:
        return "0"
    return _signed_sum(p.sig.names, p.sorted_terms())


# (?!\d) takes whole digit runs, so repeated tokens cannot backtrack
# through the ways of splitting one
_NUMBER = r"\d+(?:/\d+)?(?!\d)"
_SCALAR_TOKEN = rf"\s*(?:{_NUMBER}|sqrt|[-+*])"

# One factor of a term: a rational, a parenthesized scalar such as
# "(1-2*sqrt(3))" (one inner level of parentheses, whitespace only between
# its tokens), or a generator name with an optional exponent.
_FACTOR_RE = re.compile(
    rf"(?P<number>{_NUMBER})"
    rf"|\((?P<scalar>(?:{_SCALAR_TOKEN}|\s*\((?:{_SCALAR_TOKEN})*\s*\))*)"
    r"\s*\)"
    r"|(?P<name>[^\W\d]\w*)(?:\s*(?P<caret>\^)\s*(?P<exp>\d+(?![/\d]))?)?")

# What follows a factor: '*', '+', '-', or nothing, which must end the text.
_OPERATOR_RE = re.compile(r"\s*([-+*]?)\s*")


def parse_polynomial(sig: RingSignature, text: str) -> Polynomial:
    """Parse canonical polynomial text; inverse of str() on polynomials.

    Malformed text raises ParseError; coefficients from two quadratic
    fields in different monomials raise MixedDiscriminant.
    """
    op = _OPERATOR_RE.match(text)
    if not op[1] and op.end() == len(text):
        raise ParseError("empty polynomial text", 0)
    if op[1] == "*":
        raise ParseError("expected coefficient or variable", op.start(1))
    terms, pos = {}, op.end()
    negative, coeff, exps = op[1] == "-", Fraction(1), [0] * sig.nvars
    while True:
        m = _FACTOR_RE.match(text, pos)
        if m is None:
            raise ParseError("bad scalar coefficient" if text.startswith("(", pos)
                             else "expected coefficient or variable", pos)
        op = _OPERATOR_RE.match(text, m.end())
        try:
            if m["number"]:
                coeff = coeff * Fraction(m["number"])
            elif m["scalar"] is not None:
                coeff = coeff * parse_scalar("".join(m["scalar"].split()))
            else:
                exps[sig.index(m["name"])] += int(m["exp"] or 1)
            if op[1] != "*" and coeff:
                _add_into(terms, {tuple(exps): -coeff if negative else coeff})
        except ParseError:
            raise ParseError("bad scalar coefficient", pos) from None
        except UnknownVariable:
            raise ParseError("variable %r outside signature" % m["name"],
                             pos) from None
        except MixedDiscriminant as err:
            raise ParseError(str(err), pos) from None
        except ZeroDivisionError:
            raise ParseError("zero denominator", pos) from None
        except ValueError:  # more digits than int() converts
            raise ParseError("number too long", pos) from None
        if m["caret"] and not m["exp"]:
            raise ParseError("expected integer exponent", m.end())
        pos = op.end()
        if not op[1]:
            if pos < len(text):
                raise ParseError("expected '+' or '-'", pos)
            check_one_field(terms.values())
            return Polynomial(sig, terms)
        if op[1] != "*":
            negative, coeff, exps = op[1] == "-", Fraction(1), [0] * sig.nvars


def check_one_field(coeffs):
    """The d of the one quadratic field Q(sqrt(d)) that ``coeffs`` use,
    or None when all are rational; two fields raise MixedDiscriminant."""
    fields = {c.d for c in coeffs if type(c) is QuadExt}
    if len(fields) > 1:
        raise MixedDiscriminant("cannot mix %s" % " with ".join(
            "sqrt(%s)" % d for d in sorted(fields)))
    return fields.pop() if fields else None


def parse_json(text: str):
    """json.loads, with malformed text reported as ParseError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"not JSON: {err}") from None
    except RecursionError:
        raise ParseError("not JSON: nested too deeply") from None


# -- dense univariate polynomials in t ------------------------------------

class UnivariatePoly:
    """The coefficients of q(t), constant first: data that is only read."""

    __slots__ = ("coeffs", "_support")

    def __init__(self, coeffs=()):
        cs = [as_scalar(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)
        self._support = tuple(i for i, c in enumerate(cs) if c)

    @classmethod
    def from_csv(cls, text: str):
        """Comma-separated coefficients, constant first: '-1,1' is t - 1."""
        parts = [p.strip() for p in text.split(",")]
        if parts == [""]:
            raise ParseError("empty coefficient list")
        return cls(tuple(parse_scalar(p) for p in parts))

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def support(self):
        """Degrees of the nonzero coefficients, ascending."""
        return self._support

    def __call__(self, value):
        value = as_scalar(value)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def __eq__(self, other):
        if isinstance(other, UnivariatePoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def subs_into(self, inner: Polynomial) -> Polynomial:
        """q evaluated at a multivariate polynomial, by Horner."""
        sig = inner.sig
        acc = Polynomial.zero(sig)
        for c in reversed(self.coeffs):
            acc = acc * inner + c
        return acc

    def to_texts(self):
        return [scalar_to_text(c) for c in self.coeffs]

    def __str__(self):
        terms = [((i,), c) for i, c in enumerate(self.coeffs) if c]
        return _signed_sum(("t",), terms[::-1])

    def __repr__(self):
        return "UnivariatePoly(%s)" % (self.coeffs,)


def difference_quotient(q: UnivariatePoly, c) -> UnivariatePoly:
    """g with q(t) - q(c) = g(t) * (t - c), via synthetic division."""
    c = as_scalar(c)
    deg = q.degree()
    if deg < 1:
        return UnivariatePoly()
    b = [Fraction(0)] * deg
    b[deg - 1] = q[deg]
    for i in range(deg - 1, 0, -1):
        b[i - 1] = q[i] + c * b[i]
    return UnivariatePoly(tuple(b))
