"""Equivalence deciders, witness automorphisms, and stable equivalence.

Three related notions are decided and certified for members of the family
P_q = x^[2]y + z^2 + x^[1]q(z^2) at level c:

* polynomial equivalence: some automorphism of the ambient space carries
  P_(q1) - c1 exactly onto P_(q2) - c2; this holds precisely when c1 = c2
  and q2 is a nonzero scalar multiple of q1, witnessed by scaling x1 and y;
* hypersurface equivalence: the zero sets correspond under an automorphism,
  equivalently P_(q1) - c1 maps onto a unit multiple of P_(q2) - c2; this
  holds precisely when c2 = c1/mu and q2(t) = lambda*q1(mu*t) for nonzero
  constants lambda, mu, witnessed by a diagonal map whose z-scaling is a
  square root of 1/mu;
* stable equivalence: after adding one cylinder variable w, P_q and the
  constant member P_(q(0)) are related by an explicit automorphism pair
  (Phi, Psi) that is mutually inverse on the nose.

Deciders return a witness object or None (not equivalent).  When a witness
exists over the complex numbers but cannot be represented in the rationals
or a single quadratic extension, :class:`NotDecidableInField` is raised
carrying the algebraic relation a richer field would have to satisfy.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .certificate import Certificate, CheckResult
from .errors import (InvalidWitness, NotASquare, NotDecidableInField,
                     NotDivisible, StablyDistinctError)
from .exactfield import (QuadExt, as_scalar, quadext, rational,
                         rational_nth_root, sqrt_in_field)
from .hypersurface import PqSpec, build_Pq, classify, isomorphic, z_part
from .morphisms import DeferredImage, RingEndomorphism
from .polyring import (Polynomial, RingSignature, UnivariatePoly,
                       check_dimension, check_int, check_one_field,
                       exact_divide, truncate, x_power_bracket)


def _as_q(q) -> UnivariatePoly:
    return q if isinstance(q, UnivariatePoly) else UnivariatePoly(q)


# ---------------------------------------------------------------------------
# polynomial equivalence
# ---------------------------------------------------------------------------

class PolyEquivWitness:
    """Scaling factor lambda with q2 = lambda * q1 and c1 = c2."""

    __slots__ = ("lam",)

    def __init__(self, lam):
        lam = as_scalar(lam)
        if not lam:
            raise InvalidWitness("lambda must be nonzero")
        self.lam = lam

    def __repr__(self) -> str:
        return f"PolyEquivWitness(lam={self.lam})"

    def inputs_dict(self) -> dict[str, str]:
        return {"lambda": str(self.lam)}


def decide_poly_equivalence(q1, c1, q2, c2) -> PolyEquivWitness | None:
    """Witness lambda with q2 = lambda*q1 and c1 = c2, or None."""
    q1, q2 = _as_q(q1), _as_q(q2)
    if rational(c1) != rational(c2):
        return None
    support = q1.support()
    if support != q2.support():
        return None
    if not support:
        return PolyEquivWitness(Fraction(1))
    a, b, _ = _on_common_denominators(q1, q2)
    if not _ratios_match(a, b, support, 1, 1):
        return None
    j0 = support[0]
    return PolyEquivWitness(q2[j0] / q1[j0])


def build_poly_equiv_automorphism(witness: PolyEquivWitness, n: int,
                                  has_w: bool = False) -> RingEndomorphism:
    """The scaling map x1 -> lam*x1, y -> y/lam^2 taking P_q to P_(lam*q).

    Fixes z, w and the remaining x's; its inverse is the same map with
    lambda inverted.
    """
    sig = RingSignature(n, has_w=has_w)
    lam = witness.lam
    return RingEndomorphism(sig, {
        "x1": Polynomial.variable(sig, "x1") * lam,
        "y": Polynomial.variable(sig, "y") * (1 / (lam * lam)),
    })


# ---------------------------------------------------------------------------
# hypersurface equivalence
# ---------------------------------------------------------------------------

class HyperEquivWitness:
    """Constants (lambda, mu, eps) with q2(t) = lambda*q1(mu*t),
    c2 = c1/mu and eps^2 = 1/mu."""

    __slots__ = ("lam", "mu", "eps")

    def __init__(self, lam, mu, eps):
        lam, mu, eps = as_scalar(lam), as_scalar(mu), as_scalar(eps)
        if not lam or not mu:
            raise InvalidWitness("lambda and mu must be nonzero")
        if eps * eps * mu != 1:
            raise InvalidWitness(
                f"eps^2 * mu = {eps * eps * mu}, expected 1")
        self.lam = lam
        self.mu = mu
        self.eps = eps

    def __repr__(self) -> str:
        return (f"HyperEquivWitness(lam={self.lam}, mu={self.mu}, "
                f"eps={self.eps})")

    def inputs_dict(self) -> dict[str, str]:
        return {"lambda": str(self.lam), "mu": str(self.mu),
                "epsilon": str(self.eps)}


def _sqrt_allowing_one_extension(value, d=None):
    """Square root of value, extending Q at most once.

    ``d`` is the discriminant the coefficients already use, if any; the
    root must then lie in Q(sqrt(d)), as must the root of a value that is
    itself irrational.
    """
    if isinstance(value, QuadExt):
        field = "its quadratic extension"
    elif d is not None:
        field = f"Q(sqrt({d}))"
    else:
        root = rational_nth_root(value, 2)
        return quadext(0, 1, value) if root is None else root
    try:
        return sqrt_in_field(value, d)
    except NotASquare:
        raise NotDecidableInField(
            f"eps^2 = {value} has no root in {field}; "
            f"a second extension would be required") from None


def _attach_eps(lam, mu, d=None) -> HyperEquivWitness:
    return HyperEquivWitness(lam, mu,
                             _sqrt_allowing_one_extension(1 / mu, d))


def _on_common_denominators(q1: UnivariatePoly, q2: UnivariatePoly):
    """Coefficient vectors a, b of q1, q2, each up to a nonzero factor,
    and the d of Q(sqrt(d)) when a coefficient lies there, else None.

    Rational q gives integers, q times the lcm of its denominators; q in
    Q(sqrt(d)) gives its field elements.  Every relation the deciders
    test is homogeneous in a and in b, so the factors cancel.
    Coefficients from two quadratic fields raise MixedDiscriminant.
    """
    d = check_one_field(q1.coeffs + q2.coeffs)
    if d is None:
        return _integer_vector(q1.coeffs), _integer_vector(q2.coeffs), None
    return q1.coeffs, q2.coeffs, d


def _integer_vector(coeffs) -> list[int]:
    scale = math.lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (scale // c.denominator) for c in coeffs]


def _ratios_match(a, b, support, p, s, g: int = 1) -> bool:
    """Whether b[j]*a[j0]*s^k == b[j0]*a[j]*p^k, k = (j - j0)/g, for every
    j of the support, j0 its lowest degree.

    With mu^g = p/s this is q2[j]/q1[j] = lambda*mu^j for lambda fixed by
    j0: the coefficient relations of q2(t) = lambda*q1(mu*t), tested
    without dividing.  a, b are the vectors of
    :func:`_on_common_denominators`, and p, s lie in the same ring: the
    integers for rational q.
    """
    j0 = support[0]
    a0, b0 = a[j0], b[j0]
    for j in support[1:]:
        k = (j - j0) // g
        if b[j] * a0 * s ** k != b0 * a[j] * p ** k:
            return False
    return True


def _euclid_on_ratios(ratios):
    """Given mu^m = num/den for each (m, (num, den)), derive
    (g, (num, den)) with mu^g = num/den and g the gcd of the gaps m.

    Euclid on (gap, ratio) pairs: mu^g = v and mu^m = r give
    mu^(g - k*m) = v / r^k, so the ratio follows the gaps down to g.
    Each ratio stays a (numerator, denominator) pair, so nothing is
    divided.
    """
    pairs = iter(ratios)
    g, (vn, vd) = next(pairs)
    for m, (rn, rd) in pairs:
        while m:
            k = g // m
            g, vn, vd, m, rn, rd = m, rn, rd, g % m, vn * rd ** k, vd * rn ** k
    return g, (vn, vd)


def _mu_candidates(rho, g: int, d):
    """In-field solutions of mu^g = rho: a rational or single-sqrt value.

    Writes g = 2^e * odd.  For rational rho the odd-degree part must have
    a rational root (a higher odd-degree irrationality never fits in a
    quadratic extension); each of the e halvings takes a square root,
    extending the field at most once, to Q(sqrt(d)) when d is given.
    Returns the +/- candidate list.

    For irrational rho, an odd root in a quadratic field lies in rho's
    own field, and its norm is a rational odd root of rho's norm; without
    one no quadratic field holds mu.  Odd roots inside Q(sqrt(d)) are not
    searched, so the remaining case is an error, not a verdict.
    """
    e = 0
    odd = g
    while odd % 2 == 0:
        e += 1
        odd //= 2
    current = rho
    if odd > 1:
        if isinstance(rho, QuadExt):
            norm = rho.a * rho.a - rho.b * rho.b * rho.d
            if rational_nth_root(norm, odd) is None:
                raise NotDecidableInField(
                    f"mu^{odd} = {rho} has no root in any quadratic field")
            raise StablyDistinctError(
                f"mu^{odd} = {rho}: odd roots in Q(sqrt({rho.d})) are not "
                f"searched")
        root = rational_nth_root(rho, odd)
        if root is None:
            raise NotDecidableInField(
                f"mu^{odd} = {rho} has no rational solution")
        current = root
    for _ in range(e):
        current = _sqrt_allowing_one_extension(current, d)
    if g % 2 == 0:
        return [current, -current]
    return [current]


def decide_hypersurface_equivalence(q1, c1, q2, c2) \
        -> HyperEquivWitness | None:
    """Witness (lambda, mu, eps) for hypersurface equivalence, or None.

    Case analysis on the constraint system c2 = c1/mu, q2(t) = lambda*
    q1(mu*t):

    * supports of q1 and q2 must match (lambda, mu are nonzero);
    * both c nonzero: mu = c1/c2 is forced, lambda follows from the lowest
      coefficient, every other coefficient is checked;
    * exactly one c zero: impossible;
    * both c zero: mu is constrained only by coefficient ratios
      mu^(j-j0) = rho_j; the gcd g of the gaps pins down mu^g by Euclid's
      algorithm on (gap, ratio) pairs, solvability over the complex numbers
      is the exact condition rho_j = rho_g^((j-j0)/g), and the root is
      extracted in the rationals or one quadratic extension when
      possible — otherwise :class:`NotDecidableInField` reports the
      missing relation.  A verdict of None is only returned when no
      complex witness exists at all.

    The relations are tested on cross-multiplied coefficients, integers
    for rational q, and lambda, mu and eps are formed only once they hold.
    When the coefficients lie in Q(sqrt(d)), that is the one extension
    allowed, and coefficients from two such fields raise
    :class:`MixedDiscriminant`.  An odd root of an irrational rho that may
    exist in Q(sqrt(d)) is not searched for; that case raises a plain
    :class:`StablyDistinctError`.
    """
    q1, q2 = _as_q(q1), _as_q(q2)
    c1, c2 = rational(c1), rational(c2)
    support = q1.support()
    if support != q2.support():
        return None
    if (c1 == 0) != (c2 == 0):
        return None

    if not support:
        if c1 == 0:
            return HyperEquivWitness(Fraction(1), Fraction(1), Fraction(1))
        return _attach_eps(Fraction(1), c1 / c2)

    a, b, d = _on_common_denominators(q1, q2)
    j0 = support[0]

    if c1 != 0:
        # mu = c1/c2 = p/s is forced
        if not _ratios_match(a, b, support, c1.numerator * c2.denominator,
                             c1.denominator * c2.numerator):
            return None
        mu = c1 / c2
        return _attach_eps(q2[j0] / q1[j0] / mu ** j0, mu, d)

    if len(support) == 1:
        # single-term q: mu is free; normalize to 1
        return _attach_eps(q2[j0] / q1[j0], Fraction(1))

    # mu^(j - j0) = (q2[j]/q1[j]) / (q2[j0]/q1[j0]) for every j
    a0, b0 = a[j0], b[j0]
    g, (num, den) = _euclid_on_ratios(
        (j - j0, (b[j] * a0, a[j] * b0)) for j in support[1:])
    if not _ratios_match(a, b, support, num, den, g):
        return None                         # no complex solution either

    # every mu with mu^g = rho_g now satisfies all the relations
    rho_g = Fraction(num, den) if isinstance(num, int) else num / den
    try:
        candidates = _mu_candidates(rho_g, g, d)
    except NotDecidableInField as err:
        raise NotDecidableInField(
            f"mu^{g} = {rho_g} ({err.relation})") from None
    base = q2[j0] / q1[j0]                  # equals lambda * mu^j0
    last_obstruction = None
    for mu in candidates:
        try:
            return _attach_eps(base / mu ** j0, mu, d)
        except NotDecidableInField as err:
            last_obstruction = err
    raise last_obstruction


def build_hyper_equiv_automorphism(witness: HyperEquivWitness,
                                   n: int) -> RingEndomorphism:
    """The diagonal map certifying hypersurface equivalence.

    Sends x1 -> lam*mu*x1, y -> y/(lam^2*mu), z -> z/eps and fixes the
    other variables; applied to P_(q1) - c1 it yields exactly
    mu * (P_(q2) - c2), a unit multiple, so the zero sets correspond.
    """
    sig = RingSignature(n)
    lam, mu, eps = witness.lam, witness.mu, witness.eps
    return RingEndomorphism(sig, {
        "x1": Polynomial.variable(sig, "x1") * (lam * mu),
        "y": Polynomial.variable(sig, "y") * (1 / (lam * lam * mu)),
        "z": Polynomial.variable(sig, "z") * (1 / eps),
    })


def verify_hyper_equivalence(q1, c1, q2, c2, witness: HyperEquivWitness,
                             n: int = 1) -> Certificate:
    """Certify a hypersurface-equivalence witness by the exact identity
    in the ring with n x-variables."""
    q1, q2 = _as_q(q1), _as_q(q2)
    c1, c2 = rational(c1), rational(c2)
    theta = build_hyper_equiv_automorphism(witness, n)
    fiber1 = build_Pq(PqSpec(n, q1, c1)) - c1
    fiber2 = build_Pq(PqSpec(n, q2, c2)) - c2
    cert = Certificate(
        "the diagonal witness map carries the first defining polynomial "
        "onto mu times the second",
        {"q1": str(q1), "c1": str(c1), "q2": str(q2), "c2": str(c2),
         **witness.inputs_dict()})
    cert.record_composition("unit-multiple-image", [theta], fiber1,
                            theta.apply(fiber1), fiber2 * witness.mu)
    cert.record_bool("epsilon-squares-to-mu-inverse",
                     witness.eps * witness.eps * witness.mu == 1)
    return cert


# ---------------------------------------------------------------------------
# stable equivalence (one cylinder variable w)
# ---------------------------------------------------------------------------

class StableEquivPair:
    """Mutually inverse automorphisms linking P_q and P_(q(0)) over w.

    ``phi`` sends P_q to P_(q(0)) exactly, ``psi`` sends P_(q(0)) to P_q,
    and the two compose to the identity on every generator.
    """

    __slots__ = ("n", "q", "r", "phi", "psi", "p_q", "p_zero")

    def __init__(self, n: int, q: UnivariatePoly, r: UnivariatePoly,
                 phi: RingEndomorphism, psi: RingEndomorphism,
                 p_q: Polynomial, p_zero: Polynomial):
        self.n = n
        self.q = q
        self.r = r
        self.phi = phi
        self.psi = psi
        self.p_q = p_q
        self.p_zero = p_zero


def _cylinder_zw(sign: int, rho: Polynomial, z: Polynomial, w: Polynomial):
    """The (z, w) images of one map of the cylinder pair.

    With s = x^[1] and sigma = ``sign``:

        z' = (1 - sigma*s*rho)z + sigma*x^[2]w
        w' = (1 + sigma*s*rho)w - sigma*rho^2 z

    Given another map's images of z and w, and that map's image of rho,
    the same formulas give the images of the composite.
    """
    twist = x_power_bracket(z.sig, 1) * rho * sign
    z_img = (1 - twist) * z + x_power_bracket(z.sig, 2) * sign * w
    w_img = (1 + twist) * w - rho * rho * sign * z
    return z_img, w_img


def _cylinder_symbols(sign: int, r: UnivariatePoly, sig: RingSignature):
    """Z and W of the cylinder map with twist ``sign``, over a symbol S
    for its target held in the y slot: :func:`_cylinder_zw` at rho = r(S).

    They hold y only through r(S), and the ring homomorphism S -> target
    sends them to the map's z- and w-images.
    """
    sym = Polynomial.variable(sig, "y")
    return _cylinder_zw(sign, r.subs_into(sym), Polynomial.variable(sig, "z"),
                        Polynomial.variable(sig, "w"))


def _cylinder_map(sign: int, r: UnivariatePoly, q: UnivariatePoly,
                  target: Polynomial, label: str) -> RingEndomorphism:
    """The cylinder map with twist ``sign`` that sends P_q to ``target``.

    Its z- and w-images are :func:`_cylinder_zw`'s at rho = r(target),
    that is Z(target) and W(target) for :func:`_cylinder_symbols`' Z and
    W.  Its y-image y' = (target - z_part(q, z')) / x^[2] solves the image
    identity whatever z' is.  The map is its record of that data, Z and W
    over the symbol, q and the target (:class:`DeferredImage`); it fixes
    every x_i, and each of its z-, w- and y-images is expanded on its
    first read.  ``label`` names the map in the errors of those
    expansions.
    """
    sig = target.sig
    return RingEndomorphism(sig, record=DeferredImage(
        *_cylinder_symbols(sign, r, sig), q, target, label))


def build_stable_equivalence(q, n: int) -> StableEquivPair:
    """Construct the automorphism pair linking P_q with P_(q(0)).

    With s = x^[1], r the half-quotient (q(t) - q(0)) / (2t), and the
    shorthand rho = r evaluated at a defining polynomial:

        phi(z) = (1 - s*r(P0))z + x^[2]w
        phi(w) = (1 + s*r(P0))w - r(P0)^2 z
        psi(z) = (1 + s*r(Pq))z - x^[2]w
        psi(w) = (1 - s*r(Pq))w + r(Pq)^2 z

    and the y-images are the unique solutions of phi(P_q) = P0 and
    psi(P0) = P_q.  Both maps come from :func:`_cylinder_map`: phi with
    sign 1, q and target P0, psi with sign -1, q(0) and target P_q.  Their
    images stay unexpanded until read.
    """
    q = _as_q(q)
    sig = RingSignature(n, has_w=True)
    # (q(t) - q(0)) / t drops the constant and shifts the rest down
    r = UnivariatePoly([c / 2 for c in q.coeffs[1:]])
    q_zero = UnivariatePoly([q(Fraction(0))])
    p_q = build_Pq(PqSpec(n, q, 0), has_w=True)
    p_zero = build_Pq(PqSpec(n, q_zero, 0), has_w=True)

    if q.degree() <= 0:
        # constant q: the two members coincide, nothing to untwist
        ident = RingEndomorphism.identity(sig)
        return StableEquivPair(n, q, r, ident, ident, p_q, p_zero)

    return StableEquivPair(n, q, r, _cylinder_map(1, r, q, p_zero, "phi"),
                           _cylinder_map(-1, r, q_zero, p_q, "psi"),
                           p_q, p_zero)


def stable_equivalence_degree_bound(pair: StableEquivPair) -> int:
    """Growth bound 2*max(deg q, 1)^2 * deg(P_(q(0))) + 2 on deg(phi(y)).

    The deepest nesting is q evaluated at phi(z)^2, where phi(z) already
    contains r composed with the defining polynomial; multiplying the two
    composition depths gives the square on deg q.
    """
    k = max(pair.q.degree(), 1)
    return 2 * k * k * pair.p_zero.degree() + 2


def _x_exponents_equal(p: Polynomial) -> bool:
    """Whether every term of ``p`` has the same exponent in each x_i."""
    n = p.sig.n
    return all(exps[:n].count(exps[0]) == n for exps in p.terms)


def _x2_divides_at(z_sym: Polynomial, q: UnivariatePoly,
                   target: Polynomial) -> bool:
    """Whether x^[2] divides N(target), for N = S - z_part(q, Z) and Z =
    ``z_sym`` with S in the y slot, decided without forming N.

    B = target - x^[2]*y differs from the target by a multiple of
    x^[2], hence so do N(B) and N(target): x^[2] divides one iff it
    divides the other.  The gate: every term of Z and of B has equal x
    exponents, as when the x's enter only through s = x^[1].  Then so
    does every term of N and of N(B), and x^[2] divides such a term iff
    its x-degree is at least 2n.  Those terms span an ideal, so
    truncating to x-degree below 2n is a ring homomorphism, and S -> B
    maps the ideal into itself.  So the truncation of N is built from the
    truncation of Z, z_part's z^2 + s*q(z^2) with q by Horner and a
    truncation after each product, and S -> B runs by Horner in S, with a
    truncation after each product too; x^[2] divides N(B) iff nothing
    below 2n is left.
    """
    sig = target.sig
    base = target - x_power_bracket(sig, 2) * Polynomial.variable(sig, "y")
    if not (_x_exponents_equal(z_sym) and _x_exponents_equal(base)):
        return False
    below = 2 * sig.n - 1
    z_low = truncate(z_sym, below)
    z_sq = truncate(z_low * z_low, below)
    q_low = Polynomial.zero(sig)
    for c in reversed(q.coeffs):
        q_low = truncate(q_low * z_sq, below) + c
    n_low = (Polynomial.variable(sig, "y") - z_sq
             - truncate(x_power_bracket(sig, 1) * q_low, below))
    y = sig.index("y")
    acc = Polynomial.zero(sig)
    for e in range(n_low.degree_in("y"), -1, -1):
        acc = truncate(acc * base, below) + Polynomial(sig, {
            exps[:y] + (0,) + exps[y + 1:]: c
            for exps, c in n_low.terms.items() if exps[y] == e})
    return acc.is_zero()


def _quotient_proved(m: RingEndomorphism, sign: int, r: UnivariatePoly,
                     q: UnivariatePoly, target: Polynomial) -> bool:
    """Whether ``m`` is the cylinder map of twist ``sign`` that the build
    makes for ``q`` and ``target``, with x^[2] | N(target) proved by
    :func:`_x2_divides_at`, for N = S - z_part(q, Z).

    It holds when m has a record whose Z and W are
    :func:`_cylinder_symbols`' for ``sign`` and ``r``, recomputed here,
    and whose q and target are ``q`` and the member ``target``: a
    comparison of a few coefficients.  A map with a record fixes every
    x_i and divides by x^[2], so the y-image is then a polynomial, and m
    fixes x^[2] and sends z to Z(target).  S -> target is a ring
    homomorphism, so z_part(q, m(z)) = target - N(target), and
    m(x^[2]*y + z_part(q, z)) = N(target) + target - N(target) = target,
    without expanding an image.
    """
    record = m.record
    return (record is not None
            and (record.z_sym, record.w_sym) == _cylinder_symbols(sign, r,
                                                                  m.sig)
            and record.q == q and record.target == target
            and _x2_divides_at(record.z_sym, q, target))


def _top_form(p: Polynomial) -> Polynomial:
    """The terms of ``p`` of its total degree."""
    top = p.degree()
    return Polynomial(p.sig, {exps: c for exps, c in p.terms.items()
                              if sum(exps) == top})


def _top_of_sum(parts: list):
    """The degree and top form of a sum, from each nonzero summand's
    degree and top form; None when the top forms of the highest degree
    cancel, since the degree then rests on lower forms."""
    top = max(degree for degree, _ in parts)
    tied = [form for degree, form in parts if degree == top]
    total = sum(tied[1:], tied[0])
    return None if total.is_zero() else (top, total)


def _y_degree(m: RingEndomorphism, proved: bool) -> int:
    """The degree of m's y-image; read off top forms, without expanding
    it, when :func:`_quotient_proved` holds.

    Q[x, y, z, w] is a domain, so the top form of a product is the
    product of the top forms, and its degree the sum.  With T the target:
    a term c*u*S^e of Z (u free of y) has the top form c*u*top(T)^e in
    Z(T), so Z(top(T)) is a sum of forms whose highest part is the top
    form of Z(T), unless that part cancels.  Z's terms all hold z or w,
    so deg Z(T) >= 1 and the top form of q(Z(T)^2) is q's leading
    coefficient times top(Z(T))^(2 deg q).  Then N(T) = T - Z(T)^2 -
    s*q(Z(T)^2) is x^[2] times the y-image.  Where summands tie at the
    highest degree their top forms are added; where tied forms cancel,
    the y-image is expanded instead.
    """
    if proved:
        record = m.record
        sig, target, z_sym = m.sig, record.target, record.z_sym
        y = sig.index("y")
        d_t, top_t = target.degree(), _top_form(target)
        d_z = max(sum(exps) + exps[y] * (d_t - 1) for exps in z_sym.terms)
        z_at_top = z_sym.substitute({"y": top_t})
        if z_at_top.degree() == d_z:
            top_z = _top_form(z_at_top)
            parts = [(d_t, top_t), (2 * d_z, -top_z ** 2)]
            k = record.q.degree()
            if k >= 0:
                parts.append((sig.n + 2 * k * d_z, x_power_bracket(sig, 1)
                              * top_z ** (2 * k) * -record.q.coeffs[-1]))
            n_top = _top_of_sum(parts)
            if n_top is not None:
                return n_top[0] - 2 * sig.n
    return m.image("y").degree()


def verify_stable_equivalence(pair: StableEquivPair) -> Certificate:
    """Certify the pair: exact images and identity round trips.

    One predicate per map, :func:`_quotient_proved` (phi: sign 1, q and
    S -> P0; psi: sign -1, q(0) and a symbol T -> P_q), picks the routes
    of its image identity, its y-degree and the round trip it is the
    outer map of.  It holds for a map as the build leaves it.  Then its
    image identity, phi(P_q) = P0 or psi(P0) = P_q, takes the proof
    route: the target itself is recorded as the image, without expanding
    an image or forming N, and ``degree-growth-bound`` reads the y-degree
    off top forms (:func:`_y_degree`).  The check shares the build's
    homomorphism argument, not its output: of the build it reads only the
    stored maps.  Every other map takes the direct route, ``apply``, so a
    failing identity prints the residual of direct substitution.  A
    record whose y-image does not divide records its identity as not
    built and the degree bound as failed.

    The round trips use the formulas of :func:`_cylinder_map` without its
    symbol, since the outer images hold y, by the substitution
    homomorphism property: phi(psi(v)) is psi's formula with z, w, r(P_q)
    and P_q replaced by phi(z), phi(w), r(P0) and P0, and symmetrically
    for psi(phi(v)); a round trip runs only once its outer map's image
    identity holds, so P0 is phi(P_q).  When the outer map's predicate
    holds, the inner formula is applied to Z and W over the outer map's
    symbol instead, and the symbol then sent to the target.  That gives
    the same polynomials as the expanded images would, and they are z and
    w identically: with x^[2] = s^2, (1 - s*rho)((1 + s*rho)z - s^2 w) +
    s^2((1 - s*rho)w + rho^2 z) = z, and likewise for w.  Their y-image,
    (target - z_part(q', z)) / x^[2], is then a few terms.  Otherwise the
    check takes the formula at the stored images, so a failing check
    prints the same residual either way.

    Each composite check also carries a numeric hook that re-verifies it
    from the stored maps alone: the ``/sz`` siblings evaluate each map's
    images, a record's from its data at the point, and never see the
    recomputed symbols.  A round trip whose outer map fails its image
    identity is not built: its three checks are recorded as failed,
    naming that identity.  Likewise its y-image is not built when its z
    or w check fails.

    The exact round trips read only the outer map's stored images; the
    inner map enters through its formula.  So ``phi-after-psi-fixes-v``
    proves phi o psi_formula = id: phi is surjective, hence an
    automorphism, and with ``phi-sends-family-to-constant`` that is the
    certified claim.  The stored psi is checked exactly by the
    ``psi-after-phi-*`` round trips and by its own image identity.
    """
    sig = pair.phi.sig
    phi, psi = pair.phi, pair.psi
    q_poly = pair.q
    r = pair.r

    cert = Certificate(
        "P_q and the constant member P_(q(0)) are equivalent after adding "
        "one cylinder variable",
        {"n": str(pair.n), "q": str(q_poly)})

    if q_poly.degree() <= 0:
        # constant q: the pair is the identity and composing it costs little
        cert.record_composition("phi-sends-family-to-constant", [phi],
                                pair.p_q, phi.apply(pair.p_q), pair.p_zero)
        cert.record_composition("psi-sends-constant-to-family", [psi],
                                pair.p_zero, psi.apply(pair.p_zero),
                                pair.p_q)
        fwd = phi.compose(psi)
        bwd = psi.compose(phi)
        for name in ("z", "w", "y"):
            var = Polynomial.variable(sig, name)
            cert.record_composition(f"phi-after-psi-fixes-{name}",
                                    [phi, psi], var, fwd.image(name), var)
            cert.record_composition(f"psi-after-phi-fixes-{name}",
                                    [psi, phi], var, bwd.image(name), var)
        return _finish_stable_certificate(cert, pair, sig)

    q_zero = UnivariatePoly([q_poly(Fraction(0))])
    # the quotient route reads P_q and P0 as the members of q and q(0)
    members = (pair.p_q == build_Pq(PqSpec(pair.n, q_poly, 0), True)
               and pair.p_zero == build_Pq(PqSpec(pair.n, q_zero, 0), True))
    # per map: its image check, its round trip's stem, the round trip's
    # maps with it outermost, its twist, its q, and its identity
    # map(source) = target
    table = (
        ("phi-sends-family-to-constant", "phi-after-psi", [phi, psi], 1,
         q_poly, pair.p_q, pair.p_zero),
        ("psi-sends-constant-to-family", "psi-after-phi", [psi, phi], -1,
         q_zero, pair.p_zero, pair.p_q))
    proved, image_checks = [], []
    for name, _, (m, _), sign, q, source, target in table:
        proved.append(members and _quotient_proved(m, sign, r, q, target))
        try:
            image = target if proved[-1] else m.apply(source)
        except NotDivisible as err:
            # a record whose y-image does not divide
            image_checks.append(cert.record_not_built(name, [m], source,
                                                      target, str(err)))
            continue
        image_checks.append(cert.record_composition(name, [m], source,
                                                    image, target))

    # a round trip reads the outer map's image of the target; when that
    # image identity fails, r of it is large and squaring it in the
    # builder can take minutes, so the round trip is recorded as failed;
    # the inner map's formula has twist -sign and the other map's q
    for (_, stem, maps, sign, _, _, target), outer_proved, image_check, \
            inner_q in zip(table, proved, image_checks, (q_zero, q_poly)):
        if not image_check.passed:
            for name in "zwy":
                _record_fixes(cert, stem, maps, name, blocker=image_check)
            continue
        outer = maps[0]
        if outer_proved:
            # the inner formula over the outer map's symbol: z and w
            record = outer.record
            sym = Polynomial.variable(sig, "y")
            z_img, w_img = (img.substitute({"y": target}) for img in
                            _cylinder_zw(-sign, r.subs_into(sym),
                                         record.z_sym, record.w_sym))
        else:
            z_img, w_img = _cylinder_zw(-sign, r.subs_into(target),
                                        outer.image("z"), outer.image("w"))
        # psi(P0) sees psi(z) only through its square, so a wrong psi(z)
        # can pass the image identity; squaring the wrong z' for y' then
        # takes seconds, so y' is built only once z' and w' check out
        zw = [_record_fixes(cert, stem, maps, "z", z_img),
              _record_fixes(cert, stem, maps, "w", w_img)]
        blocker = next((c for c in zw if not c.passed), None)
        y_img = (exact_divide(target - z_part(inner_q, z_img),
                              x_power_bracket(sig, 2))
                 if blocker is None else None)
        _record_fixes(cert, stem, maps, "y", y_img, blocker)
    return _finish_stable_certificate(cert, pair, sig, proved)


def _record_fixes(cert: Certificate, stem: str, maps: list, name: str,
                  image: Polynomial | None = None,
                  blocker: CheckResult | None = None) -> CheckResult:
    """Record that the composite ``maps`` fixes generator ``name``: by its
    built ``image``, or as failed, without building it, because the check
    ``blocker`` failed."""
    var = Polynomial.variable(maps[0].sig, name)
    if blocker is not None:
        return cert.record_not_built(f"{stem}-fixes-{name}", maps, var, var,
                                     f"{blocker.name} failed")
    return cert.record_composition(f"{stem}-fixes-{name}", maps, var, image,
                                   var)


def _finish_stable_certificate(cert: Certificate, pair: StableEquivPair,
                               sig: RingSignature,
                               proved=(False, False)) -> Certificate:
    for i in range(1, sig.n + 1):
        name = f"x{i}"
        var = Polynomial.variable(sig, name)
        cert.record(f"phi-fixes-{name}", pair.phi.image(name), var)
        cert.record(f"psi-fixes-{name}", pair.psi.image(name), var)

    bound = stable_equivalence_degree_bound(pair)
    try:
        actual = max(_y_degree(pair.phi, proved[0]),
                     _y_degree(pair.psi, proved[1]))
        ok, details = actual <= bound, \
            f"max y-image degree {actual}, bound {bound}"
    except NotDivisible as err:
        ok, details = False, f"not built: {err}"
    cert.record_bool("degree-growth-bound", ok, details=details)
    return cert


# ---------------------------------------------------------------------------
# the end-to-end certificate
# ---------------------------------------------------------------------------

def theorem_certificate(n: int, k_max: int, c_samples=None) -> Certificate:
    """Aggregate certificate for the two headline phenomena.

    Part one: the members with q = t - 1 and q = t - 2 at level c = 1
    have non-isomorphic fibers (classes V_{0,1} vs V_{1,1}) and
    inequivalent defining polynomials, yet their cylinders are equivalent:
    an explicit chain (stable map of the first member, then the scaling
    automorphism linking the constant members, then the inverse stable
    map of the second) carries P_(t-1) - 1 exactly onto P_(t-2) - 1 in
    the w-ring, and the reverse chain inverts it on every generator.

    Part two: the power family q_k = (t - 1)^k for k up to ``k_max`` is
    pairwise inequivalent as hypersurfaces at level 0, fiberwise
    isomorphic at every sampled level, and each member is stably
    equivalent to its constant member; the constant members are linked by
    the sign automorphism, chaining all the P_(q_k) together.
    """
    check_dimension(n)
    check_int(k_max, "k_max")
    if k_max < 2:
        raise ValueError(
            f"need k_max >= 2 to exhibit at least two powers, got {k_max}")
    if c_samples is None:
        c_samples = [Fraction(0), Fraction(1), Fraction(2), Fraction(-1),
                     Fraction(1, 2)]
    c_samples = [rational(c) for c in c_samples]

    q_a = UnivariatePoly([-1, 1])       # t - 1
    q_b = UnivariatePoly([-2, 1])       # t - 2
    level = Fraction(1)
    spec_a = PqSpec(n, q_a, level)
    spec_b = PqSpec(n, q_b, level)

    cert = Certificate(
        "members with non-isomorphic fibers and inequivalent defining "
        "polynomials whose cylinders are equivalent, and a pairwise "
        "inequivalent power family that is fiberwise isomorphic and "
        "stably equivalent",
        {"n": str(n), "k_max": str(k_max),
         "c_samples": ", ".join(str(c) for c in c_samples)})
    cert.note("member A uses q(t) = t - 1, member B uses q(t) = t - 2, "
              "both at level c = 1; every identity below is certified for "
              "exactly these coefficients")

    # -- part one: two members, inequivalent alone, equivalent upstairs ---
    class_a, class_b = classify(spec_a), classify(spec_b)
    cert.record_bool(
        "fiber-classes-differ",
        class_a.label == "V_{0,1}" and class_b.label == "V_{1,1}"
        and not isomorphic(spec_a, spec_b),
        details=f"member A in {class_a.label}, member B in {class_b.label}")
    cert.record_bool("polynomials-not-equivalent",
                     decide_poly_equivalence(q_a, level, q_b, level) is None)
    cert.record_bool(
        "hypersurfaces-not-equivalent",
        decide_hypersurface_equivalence(q_a, level, q_b, level) is None)

    pair_a = build_stable_equivalence(q_a, n)
    pair_b = build_stable_equivalence(q_b, n)
    cert.absorb(verify_stable_equivalence(pair_a), "member-a-stable")
    cert.absorb(verify_stable_equivalence(pair_b), "member-b-stable")

    link = decide_poly_equivalence([q_a(Fraction(0))], level,
                                   [q_b(Fraction(0))], level)
    cert.record_bool(
        "constant-members-linked", link is not None
        and link.lam == 2,
        details="q(0) values -1 and -2 differ by the scaling lambda = 2")

    scale = build_poly_equiv_automorphism(link, n, has_w=True)
    scale_back = build_poly_equiv_automorphism(
        PolyEquivWitness(1 / link.lam), n, has_w=True)

    forward = [pair_b.psi, scale, pair_a.phi]
    backward = [pair_a.psi, scale_back, pair_b.phi]
    chain = pair_b.psi.compose(scale).compose(pair_a.phi)
    chain_back = pair_a.psi.compose(scale_back).compose(pair_b.phi)
    sig_w = pair_a.phi.sig
    shift = Polynomial.constant(sig_w, level)
    cert.record_composition(
        "cylinder-map-forward", forward,
        pair_a.p_q - shift, chain.apply(pair_a.p_q - shift),
        pair_b.p_q - shift)
    cert.record_composition(
        "cylinder-map-backward", backward,
        pair_b.p_q - shift, chain_back.apply(pair_b.p_q - shift),
        pair_a.p_q - shift)
    round_fwd = chain_back.compose(chain)
    round_bwd = chain.compose(chain_back)
    for name in sig_w.names:
        var = Polynomial.variable(sig_w, name)
        cert.record_composition(f"cylinder-round-trip-{name}",
                                backward + forward, var,
                                round_fwd.image(name), var)
        cert.record_composition(f"cylinder-round-trip-back-{name}",
                                forward + backward, var,
                                round_bwd.image(name), var)

    # -- part two: the power family ---------------------------------------
    # q_k = (t - 1)^k by the binomial theorem, constant coefficient first
    powers = {k: UnivariatePoly([(-1) ** (k - i) * math.comb(k, i)
                                 for i in range(k + 1)])
              for k in range(1, k_max + 1)}

    for j in range(1, k_max + 1):
        for k in range(j + 1, k_max + 1):
            cert.record_bool(
                f"powers-{j}-and-{k}-not-equivalent",
                decide_hypersurface_equivalence(
                    powers[j], 0, powers[k], 0) is None,
                details="supports have different degrees")
            for c in c_samples:
                cert.record_bool(
                    f"powers-{j}-and-{k}-fibers-isomorphic-at-c={c}",
                    isomorphic(PqSpec(n, powers[j], c),
                               PqSpec(n, powers[k], c)))

    for k in range(1, k_max + 1):
        pair_k = build_stable_equivalence(powers[k], n)
        cert.absorb(verify_stable_equivalence(pair_k), f"power-{k}-stable")

    # the constant members P_(-1) and P_(+1) are linked by lambda = -1,
    # so stable equivalence chains across all k by transitivity
    sign_link = build_poly_equiv_automorphism(
        PolyEquivWitness(Fraction(-1)), n, has_w=True)
    p_minus = build_Pq(PqSpec(n, [-1], 0), has_w=True)
    p_plus = build_Pq(PqSpec(n, [1], 0), has_w=True)
    cert.record_composition("constant-members-sign-link", [sign_link],
                            p_minus, sign_link.apply(p_minus), p_plus)
    cert.note("each power member is certified stably equivalent to its "
              "constant member, the two constant members are linked by "
              "the sign automorphism, and equivalence composes, so all "
              "power members are stably equivalent to one another")
    return cert
