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

from .certificate import Certificate
from .errors import (DimensionMismatch, InvalidWitness, NotASquare,
                     NotDecidableInField, StablyDistinctError)
from .exactfield import (QuadExt, as_scalar, quadext, rational,
                         rational_nth_root, sqrt_in_field)
from .hypersurface import PqSpec, build_Pq, classify, isomorphic
from .morphisms import RingEndomorphism
from .polyring import (Polynomial, RingSignature, UnivariatePoly,
                       exact_divide, half_t_quotient, x_power_bracket)


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
    if q1.support() != q2.support():
        return None
    if q1.is_zero():
        return PolyEquivWitness(Fraction(1))
    j = q1.support()[0]
    lam = q2[j] / q1[j]
    for k in q1.support():
        if q2[k] != lam * q1[k]:
            return None
    return PolyEquivWitness(lam)


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


def _relations_hold(q1: UnivariatePoly, q2: UnivariatePoly, lam, mu) -> bool:
    return all(q2[j] == lam * mu ** j * q1[j] for j in q1.support())


def _bezout_root(rhos: dict[int, Fraction]) -> tuple[int, Fraction]:
    """Given mu^m = rho_m for each gap m, derive (g, rho_g) with g the gcd.

    Combines the relations with the extended Euclidean algorithm so that
    rho_g is an explicit product of integer powers of the given rho_m.
    """
    gaps = sorted(rhos)
    g = gaps[0]
    value = rhos[g]
    for m in gaps[1:]:
        new_g = math.gcd(g, m)
        # a, b with a*g + b*m = new_g
        a, b = _bezout_pair(g, m)
        value = value ** a * rhos[m] ** b
        g = new_g
    return g, value


def _bezout_pair(a: int, b: int) -> tuple[int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_s, s = s, old_s - quot * s
        old_t, t = t, old_t - quot * t
    return old_s, old_t


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
      mu^(j-j0) = rho_j; the gcd of the gaps pins down mu^g via the
      extended Euclidean algorithm, solvability over the complex numbers
      is the exact condition rho_j = rho_g^((j-j0)/g), and the root is
      extracted in the rationals or one quadratic extension when
      possible — otherwise :class:`NotDecidableInField` reports the
      missing relation.  A verdict of None is only returned when no
      complex witness exists at all.

    When the coefficients lie in Q(sqrt(d)), that is the one extension
    allowed.  An odd root of an irrational rho that may exist in it is not
    searched for; that case raises a plain :class:`StablyDistinctError`.
    """
    q1, q2 = _as_q(q1), _as_q(q2)
    c1, c2 = rational(c1), rational(c2)
    if q1.support() != q2.support():
        return None
    if (c1 == 0) != (c2 == 0):
        return None

    if q1.is_zero():
        if c1 == 0:
            return HyperEquivWitness(Fraction(1), Fraction(1), Fraction(1))
        return _attach_eps(Fraction(1), c1 / c2)

    # the d of Q(sqrt(d)) when the coefficients live there, else None
    d = next((c.d for c in q1.coeffs + q2.coeffs
              if isinstance(c, QuadExt)), None)
    j0 = q1.support()[0]
    base = q2[j0] / q1[j0]          # equals lambda * mu^j0

    if c1 != 0:
        mu = c1 / c2
        lam = base / mu ** j0
        if not _relations_hold(q1, q2, lam, mu):
            return None
        return _attach_eps(lam, mu, d)

    gaps = [j - j0 for j in q1.support() if j != j0]
    if not gaps:
        # single-term q: mu is free; normalize to 1
        return _attach_eps(base, Fraction(1))

    rhos = {m: (q2[j0 + m] / q1[j0 + m]) / base for m in gaps}
    g, rho_g = _bezout_root(rhos)
    for m in gaps:
        if rhos[m] != rho_g ** (m // g):
            return None                     # no complex solution either

    last_obstruction: NotDecidableInField | None = None
    try:
        candidates = _mu_candidates(rho_g, g, d)
    except NotDecidableInField as err:
        raise NotDecidableInField(
            f"mu^{g} = {rho_g} ({err.relation})") from None
    for mu in candidates:
        lam = base / mu ** j0
        if not _relations_hold(q1, q2, lam, mu):
            continue
        try:
            return _attach_eps(lam, mu, d)
        except NotDecidableInField as err:
            last_obstruction = err
    if last_obstruction is not None:
        raise last_obstruction
    raise NotDecidableInField(
        f"mu^{g} = {rho_g} admits no in-field root compatible with all "
        f"coefficient relations")


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
    sig = RingSignature(n)
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


def _cylinder_images(sign: int, rho: Polynomial, z: Polynomial,
                     w: Polynomial, target: Polynomial, q: UnivariatePoly):
    """The (y, z, w) images of one map of the cylinder pair.

    With s = x^[1] and sigma = ``sign``:

        z' = (1 - sigma*s*rho)z + sigma*x^[2]w
        w' = (1 + sigma*s*rho)w - sigma*rho^2 z
        y' = (target - z'^2 - s*q(z'^2)) / x^[2]

    so the map sends P_q (with this q) to ``target``; the division is
    exact by construction (NotDivisible here would mean a genuine bug).
    Given another map's images of z and w, and that map's images of rho
    and of the target, the same formulas give the images of the composite.
    """
    s1 = x_power_bracket(z.sig, 1)
    s2 = x_power_bracket(z.sig, 2)
    twist = s1 * rho * sign
    z_img = (1 - twist) * z + s2 * sign * w
    w_img = (1 + twist) * w - rho * rho * sign * z
    zsq = z_img * z_img
    y_img = exact_divide(target - zsq - s1 * q.subs_into(zsq), s2)
    return y_img, z_img, w_img


def build_stable_equivalence(q, n: int) -> StableEquivPair:
    """Construct the automorphism pair linking P_q with P_(q(0)).

    With s = x^[1], r the half-quotient (q(t) - q(0)) / (2t), and the
    shorthand rho = r evaluated at a defining polynomial:

        phi(z) = (1 - s*r(P0))z + x^[2]w
        phi(w) = (1 + s*r(P0))w - r(P0)^2 z
        psi(z) = (1 + s*r(Pq))z - x^[2]w
        psi(w) = (1 - s*r(Pq))w + r(Pq)^2 z

    and the y-images are the unique solutions of phi(P_q) = P0 and
    psi(P0) = P_q; all six come from :func:`_cylinder_images`.
    """
    q = _as_q(q)
    sig = RingSignature(n, has_w=True)
    r = half_t_quotient(q)
    p_q = build_Pq(PqSpec(n, q, 0), has_w=True)
    p_zero = build_Pq(PqSpec(n, [q(Fraction(0))], 0), has_w=True)

    if q.degree() <= 0:
        # constant q: the two members coincide, nothing to untwist
        ident = RingEndomorphism.identity(sig)
        return StableEquivPair(n, q, r, ident, ident, p_q, p_zero)

    z = Polynomial.variable(sig, "z")
    w = Polynomial.variable(sig, "w")
    phi_y, phi_z, phi_w = _cylinder_images(1, r.subs_into(p_zero), z, w,
                                           p_zero, q)
    psi_y, psi_z, psi_w = _cylinder_images(-1, r.subs_into(p_q), z, w, p_q,
                                           UnivariatePoly([q(Fraction(0))]))
    phi = RingEndomorphism(sig, {"y": phi_y, "z": phi_z, "w": phi_w})
    psi = RingEndomorphism(sig, {"y": psi_y, "z": psi_z, "w": psi_w})
    return StableEquivPair(n, q, r, phi, psi, p_q, p_zero)


def stable_equivalence_degree_bound(pair: StableEquivPair) -> int:
    """Growth bound 2*max(deg q, 1)^2 * deg(P_(q(0))) + 2 on deg(phi(y)).

    The deepest nesting is q evaluated at phi(z)^2, where phi(z) already
    contains r composed with the defining polynomial; multiplying the two
    composition depths gives the square on deg q.
    """
    k = max(pair.q.degree(), 1)
    return 2 * k * k * pair.p_zero.degree() + 2


def verify_stable_equivalence(pair: StableEquivPair, q=None,
                              n: int | None = None) -> Certificate:
    """Certify the pair: exact images and identity round trips.

    The two image identities phi(P_q) = P0 and psi(P0) = P_q are checked
    by direct substitution.  The round trips go through the builder of
    the pair, by the substitution homomorphism property: phi(psi(v)) is
    psi's formula with z, w, r(P_q) and P_q replaced by phi(z), phi(w),
    r(phi(P_q)) and the already-computed phi(P_q), and symmetrically for
    psi(phi(v)).  Every intermediate object stays small (when the pair is
    right, the y-image dividend is the single term x^[2]y), while the
    result is an exact computation of the same polynomial as blind
    composition.  Each composite check also carries a numeric hook that
    re-verifies it from the generator images alone.
    """
    if q is not None and _as_q(q) != pair.q:
        raise InvalidWitness("pair was built for a different q")
    if n is not None and n != pair.n:
        raise DimensionMismatch(
            f"pair was built for n={pair.n}, asked to verify n={n}")

    sig = pair.phi.sig
    phi, psi = pair.phi, pair.psi
    q_poly = pair.q
    r = pair.r

    cert = Certificate(
        "P_q and the constant member P_(q(0)) are equivalent after adding "
        "one cylinder variable",
        {"n": str(pair.n), "q": str(q_poly)})

    phi_of_pq = phi.apply(pair.p_q)
    psi_of_p0 = psi.apply(pair.p_zero)
    cert.record_composition("phi-sends-family-to-constant", [phi],
                            pair.p_q, phi_of_pq, pair.p_zero)
    cert.record_composition("psi-sends-constant-to-family", [psi],
                            pair.p_zero, psi_of_p0, pair.p_q)

    if q_poly.degree() <= 0:
        # constant q: the pair is the identity and composition is cheap
        fwd = phi.compose(psi)
        bwd = psi.compose(phi)
        for name in ("z", "w", "y"):
            var = Polynomial.variable(sig, name)
            cert.record_composition(f"phi-after-psi-fixes-{name}",
                                    [phi, psi], var, fwd.image(name), var)
            cert.record_composition(f"psi-after-phi-fixes-{name}",
                                    [psi, phi], var, bwd.image(name), var)
        return _finish_stable_certificate(cert, pair, sig)

    round_trips = (
        ("phi-after-psi", [phi, psi], _cylinder_images(
            -1, r.subs_into(phi_of_pq), phi.image("z"), phi.image("w"),
            phi_of_pq, UnivariatePoly([q_poly(Fraction(0))]))),
        ("psi-after-phi", [psi, phi], _cylinder_images(
            1, r.subs_into(psi_of_p0), psi.image("z"), psi.image("w"),
            psi_of_p0, q_poly)))
    for stem, maps, (y_img, z_img, w_img) in round_trips:
        for name, image in (("z", z_img), ("w", w_img), ("y", y_img)):
            var = Polynomial.variable(sig, name)
            cert.record_composition(f"{stem}-fixes-{name}", maps, var,
                                    image, var)
    return _finish_stable_certificate(cert, pair, sig)


def _finish_stable_certificate(cert: Certificate, pair: StableEquivPair,
                               sig: RingSignature) -> Certificate:
    for i in range(1, sig.n + 1):
        name = f"x{i}"
        var = Polynomial.variable(sig, name)
        cert.record(f"phi-fixes-{name}", pair.phi.image(name), var)
        cert.record(f"psi-fixes-{name}", pair.psi.image(name), var)

    bound = stable_equivalence_degree_bound(pair)
    actual = max(pair.phi.image("y").degree(), pair.psi.image("y").degree())
    cert.record_bool("degree-growth-bound", actual <= bound,
                     details=f"max y-image degree {actual}, bound {bound}")
    return cert


# ---------------------------------------------------------------------------
# brute-force oracle for hypersurface equivalence (rational witnesses)
# ---------------------------------------------------------------------------

def brute_force_hyper_equivalence(q1, c1, q2, c2) \
        -> HyperEquivWitness | None:
    """Independent rational-mu search by exhaustive candidate enumeration.

    Candidate values for mu are c1/c2 (when both levels are nonzero) and
    the rational roots of mu^(j-i) = ratio for every pair i < j in the
    common support; every candidate is checked against all coefficient
    relations and the level relation.  Any valid rational mu necessarily
    appears among the candidates, so a None here means no rational-mu
    witness exists.  Used as a cross-check oracle for
    :func:`decide_hypersurface_equivalence`.
    """
    q1, q2 = _as_q(q1), _as_q(q2)
    c1, c2 = rational(c1), rational(c2)
    if q1.support() != q2.support():
        return None
    if (c1 == 0) != (c2 == 0):
        return None
    if q1.is_zero():
        if c1 == 0:
            return HyperEquivWitness(Fraction(1), Fraction(1), Fraction(1))
        return _attach_eps(Fraction(1), c1 / c2)

    support = q1.support()
    candidates = set()
    if c1 != 0:
        candidates.add(c1 / c2)
    else:
        if len(support) == 1:
            candidates.add(Fraction(1))
        for a_idx in range(len(support)):
            for b_idx in range(a_idx + 1, len(support)):
                i, j = support[a_idx], support[b_idx]
                ratio = (q2[j] * q1[i]) / (q1[j] * q2[i])
                root = rational_nth_root(ratio, j - i)
                if root is None:
                    continue
                candidates.add(root)
                if (j - i) % 2 == 0:
                    candidates.add(-root)

    j0 = support[0]
    for mu in sorted(candidates):
        if mu == 0:
            continue
        if c1 != 0 and c2 != c1 / mu:
            continue
        lam = (q2[j0] / q1[j0]) / mu ** j0
        if _relations_hold(q1, q2, lam, mu):
            return _attach_eps(lam, mu)
    return None


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
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
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

    chain = pair_b.psi.compose(scale).compose(pair_a.phi)
    chain_back = pair_a.psi.compose(scale_back).compose(pair_b.phi)
    sig_w = pair_a.phi.sig
    shift = Polynomial.constant(sig_w, level)
    cert.record_composition(
        "cylinder-map-forward", [pair_b.psi, scale, pair_a.phi],
        pair_a.p_q - shift, chain.apply(pair_a.p_q - shift),
        pair_b.p_q - shift)
    cert.record_composition(
        "cylinder-map-backward", [pair_a.psi, scale_back, pair_b.phi],
        pair_b.p_q - shift, chain_back.apply(pair_b.p_q - shift),
        pair_a.p_q - shift)
    round_fwd = chain_back.compose(chain)
    round_bwd = chain.compose(chain_back)
    for name in sig_w.names:
        var = Polynomial.variable(sig_w, name)
        cert.record(f"cylinder-round-trip-{name}",
                    round_fwd.image(name), var)
        cert.record(f"cylinder-round-trip-back-{name}",
                    round_bwd.image(name), var)

    # -- part two: the power family ---------------------------------------
    powers: dict[int, UnivariatePoly] = {}
    base = UnivariatePoly([-1, 1])
    acc = base
    for k in range(1, k_max + 1):
        powers[k] = acc
        acc = acc * base

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
