"""The hypersurface family and its fiberwise structure.

The family studied here is, in the ring with variables x1..xn, y, z,

    P = x1^2*...*xn^2 * y + z^2 + x1*...*xn * q(z^2)

for a univariate polynomial q.  A :class:`PqSpec` bundles the dimension n,
the coefficient polynomial q, and a base value c; the fiber of interest is
the hypersurface P = c.

Key facts implemented and certified here:

* the fiber at c is isomorphic, as a variety, to the fiber at c of the
  family with q replaced by the constant q(c), via an explicit pair of
  mutually inverse maps whose round trips differ from the identity by an
  exact multiple of P - c;
* up to isomorphism the fiber depends only on two flags, whether q(c)
  vanishes and whether c vanishes, giving four classes.
"""

from __future__ import annotations

import enum
import json

from .certificate import Certificate
from .errors import DimensionMismatch, ParseError
from .exactfield import parse_scalar, rational
from .morphisms import RingEndomorphism
from .polyring import (Polynomial, RingSignature, UnivariatePoly,
                       difference_quotient, parse_json, rewrite_single_rule,
                       x_power_bracket)


class PqSpec:
    """One member of the family: dimension n, coefficient q, base value c."""

    __slots__ = ("n", "q", "c")

    def __init__(self, n: int, q, c=0):
        if n < 1:
            raise ValueError(f"need at least one x variable, got n={n}")
        self.n = int(n)
        self.q = q if isinstance(q, UnivariatePoly) else UnivariatePoly(q)
        self.c = rational(c)

    def signature(self, has_w: bool = False) -> RingSignature:
        return RingSignature(self.n, has_w=has_w)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PqSpec):
            return NotImplemented
        return (self.n, self.q, self.c) == (other.n, other.q, other.c)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"PqSpec(n={self.n}, q={self.q}, c={self.c})"

    def inputs_dict(self) -> dict[str, str]:
        return {"n": str(self.n), "q": str(self.q), "c": str(self.c)}

    def to_dict(self) -> dict:
        return {"n": self.n, "q": self.q.to_texts(), "c": str(self.c)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "PqSpec":
        if not (isinstance(data, dict) and isinstance(data.get("n"), int)
                and data["n"] >= 1 and isinstance(data.get("q"), list)
                and all(isinstance(text, str) for text in data["q"])
                and isinstance(data.get("c"), (int, str))
                and not isinstance(data["n"], bool)
                and not isinstance(data["c"], bool)):
            raise ParseError("a PqSpec is an object with an integer n >= 1, "
                             f"a list q of scalar texts and a level c, "
                             f"got {data!r}")
        q = UnivariatePoly([parse_scalar(text) for text in data["q"]])
        return cls(data["n"], q, rational(data["c"]))

    @classmethod
    def from_json(cls, text: str) -> "PqSpec":
        return cls.from_dict(parse_json(text))


def z_part(q: UnivariatePoly, z: Polynomial) -> Polynomial:
    """z^2 + x^[1]*q(z^2), the part of P_q without y, at ``z``.

    This is the one place the family's formula is written: P_q is
    x^[2]*y + z_part(q, z), the fiber relation solves x^[2]*y = c - z_part,
    and a map with z-image z' sends y to (target - z_part(q, z')) / x^[2].
    """
    zsq = z * z
    return zsq + x_power_bracket(z.sig, 1) * q.subs_into(zsq)


def build_Pq(spec: PqSpec, has_w: bool = False) -> Polynomial:
    """The defining polynomial x^[2]*y + z^2 + x^[1]*q(z^2)."""
    sig = spec.signature(has_w)
    return (x_power_bracket(sig, 2) * Polynomial.variable(sig, "y")
            + z_part(spec.q, Polynomial.variable(sig, "z")))


def constant_fiber_spec(spec: PqSpec) -> PqSpec:
    """The member with q replaced by the constant value q(c)."""
    return PqSpec(spec.n, UnivariatePoly([spec.q(spec.c)]), spec.c)


def reduce_mod_relation(p: Polynomial,
                        spec: PqSpec) -> tuple[Polynomial, int]:
    """Normal form of p modulo the relation P - c = 0.

    Rewrites every occurrence of the leading product x^[2]*y as
    c - z^2 - x^[1]*q(z^2) until none remains.  Each step strictly lowers
    the y-degree of the term it rewrites, so the process terminates, and
    because the rule eliminates y against x^[2] the result is a canonical
    representative: two polynomials are congruent modulo P - c if and only
    if their normal forms are equal whenever their y-degrees are fully
    reducible this way.
    """
    if p.sig.n != spec.n:
        raise DimensionMismatch(
            f"polynomial has {p.sig.n} x variables, spec has {spec.n}")
    return _fiber_reducer(spec, p.sig)(p)


def _fiber_reducer(spec: PqSpec, sig: RingSignature):
    """``reduce_mod_relation`` on polynomials in ``sig``, rule built once."""
    exps = (2,) * sig.n + (1, 0) + (0,) * sig.has_w
    rhs = spec.c - z_part(spec.q, Polynomial.variable(sig, "z"))
    return lambda p: rewrite_single_rule(p, exps, rhs)


class IsoClass(enum.Enum):
    """Isomorphism type of a fiber, indexed by two vanishing flags.

    The first flag is 1 when q(c) is nonzero, the second is 1 when c is
    nonzero.  Fibers with equal flag pairs are isomorphic as varieties
    (an explicit isomorphism factors through the constant-q member), and
    fibers with different flag pairs are not.
    """

    V_0_0 = (0, 0)
    V_0_1 = (0, 1)
    V_1_0 = (1, 0)
    V_1_1 = (1, 1)

    @property
    def qc_nonzero(self) -> int:
        return self.value[0]

    @property
    def c_nonzero(self) -> int:
        return self.value[1]

    @property
    def label(self) -> str:
        return f"V_{{{self.value[0]},{self.value[1]}}}"

    @classmethod
    def from_flags(cls, qc_nonzero: bool, c_nonzero: bool) -> "IsoClass":
        return cls((int(bool(qc_nonzero)), int(bool(c_nonzero))))

    def __str__(self) -> str:
        return self.label


def classify(spec: PqSpec) -> IsoClass:
    """Isomorphism class of the fiber P = c."""
    return IsoClass.from_flags(spec.q(spec.c) != 0, spec.c != 0)


def isomorphic(spec1: PqSpec, spec2: PqSpec) -> bool:
    """Whether the two fibers are isomorphic as varieties."""
    if spec1.n != spec2.n:
        raise DimensionMismatch(
            f"cannot compare fibers with n={spec1.n} and n={spec2.n}")
    return classify(spec1) == classify(spec2)


class FiberIsomorphism:
    """Explicit mutually inverse maps between a fiber and its constant twin.

    With g the divided difference (q(t) - q(c)) / (t - c) evaluated at z^2,
    and s = x1*...*xn:

    * ``phi`` fixes every x and z and sends y to (1 + s*g)*y + q(c)*g;
    * ``psi`` fixes every x and z and sends y to (1 - s*g)*y - q(z^2)*g.

    phi carries P - c onto (1 + s*g) times the constant member's P - c,
    psi carries the constant member's P - c onto (1 - s*g) times P - c,
    and both round trips fix y up to an exact multiple of the respective
    defining polynomial, so they are inverse on the hypersurfaces.
    """

    __slots__ = ("spec", "constant_spec", "g", "phi", "psi",
                 "unit_forward", "unit_backward")

    def __init__(self, spec: PqSpec):
        self.spec = spec
        self.constant_spec = constant_fiber_spec(spec)
        self.g = difference_quotient(spec.q, spec.c)

        sig = spec.signature()
        y = Polynomial.variable(sig, "y")
        z = Polynomial.variable(sig, "z")
        zsq = z * z
        s1 = x_power_bracket(sig, 1)
        g_at = self.g.subs_into(zsq)
        q_at = spec.q.subs_into(zsq)
        qc = spec.q(spec.c)

        self.unit_forward = Polynomial.constant(sig, 1) + s1 * g_at
        self.unit_backward = Polynomial.constant(sig, 1) - s1 * g_at
        self.phi = RingEndomorphism(sig, {
            "y": self.unit_forward * y + g_at * qc,
        })
        self.psi = RingEndomorphism(sig, {
            "y": self.unit_backward * y - q_at * g_at,
        })


def verify_fiber_isomorphism(spec: PqSpec) -> Certificate:
    """Certify the fiber isomorphism by exact polynomial identities."""
    iso = FiberIsomorphism(spec)
    sig = spec.signature()
    cert = Certificate(
        "fiber of x^[2]y + z^2 + x^[1]q(z^2) = c is isomorphic to the "
        "fiber of the member with constant q(c)",
        spec.inputs_dict())

    fiber_q = build_Pq(spec) - spec.c
    fiber_const = build_Pq(iso.constant_spec) - spec.c
    y = Polynomial.variable(sig, "y")
    g_at = iso.g.subs_into(
        Polynomial.variable(sig, "z") ** 2)

    cert.record("forward-factorization",
                iso.phi.apply(fiber_q), iso.unit_forward * fiber_const)
    cert.record("backward-factorization",
                iso.psi.apply(fiber_const), iso.unit_backward * fiber_q)

    round_fwd = iso.psi.compose(iso.phi)
    round_bwd = iso.phi.compose(iso.psi)
    cert.record_composition("round-trip-y-forward", [iso.psi, iso.phi],
                            y, round_fwd.image("y"),
                            y - g_at * g_at * fiber_q)
    cert.record_composition("round-trip-y-backward", [iso.phi, iso.psi],
                            y, round_bwd.image("y"),
                            y - g_at * g_at * fiber_const)
    for name in sig.names:
        if name == "y":
            continue
        cert.record(f"round-trip-fixes-{name}", round_fwd.image(name),
                    Polynomial.variable(sig, name))

    at_x_zero = {f"x{i}": 0 for i in range(1, sig.n + 1)}
    cert.record("unit-is-one-at-x-zero",
                iso.unit_forward.substitute(at_x_zero),
                Polynomial.constant(sig, 1))

    reduced, _ = reduce_mod_relation(round_fwd.image("y"), spec)
    cert.record("round-trip-y-reduces-to-y", reduced, y)
    return cert
