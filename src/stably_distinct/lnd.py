"""The distinguished locally nilpotent derivation of each family member.

Every member P = x^[2]y + z^2 + x^[1]q(z^2) carries its Jacobian derivation
in (z, y), Delta(z) = dP/dy and Delta(y) = -dP/dz, that is

    Delta(z) = x^[2],
    Delta(y) = -2z * (1 + x^[1] * q'(z^2)),
    Delta(x_i) = 0,

which kills P - c identically in the polynomial ring (not merely modulo the
relation), hence descends to the coordinate ring of every fiber.  Repeated
application sends any polynomial to zero: each step either lowers the
z-degree or trades a power of y for a bounded amount of z, which yields the
explicit nilpotency bound implemented below.

The module also recognizes when another derivation is an x-only multiple of
Delta on a given fiber, recovering the multiplier exactly or reporting the
first structural obstruction.
"""

from __future__ import annotations

from .errors import ExceededCap, NotAMultiple, NotDivisible, SignatureMismatch
from .hypersurface import PqSpec, _fiber_reducer, build_Pq
from .morphisms import Derivation
from .polyring import Polynomial, exact_divide, x_power_bracket


def build_Delta(spec: PqSpec) -> Derivation:
    """The Jacobian derivation of P = build_Pq(spec): Delta(z) = dP/dy and
    Delta(y) = -dP/dz, that is x^[2] d/dz - 2z(1 + x^[1]q'(z^2)) d/dy."""
    p = build_Pq(spec)
    return Derivation(p.sig, {"z": p.partial_derivative("y"),
                              "y": -p.partial_derivative("z")})


def nilpotency_index(delta: Derivation, p: Polynomial, cap: int = 64) -> int:
    """Smallest m with delta^m(p) = 0.

    Raises :class:`ExceededCap` after ``cap`` applications without
    reaching zero.
    """
    if p.sig != delta.sig:
        raise SignatureMismatch(
            f"polynomial lives in {p.sig.names}, expected {delta.sig.names}")
    count = 0
    while not p.is_zero():
        if count >= cap:
            raise ExceededCap(
                f"still nonzero after {cap} applications of the derivation")
        p = delta.apply(p)
        count += 1
    return count


def nilpotency_index_bound(spec: PqSpec, p: Polynomial) -> int:
    """Upper bound deg_z(p) + (deg_z(Delta(y)) + 1) * deg_y(p) + 1.

    With B = deg_z(Delta(y)): the index of z^a is a + 1 (each step trades
    one z for x-factors), the index of y is B + 2 (one step to a z-poly of
    degree B, then B + 1 more), and for products the Leibniz rule gives
    index(f*g) <= index(f) + index(g) - 1.  A monomial z^a y^b therefore
    has index at most a + b*(B + 1) + 1, and a sum is killed once every
    monomial is.  The bound is attained on each generator and on powers
    of y.
    """
    delta = build_Delta(spec)
    b = max(delta.image("y").degree_in("z"), 0)
    a = max(p.degree_in("z"), 0)
    return a + (b + 1) * max(p.degree_in("y"), 0) + 1


def decompose_as_Delta_multiple(delta: Derivation,
                                spec: PqSpec) -> Polynomial:
    """Write delta as h * Delta on the fiber, with h in the x-only subring.

    Returns the multiplier h when delta agrees with h * Delta modulo the
    relation P - c on every generator; raises :class:`NotAMultiple` with
    the first obstruction otherwise.
    """
    sig = spec.signature()
    if delta.sig != sig:
        raise SignatureMismatch(
            f"derivation lives in {delta.sig.names}, expected {sig.names}")
    core = build_Delta(spec)
    reduce = _fiber_reducer(spec, sig)

    def reduced(p: Polynomial) -> Polynomial:
        return reduce(p)[0]

    for i in range(1, sig.n + 1):
        name = f"x{i}"
        if not reduced(delta.image(name)).is_zero():
            raise NotAMultiple(
                f"image of {name} is nonzero on the fiber, but every "
                f"multiple of the core derivation kills {name}")

    fiber = build_Pq(spec) - spec.c
    if not reduced(delta.apply(fiber)).is_zero():
        raise NotAMultiple(
            "not tangent to the hypersurface: the defining polynomial is "
            "not sent into its own ideal")

    z_image = reduced(delta.image("z"))
    try:
        multiplier = exact_divide(z_image, x_power_bracket(sig, 2))
    except NotDivisible as err:
        raise NotAMultiple(
            f"z-image {z_image} is not divisible by x^[2]") from err

    non_x = [name for name in ("y", "z")
             if multiplier.degree_in(name) > 0]
    if non_x:
        raise NotAMultiple(
            f"candidate multiplier {multiplier} involves {non_x}; it must "
            f"lie in the x-only subring")

    mismatch = reduced(delta.image("y") - multiplier * core.image("y"))
    if not mismatch.is_zero():
        raise NotAMultiple(
            f"y-image differs from the multiple by {mismatch} on the fiber")
    return multiplier


def verify_lnd(spec: PqSpec) -> "Certificate":
    """Certify the core derivation's defining properties for one member."""
    from .certificate import Certificate

    sig = spec.signature()
    delta = build_Delta(spec)
    fiber = build_Pq(spec) - spec.c
    cert = Certificate(
        "the derivation x^[2] d/dz - 2z(1 + x^[1]q'(z^2)) d/dy kills "
        "P - c identically and is locally nilpotent",
        spec.inputs_dict())

    cert.record("kills-defining-polynomial", delta.apply(fiber))
    for i in range(1, sig.n + 1):
        cert.record(f"kills-x{i}", delta.image(f"x{i}"))

    for name in sig.names:
        p = Polynomial.variable(sig, name)
        index = nilpotency_index(delta, p)
        bound = nilpotency_index_bound(spec, p)
        cert.record_bool(
            f"nilpotent-on-{name}", index <= bound,
            details=f"index {index}, bound {bound}")

    # second application of the derivation to z always vanishes: the
    # z-image is x-only
    cert.record("second-application-on-z",
                delta.apply(delta.image("z")))

    # the derivation is recoverable as the multiple 1 of itself
    try:
        h = decompose_as_Delta_multiple(delta, spec)
        cert.record("self-decomposition", h, Polynomial.constant(sig, 1))
    except NotAMultiple as err:
        cert.record_bool("self-decomposition", False, details=str(err))
    return cert
