"""Ring endomorphisms and derivations of the polynomial rings.

An endomorphism is stored by its images on the generators; applying it is
simultaneous substitution.  A map of the stable pair may instead keep its
z-, w- and y-images as one record of the data that defines them, a
:class:`DeferredImage`, and expand each on first read.  A
derivation is likewise stored by its values on the generators and extended
to the whole ring by the Leibniz rule.  Both serialize to JSON as
``{generator name: polynomial text}`` so that every witness map produced by
this package can be persisted and re-checked.
"""

from __future__ import annotations

import json
from typing import Mapping, Union

from .errors import (NotDivisible, ParseError, ResourceLimit,
                     SignatureMismatch, UnknownVariable)
from .exactfield import Scalar
from .polyring import (Polynomial, RingSignature, UnivariatePoly,
                       check_one_field, exact_divide, parse_json,
                       parse_polynomial, x_power_bracket)

PolyLike = Union[Polynomial, Scalar, int]


def _lift(sig: RingSignature, value: PolyLike) -> Polynomial:
    if isinstance(value, Polynomial):
        if value.sig != sig:
            raise SignatureMismatch(
                f"image lives in {value.sig.names}, expected {sig.names}")
        return value
    return Polynomial.constant(sig, value)


def _normalize_images(sig: RingSignature,
                      images: Mapping[str, PolyLike]) -> dict[str, Polynomial]:
    out: dict[str, Polynomial] = {}
    for name, value in images.items():
        sig.index(name)  # raises UnknownVariable for names outside the ring
        out[name] = _lift(sig, value)
    return out


def _infer_signature(keys) -> RingSignature:
    """Recover a ring signature from the set of generator names."""
    n = sum(1 for k in keys if k.startswith("x"))
    if n == 0:
        raise ParseError(f"no x generator among {sorted(keys)}")
    sig = RingSignature(n, has_w="w" in keys)
    missing = set(sig.names) - set(keys)
    extra = set(keys) - set(sig.names)
    if missing or extra:
        raise UnknownVariable(
            f"generator set does not form a ring: missing {sorted(missing)}, "
            f"unexpected {sorted(extra)}")
    return sig


class _GeneratorMap:
    """A map of the ring stored by its images on the generators.

    Generators without a stored image take the class's default image:
    themselves for an endomorphism, zero for a derivation.
    """

    __slots__ = ("sig", "images")
    _unmoved = ""

    def __init__(self, sig: RingSignature,
                 images: Mapping[str, PolyLike] | None = None):
        self.sig = sig
        self.images = _normalize_images(sig, images or {})

    def _default_image(self, name: str) -> Polynomial:
        raise NotImplementedError

    def image(self, name: str) -> Polynomial:
        got = self.images.get(name)
        if got is None:
            self.sig.index(name)
            return self._default_image(name)
        return got

    def _check_argument(self, p: Polynomial) -> None:
        if p.sig != self.sig:
            raise SignatureMismatch(
                f"argument lives in {p.sig.names}, expected {self.sig.names}")

    def __call__(self, p: Polynomial) -> Polynomial:
        return self.apply(p)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.sig == other.sig and all(
            self.image(name) == other.image(name) for name in self.sig.names)

    __hash__ = None  # type: ignore[assignment]

    def to_dict(self) -> dict[str, str]:
        return {name: str(self.image(name)) for name in self.sig.names}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, str]):
        if not isinstance(data, Mapping) or not all(
                isinstance(text, str) for text in data.values()):
            raise ParseError("a map is an object from generator names to "
                             f"polynomial text, got {data!r}")
        sig = _infer_signature(data.keys())
        images = {name: parse_polynomial(sig, text)
                  for name, text in data.items()}
        check_one_field(c for image in images.values()
                        for c in image.terms.values())
        return cls(sig, images)

    @classmethod
    def from_json(cls, text: str):
        return cls.from_dict(parse_json(text))

    def __repr__(self) -> str:
        moved = {name: str(img) for name, img in self.images.items()
                 if img != self._default_image(name)}
        if getattr(self, "record", None) is not None:
            for name in self.sig.names[self.sig.n:]:
                moved.setdefault(name, "deferred")
        return f"{type(self).__name__}({moved or self._unmoved})"


class DeferredImage:
    """The z-, w- and y-images of a map kept as the data that defines
    them: the map sends z to Z(target), w to W(target) and y to
    (target - z_part(q, Z(target))) / x^[2], so it sends P_q =
    x^[2]*y + z_part(q, z) to ``target``.

    ``z_sym`` and ``w_sym`` are Z and W over a symbol S for the target,
    held in the y slot, and ``q`` is the map's q.  The family fixes the
    divisor x^[2], as ``hypersurface.z_part`` fixes x^[1].
    :meth:`expand` sends S to the target in Z or W, or forms N = S -
    z_part(q, Z) over the symbol, sends S to the target and divides;
    nothing else forms N.  ``label`` names the map in the
    :class:`ResourceLimit` that an expansion raises when an intermediate
    passes the term limit, and in the :class:`NotDivisible` it raises
    when the division is not exact.  Two records are equal when their
    data are; the label plays no part.
    """

    __slots__ = ("z_sym", "w_sym", "q", "target", "label")

    def __init__(self, z_sym: Polynomial, w_sym: Polynomial,
                 q: UnivariatePoly, target: Polynomial, label: str):
        for part in (w_sym, target):
            if part.sig != z_sym.sig:
                raise SignatureMismatch(
                    f"{label}: {part.sig.names} against {z_sym.sig.names}")
        self.z_sym = z_sym
        self.w_sym = w_sym
        self.q = q
        self.target = target
        self.label = label

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DeferredImage):
            return NotImplemented
        return (self.z_sym, self.w_sym, self.q, self.target) \
            == (other.z_sym, other.w_sym, other.q, other.target)

    def expand(self, name: str) -> Polynomial:
        """The image of generator ``name``: z, w or y."""
        # hypersurface imports this module
        from .hypersurface import z_part
        at_target = {"y": self.target}
        try:
            if name == "y":
                numerator = (Polynomial.variable(self.z_sym.sig, "y")
                             - z_part(self.q, self.z_sym))
                return exact_divide(numerator.substitute(at_target),
                                    x_power_bracket(self.target.sig, 2))
            return {"z": self.z_sym, "w": self.w_sym}[name].substitute(
                at_target)
        except (ResourceLimit, NotDivisible) as err:
            raise type(err)(f"expanding {self.label}({name}) of the stable "
                            f"pair: {err}") from None


class RingEndomorphism(_GeneratorMap):
    """A ring map determined by where it sends each generator.

    A map is given either by ``images`` or by a ``record``, a
    :class:`DeferredImage` of its ring.  A map with a record fixes every
    x_i and takes its z-, w- and y-images from the record.  Each is
    expanded on its first read, through :meth:`image` or any method that
    reads every image, and the expansion is then stored with the others.
    The record stays, so a verifier can still read it, and two maps with
    equal records are equal without expanding either.
    """

    __slots__ = ("record",)
    _unmoved = "identity"

    def __init__(self, sig: RingSignature,
                 images: Mapping[str, PolyLike] | None = None,
                 record: DeferredImage | None = None):
        super().__init__(sig, images)
        if record is not None and (self.images or record.target.sig != sig):
            raise SignatureMismatch(
                "a map takes its images or a record of its ring, not both")
        self.record = record

    def _default_image(self, name: str) -> Polynomial:
        return Polynomial.variable(self.sig, name)

    def image(self, name: str) -> Polynomial:
        if self.record is not None and name not in self.images \
                and self.sig.index(name) >= self.sig.n:
            self.images[name] = self.record.expand(name)
        return super().image(name)

    def __eq__(self, other: object) -> bool:
        if self is other or (isinstance(other, RingEndomorphism)
                             and self.record is not None
                             and self.record == other.record):
            return True
        try:
            return super().__eq__(other)
        except NotDivisible:
            # a record whose y-image does not divide is no polynomial map
            return False

    @classmethod
    def identity(cls, sig: RingSignature) -> "RingEndomorphism":
        return cls(sig)

    def apply(self, p: Polynomial) -> Polynomial:
        self._check_argument(p)
        if self.record is not None:
            for name in self.sig.names[self.sig.n:]:
                self.image(name)
        return p.substitute(self.images)

    def compose(self, other: "RingEndomorphism") -> "RingEndomorphism":
        """Return self after other: the map sending v to self(other(v))."""
        if other.sig != self.sig:
            raise SignatureMismatch("cannot compose maps of different rings")
        images = {name: self.apply(other.image(name))
                  for name in self.sig.names}
        return RingEndomorphism(self.sig, images)


class Derivation(_GeneratorMap):
    """A derivation determined by its values on the generators.

    Extended to arbitrary polynomials by linearity and the Leibniz rule:
    delta(p) = sum over generators v of (dp/dv) * delta(v).
    """

    __slots__ = ()
    _unmoved = "zero"

    def _default_image(self, name: str) -> Polynomial:
        return Polynomial.zero(self.sig)

    def apply(self, p: Polynomial) -> Polynomial:
        self._check_argument(p)
        total = Polynomial.zero(self.sig)
        for name, value in self.images.items():
            if value.is_zero():
                continue
            total = total + p.partial_derivative(name) * value
        return total
