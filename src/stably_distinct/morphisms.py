"""Ring endomorphisms and derivations of the polynomial rings.

An endomorphism is stored by its images on the generators; applying it is
simultaneous substitution.  An image may also be kept as the data that
defines it, a :class:`DeferredImage`, and expanded on first read.  A
derivation is likewise stored by its values on the generators and extended
to the whole ring by the Leibniz rule.  Both serialize to JSON as
``{generator name: polynomial text}`` so that every witness map produced by
this package can be persisted and re-checked.
"""

from __future__ import annotations

import json
from typing import Mapping, Union

from .errors import (NotDivisible, ParseError, ResourceLimit,
                     SignatureMismatch, StablyDistinctError, UnknownVariable)
from .exactfield import Scalar
from .polyring import (Polynomial, RingSignature, UnivariatePoly,
                       check_one_field, exact_divide, parse_json,
                       parse_polynomial)

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
        for name in getattr(self, "deferred", ()):
            moved.setdefault(name, "deferred")
        return f"{type(self).__name__}({moved or self._unmoved})"


class DeferredImage:
    """A y-image kept as the data that defines it: the image
    (target - z_part(q, Z(target))) / divisor of a map with z-image
    Z(target) that sends P_q = x^[2]*y + z_part(q, z) to ``target``.

    ``z_sym`` is Z over a symbol S for the target, held in the y slot;
    ``q`` is the map's q, ``divisor`` a monic monomial.  :meth:`expand`
    forms N = S - z_part(q, Z) over the symbol, sends S to the target and
    divides; nothing else forms N.  ``stage`` names the image in the
    :class:`ResourceLimit` that the expansion raises when an intermediate
    passes the term limit, and in the :class:`NotDivisible` it raises
    when the division is not exact.
    """

    __slots__ = ("z_sym", "q", "target", "divisor", "stage")

    def __init__(self, z_sym: Polynomial, q: UnivariatePoly,
                 target: Polynomial, divisor: Polynomial, stage: str):
        for part in (target, divisor):
            if part.sig != z_sym.sig:
                raise SignatureMismatch(
                    f"{stage}: {part.sig.names} against {z_sym.sig.names}")
        if list(divisor.terms.values()) != [1]:
            raise StablyDistinctError(
                f"{stage}: the divisor must be a monomial, got {divisor}")
        self.z_sym = z_sym
        self.q = q
        self.target = target
        self.divisor = divisor
        self.stage = stage

    def expand(self) -> Polynomial:
        # hypersurface imports this module
        from .hypersurface import z_part
        symbol = Polynomial.variable(self.z_sym.sig, "y")
        try:
            numerator = symbol - z_part(self.q, self.z_sym)
            return exact_divide(numerator.substitute({"y": self.target}),
                                self.divisor)
        except (ResourceLimit, NotDivisible) as err:
            raise type(err)(f"expanding {self.stage}: {err}") from None


class RingEndomorphism(_GeneratorMap):
    """A ring map determined by where it sends each generator.

    ``deferred`` holds the images kept as :class:`DeferredImage`; each is
    expanded on its first read, through :meth:`image` or any method that
    reads every image, and the expansion is then stored with the others.
    The defining data stays, so a verifier can still read it.
    """

    __slots__ = ("deferred",)
    _unmoved = "identity"

    def __init__(self, sig: RingSignature,
                 images: Mapping[str, PolyLike] | None = None,
                 deferred: Mapping[str, DeferredImage] | None = None):
        super().__init__(sig, images)
        self.deferred = dict(deferred or {})
        for name, later in self.deferred.items():
            sig.index(name)
            if name in self.images or later.target.sig != sig:
                raise SignatureMismatch(
                    f"deferred image of {name} conflicts with the map")

    def _default_image(self, name: str) -> Polynomial:
        return Polynomial.variable(self.sig, name)

    def image(self, name: str) -> Polynomial:
        if name in self.deferred and name not in self.images:
            self.images[name] = self.deferred[name].expand()
        return super().image(name)

    @classmethod
    def identity(cls, sig: RingSignature) -> "RingEndomorphism":
        return cls(sig)

    def apply(self, p: Polynomial) -> Polynomial:
        self._check_argument(p)
        for name in self.deferred:
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
