from __future__ import annotations

import random
from fractions import Fraction

import pytest
from conftest import random_polynomial

from stably_distinct.errors import (ParseError, SignatureMismatch,
                                    UnknownVariable)
from stably_distinct.exactfield import parse_scalar, quadext
from stably_distinct.hypersurface import PqSpec
from stably_distinct.morphisms import Derivation, RingEndomorphism
from stably_distinct.polyring import (Polynomial, RingSignature,
                                      parse_polynomial)


def sig1():
    return RingSignature(1)


def sig2():
    return RingSignature(2)


class TestEndomorphism:
    def test_identity(self):
        s = sig2()
        e = RingEndomorphism.identity(s)
        assert e.is_identity()
        p = parse_polynomial(s, "x1*x2*y - z")
        assert e.apply(p) == p

    def test_image_defaults_to_variable(self):
        s = sig1()
        e = RingEndomorphism(s, {"z": parse_polynomial(s, "z + 1")})
        assert e.image("y") == Polynomial.variable(s, "y")
        assert e.image("z") == parse_polynomial(s, "z + 1")
        with pytest.raises(UnknownVariable):
            e.image("w")

    def test_apply_is_ring_map(self):
        rng = random.Random(20)
        s = sig2()
        e = RingEndomorphism(s, {
            "y": parse_polynomial(s, "y + z^2"),
            "z": parse_polynomial(s, "z - x1"),
        })
        for _ in range(40):
            a = random_polynomial(s, rng, max_deg=4, max_terms=5)
            b = random_polynomial(s, rng, max_deg=4, max_terms=5)
            assert e.apply(a + b) == e.apply(a) + e.apply(b)
            assert e.apply(a * b) == e.apply(a) * e.apply(b)

    def test_compose_order(self):
        # f: z -> z + 1, g: z -> 2z, as ring maps fixing constants.
        # (f after g)(z) = f(g(z)) = f(2z) = 2*f(z) = 2z + 2.
        s = sig1()
        f = RingEndomorphism(s, {"z": parse_polynomial(s, "z + 1")})
        g = RingEndomorphism(s, {"z": parse_polynomial(s, "2*z")})
        assert f.compose(g).image("z") == parse_polynomial(s, "2*z + 2")
        assert g.compose(f).image("z") == parse_polynomial(s, "2*z + 1")

    def test_compose_matches_pointwise_application(self):
        rng = random.Random(21)
        s = sig2()
        f = RingEndomorphism(s, {"y": parse_polynomial(s, "y + x1"),
                                 "z": parse_polynomial(s, "z^2")})
        g = RingEndomorphism(s, {"x1": parse_polynomial(s, "x1 + x2"),
                                 "z": parse_polynomial(s, "z - 1")})
        fg = f.compose(g)
        for _ in range(20):
            p = random_polynomial(s, rng, max_deg=3, max_terms=4)
            assert fg.apply(p) == f.apply(g.apply(p))

    def test_compose_associative(self):
        s = sig1()
        maps = [
            RingEndomorphism(s, {"z": parse_polynomial(s, "z + 1")}),
            RingEndomorphism(s, {"y": parse_polynomial(s, "y*z")}),
            RingEndomorphism(s, {"z": parse_polynomial(s, "x1*z")}),
        ]
        a, b, c = maps
        assert a.compose(b).compose(c) == a.compose(b.compose(c))

    def test_inverse_pair_composes_to_identity(self):
        s = sig1()
        lam = Fraction(3)
        fwd = RingEndomorphism(s, {
            "x1": Polynomial.variable(s, "x1") * lam,
            "y": Polynomial.variable(s, "y") / (lam * lam),
        })
        back = RingEndomorphism(s, {
            "x1": Polynomial.variable(s, "x1") / lam,
            "y": Polynomial.variable(s, "y") * (lam * lam),
        })
        assert fwd.compose(back).is_identity()
        assert back.compose(fwd).is_identity()

    def test_signature_guards(self):
        e = RingEndomorphism(sig1())
        with pytest.raises(SignatureMismatch):
            e.apply(Polynomial.variable(sig2(), "z"))
        with pytest.raises(SignatureMismatch):
            e.compose(RingEndomorphism(sig2()))
        with pytest.raises(UnknownVariable):
            RingEndomorphism(sig1(), {"w": 1})

    def test_scalar_images_lifted(self):
        s = sig1()
        e = RingEndomorphism(s, {"y": 5})
        assert e.image("y") == Polynomial.constant(s, 5)

    def test_json_roundtrip(self):
        s = RingSignature(2, has_w=True)
        e = RingEndomorphism(s, {"y": parse_polynomial(s, "y + w^2"),
                                 "w": parse_polynomial(s, "w - x1*x2")})
        again = RingEndomorphism.from_json(e.to_json())
        assert again == e and again.sig == s
        surd = RingEndomorphism(s, {"z": Polynomial.variable(s, "z")
                                    * quadext(1, 1, 2)})
        again = RingEndomorphism.from_json(surd.to_json())
        assert again == surd and again.to_json() == surd.to_json()

    def test_json_roundtrip_is_deterministic(self):
        s = sig1()
        e = RingEndomorphism(s, {"z": parse_polynomial(s, "z + 1/2")})
        assert e.to_json() == RingEndomorphism.from_json(e.to_json()).to_json()

    def test_from_dict_rejects_gappy_generator_sets(self):
        with pytest.raises(UnknownVariable):
            RingEndomorphism.from_dict({"x1": "x1", "z": "z"})  # no y
        with pytest.raises(UnknownVariable):
            RingEndomorphism.from_dict({"x1": "x1", "x3": "x3",
                                        "y": "y", "z": "z"})


class TestDerivation:
    def test_zero_by_default(self):
        s = sig1()
        d = Derivation(s)
        assert d.is_zero()
        assert d.apply(parse_polynomial(s, "x1^2*y + z^2")).is_zero()

    def test_partial_derivative_case(self):
        s = sig1()
        d = Derivation(s, {"z": 1})
        p = parse_polynomial(s, "x1*z^3 + y")
        assert d.apply(p) == p.partial_derivative("z")

    def test_linearity_and_leibniz(self):
        rng = random.Random(22)
        s = sig2()
        d = Derivation(s, {"y": parse_polynomial(s, "x1^2*x2^2"),
                           "z": parse_polynomial(s, "y - z")})
        for _ in range(40):
            a = random_polynomial(s, rng, max_deg=4, max_terms=5)
            b = random_polynomial(s, rng, max_deg=4, max_terms=5)
            assert d.apply(a + b) == d.apply(a) + d.apply(b)
            assert d.apply(a * b) == d.apply(a) * b + a * d.apply(b)

    def test_kills_constants(self):
        s = sig1()
        d = Derivation(s, {"y": 1, "z": parse_polynomial(s, "x1")})
        assert d.apply(Polynomial.constant(s, Fraction(7, 3))).is_zero()

    def test_json_roundtrip(self):
        s = sig2()
        d = Derivation(s, {"z": parse_polynomial(s, "x1^2*x2^2"),
                           "y": parse_polynomial(s, "-2*z")})
        again = Derivation.from_json(d.to_json())
        assert again == d
        surd = Derivation(s, {"y": Polynomial.variable(s, "z")
                              * quadext(0, -3, 2)})
        again = Derivation.from_json(surd.to_json())
        assert again == surd and again.to_json() == surd.to_json()

    def test_signature_guard(self):
        d = Derivation(sig1(), {"z": 1})
        with pytest.raises(SignatureMismatch):
            d.apply(Polynomial.variable(sig2(), "z"))


@pytest.mark.parametrize("read", [
    lambda: RingEndomorphism.from_json('{"x1": 5, "y": "y", "z": "z"}'),
    lambda: RingEndomorphism.from_json("[]"),
    lambda: RingEndomorphism.from_json("{"),
    lambda: RingEndomorphism.from_json("{}"),
    lambda: Derivation.from_json('{"y": "z", "z": "y"}'),
    lambda: PqSpec.from_json('{"n": 1}'),
    lambda: PqSpec.from_json('{"n": 0, "q": ["1"], "c": "0"}'),
    lambda: PqSpec.from_json('{"n": 1, "q": [1], "c": "0"}'),
    lambda: PqSpec.from_json("[1]"),
    lambda: parse_polynomial(sig1(), "1/0*y"),
    lambda: parse_polynomial(sig1(), "(1+1*sqrt(1/0))*y"),
    lambda: parse_scalar("1/0+1*sqrt(2)"),
], ids=["non-text-image", "json-list", "broken-json", "no-generators",
        "no-x-generator", "spec-missing-keys", "spec-n-zero",
        "spec-q-not-text", "spec-not-object", "zero-denominator",
        "zero-denominator-in-surd", "scalar-zero-denominator"])
def test_malformed_input_raises_parse_error(read):
    with pytest.raises(ParseError):
        read()
