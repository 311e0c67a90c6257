from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest
from conftest import random_polynomial

from stably_distinct.errors import (MixedDiscriminant, NotDivisible,
                                    ParseError, ResourceLimit,
                                    SignatureMismatch, StablyDistinctError,
                                    UnknownVariable)
from stably_distinct.exactfield import parse_scalar, quadext
from stably_distinct.hypersurface import PqSpec
from stably_distinct.morphisms import (DeferredImage, Derivation,
                                      RingEndomorphism)
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
        assert e == RingEndomorphism(s, {})
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
        assert fwd.compose(back) == RingEndomorphism.identity(s)
        assert back.compose(fwd) == RingEndomorphism.identity(s)

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


class TestDeferredImage:
    """y -> (x1^2*y + x1^2*z^2)(y -> y + 1) / x1^2 = y + 1 + z^2."""

    def deferred(self, s=None, numerator="x1^2*y + x1^2*z^2"):
        s = s or sig1()
        return DeferredImage(parse_polynomial(s, numerator), "y",
                             parse_polynomial(s, "y + 1"),
                             parse_polynomial(s, "x1^2"), "y of the test map")

    def lazy(self):
        s = sig1()
        return RingEndomorphism(s, {"z": parse_polynomial(s, "2*z")},
                                deferred={"y": self.deferred(s)})

    def test_first_read_expands_once_and_keeps_the_data(self):
        m = self.lazy()
        assert "y" not in m.images
        assert repr(m) == "RingEndomorphism({'z': '2*z', 'y': 'deferred'})"
        got = m.image("y")
        assert got == parse_polynomial(m.sig, "y + z^2 + 1")
        assert m.image("y") is got
        assert "y" in m.deferred

    @pytest.mark.parametrize("read", [
        lambda m: m.apply(Polynomial.variable(m.sig, "y")),
        lambda m: m.compose(RingEndomorphism.identity(m.sig)),
        lambda m: m.to_dict(),
        lambda m: m == RingEndomorphism.identity(m.sig),
    ], ids=["apply", "compose", "to_dict", "eq"])
    def test_every_reader_expands(self, read):
        m = self.lazy()
        read(m)
        assert m.images["y"] == parse_polynomial(m.sig, "y + z^2 + 1")

    def test_equal_to_the_expanded_map(self):
        m = self.lazy()
        plain = RingEndomorphism(m.sig, {
            "y": parse_polynomial(m.sig, "y + z^2 + 1"),
            "z": parse_polynomial(m.sig, "2*z")})
        assert m.to_dict() == plain.to_dict()
        assert m.apply(parse_polynomial(m.sig, "y*z")) \
            == plain.apply(parse_polynomial(m.sig, "y*z"))

    def test_inexact_division_raises_on_read(self):
        s = sig1()
        m = RingEndomorphism(s, deferred={"y": self.deferred(s, "y + z")})
        with pytest.raises(NotDivisible):
            m.image("y")

    def test_limit_names_the_stage_and_keeps_the_data(self, monkeypatch):
        m = self.lazy()
        monkeypatch.setenv("STABLY_DISTINCT_TERM_LIMIT", "1")
        for _ in range(2):
            with pytest.raises(ResourceLimit,
                               match=r"^expanding y of the test map: "
                                     r"substitution of y"):
                m.image("y")
        monkeypatch.delenv("STABLY_DISTINCT_TERM_LIMIT")
        assert m.image("y") == parse_polynomial(m.sig, "y + z^2 + 1")

    def test_conflicts_are_refused(self):
        s = sig1()
        with pytest.raises(SignatureMismatch):
            RingEndomorphism(s, {"y": Polynomial.variable(s, "y")},
                             deferred={"y": self.deferred(s)})
        with pytest.raises(SignatureMismatch):
            RingEndomorphism(sig2(), deferred={"y": self.deferred(s)})
        with pytest.raises(UnknownVariable):
            RingEndomorphism(s, deferred={"w": self.deferred(s)})
        with pytest.raises(SignatureMismatch):
            DeferredImage(Polynomial.variable(s, "y"), "y",
                          Polynomial.variable(sig2(), "y"),
                          Polynomial.constant(s, 1), "mixed")
        for divisor in ("2*x1^2", "x1 + 1", "0"):
            with pytest.raises(StablyDistinctError, match="monomial"):
                DeferredImage(Polynomial.variable(s, "y"), "y",
                              Polynomial.variable(s, "y"),
                              parse_polynomial(s, divisor), "not monic")


class TestDerivation:
    def test_zero_by_default(self):
        s = sig1()
        d = Derivation(s)
        assert all(d.image(name).is_zero() for name in s.names)
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


READERS = [RingEndomorphism.from_json, PqSpec.from_json, Derivation.from_json]


@pytest.mark.parametrize("read", READERS,
                         ids=["endomorphism", "spec", "derivation"])
def test_deeply_nested_json_raises_parse_error(read):
    with pytest.raises(ParseError, match="nested too deeply"):
        read("[" * 100000)


def test_coefficient_past_the_int_digit_limit_raises_parse_error():
    text = '{"n": 1, "q": ["1", "%s"], "c": "0"}' % ("7" * 5000)
    with pytest.raises(ParseError, match="number too long"):
        PqSpec.from_json(text)


class TestOneQuadraticField:
    def test_two_fields_in_one_polynomial(self):
        with pytest.raises(MixedDiscriminant, match=r"sqrt\(2\).*sqrt\(3\)"):
            parse_polynomial(sig1(), "(0+1*sqrt(2))*x1 + (0+1*sqrt(3))*y")

    @pytest.mark.parametrize("images", [
        {"x1": "x1", "y": "(0+1*sqrt(2))*x1 + (0+1*sqrt(3))*y", "z": "z"},
        {"x1": "x1", "y": "(0+1*sqrt(2))*y", "z": "(0+1*sqrt(3))*z"},
    ], ids=["one-image", "two-images"])
    def test_map_reader_refuses_two_fields(self, images):
        with pytest.raises(MixedDiscriminant):
            RingEndomorphism.from_json(json.dumps(images))

    def test_one_field_in_several_monomials_loads(self):
        e = RingEndomorphism.from_json(json.dumps({
            "x1": "x1", "y": "(0+1*sqrt(2))*x1 + (1-1*sqrt(2))*y",
            "z": "(0+1*sqrt(2))*z"}))
        assert e.image("y") == parse_polynomial(
            sig1(), "(0+1*sqrt(2))*x1 + (1-1*sqrt(2))*y")
        assert RingEndomorphism.from_json(e.to_json()) == e

    def test_cancelled_second_field_leaves_one(self):
        assert parse_polynomial(
            sig1(), "(0+1*sqrt(2))*x1 + (0+1*sqrt(3))*y - (0+1*sqrt(3))*y"
        ) == parse_polynomial(sig1(), "(0+1*sqrt(2))*x1")
