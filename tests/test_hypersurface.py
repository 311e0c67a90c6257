from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest
from conftest import dense_power, spec_corpus

from stably_distinct.certificate import run_schwartz_zippel
from stably_distinct.errors import DimensionMismatch, ParseError
from stably_distinct.exactfield import quadext
from stably_distinct.hypersurface import (FiberIsomorphism, IsoClass, PqSpec,
                                          build_Pq, classify,
                                          constant_fiber_spec, isomorphic,
                                          reduce_mod_relation,
                                          verify_fiber_isomorphism)
from stably_distinct.morphisms import RingEndomorphism
from stably_distinct.polyring import (Polynomial, RingSignature,
                                      UnivariatePoly, parse_polynomial)


class TestPqSpec:
    def test_construction(self):
        spec = PqSpec(2, [-1, 1], c=1)
        assert spec.q == UnivariatePoly([-1, 1])
        assert spec.c == Fraction(1)
        with pytest.raises(ValueError):
            PqSpec(0, [1])

    @pytest.mark.parametrize("n", [2.7, True, "2"])
    def test_non_int_dimension_is_refused(self, n):
        # truncating 2.7 to n = 2 would certify a member nobody asked for
        with pytest.raises(ParseError, match=re.escape(repr(n))):
            PqSpec(n, [-1, 1], 1)

    def test_json_roundtrip(self):
        spec = PqSpec(3, [Fraction(1, 2), 0, 2], c=Fraction(-1, 3))
        again = PqSpec.from_json(spec.to_json())
        assert again == spec
        assert spec.to_json() == again.to_json()
        surd = PqSpec(1, [quadext(0, 1, 2), 1], c=1)
        again = PqSpec.from_json(surd.to_json())
        assert again == surd
        assert surd.to_json() == again.to_json()

    @pytest.mark.parametrize("text", [
        '{"n": true, "q": ["1"], "c": "0"}',
        '{"n": 1, "q": ["1"], "c": false}',
    ])
    def test_json_rejects_booleans(self, text):
        with pytest.raises(ParseError, match="PqSpec"):
            PqSpec.from_json(text)
        assert PqSpec.from_json(text.replace("true", "1")
                                .replace("false", "0")) == PqSpec(1, [1])


class TestBuildPq:
    def test_n1_example(self):
        spec = PqSpec(1, [-1, 1])  # q = t - 1
        sig = RingSignature(1)
        assert build_Pq(spec) == parse_polynomial(
            sig, "x1^2*y + z^2 + x1*z^2 - x1")

    def test_n2_example(self):
        spec = PqSpec(2, [0, 1])   # q = t
        sig = RingSignature(2)
        assert build_Pq(spec) == parse_polynomial(
            sig, "x1^2*x2^2*y + z^2 + x1*x2*z^2")

    def test_constant_q(self):
        spec = PqSpec(1, [5])
        assert build_Pq(spec) == parse_polynomial(
            RingSignature(1), "x1^2*y + z^2 + 5*x1")

    def test_with_w_variable(self):
        spec = PqSpec(1, [0, 1])
        p = build_Pq(spec, has_w=True)
        assert p.sig == RingSignature(1, has_w=True)
        assert p == parse_polynomial(p.sig, "x1^2*y + z^2 + x1*z^2")

    def test_term_count_independent_of_n(self):
        # every monomial has equal exponents across the x block, so the
        # polynomial has the same number of terms for every n
        for q in ([0, 1], [1, -2, 1], [Fraction(1, 2), 0, 2]):
            counts = {build_Pq(PqSpec(n, q, 1)).term_count()
                      for n in (1, 2, 3, 4)}
            assert len(counts) == 1


class TestReduceModRelation:
    def test_defining_polynomial_reduces_to_c(self):
        for n, q, c in [(1, [-1, 1], 1), (2, [1, -2, 1], 2),
                        (3, [0, 0, 1], 0)]:
            spec = PqSpec(n, q, c)
            reduced, steps = reduce_mod_relation(build_Pq(spec), spec)
            assert reduced == Polynomial.constant(spec.signature(), spec.c)
            assert steps == 1

    def test_irreducible_fixed(self):
        spec = PqSpec(1, [0, 1], 1)
        sig = spec.signature()
        p = parse_polynomial(sig, "x1*y + z^3")
        reduced, steps = reduce_mod_relation(p, spec)
        assert reduced == p and steps == 0

    def test_higher_powers_terminate(self):
        spec = PqSpec(1, [0, 1], 0)  # relation: x1^2*y = -z^2 - x1*z^2
        sig = spec.signature()
        p = parse_polynomial(sig, "x1^4*y^2")
        reduced, steps = reduce_mod_relation(p, spec)
        assert reduced == parse_polynomial(
            sig, "z^4 + 2*x1*z^4 + x1^2*z^4")
        assert steps >= 2

    def test_congruence_invariant(self):
        # adding any multiple of P - c must not change the normal form
        rng = random.Random(30)
        spec = PqSpec(2, [1, -2, 1], 1)
        sig = spec.signature()
        fiber = build_Pq(spec) - spec.c
        from conftest import random_polynomial
        for _ in range(25):
            p = random_polynomial(sig, rng, max_deg=3, max_terms=4)
            h = random_polynomial(sig, rng, max_deg=2, max_terms=3)
            nf1, _ = reduce_mod_relation(p, spec)
            nf2, _ = reduce_mod_relation(p + h * fiber, spec)
            assert nf1 == nf2

    def test_dimension_guard(self):
        spec = PqSpec(2, [0, 1], 0)
        with pytest.raises(DimensionMismatch):
            reduce_mod_relation(Polynomial.variable(RingSignature(1), "y"),
                                spec)

    def test_w_signature_supported(self):
        spec = PqSpec(1, [0, 1], 1)
        sig = RingSignature(1, has_w=True)
        p = parse_polynomial(sig, "x1^2*y*w")
        reduced, _ = reduce_mod_relation(p, spec)
        assert reduced == parse_polynomial(sig, "w - z^2*w - x1*z^2*w")


class TestClassify:
    def test_flag_table(self):
        cases = [
            (PqSpec(1, [0, 1], 0), IsoClass.V_0_0),    # q=t,   c=0: q(0)=0
            (PqSpec(1, [-1, 1], 1), IsoClass.V_0_1),   # q=t-1, c=1: q(1)=0
            (PqSpec(1, [1], 0), IsoClass.V_1_0),       # q=1,   c=0
            (PqSpec(1, [-2, 1], 1), IsoClass.V_1_1),   # q=t-2, c=1: q(1)=-1
        ]
        for spec, expected in cases:
            assert classify(spec) is expected

    def test_labels(self):
        assert IsoClass.V_0_1.label == "V_{0,1}"
        assert str(IsoClass.V_1_0) == "V_{1,0}"
        assert IsoClass.from_flags(True, False) is IsoClass.V_1_0

    def test_independent_of_power(self):
        # q = (t-1)^k: q(c) = (c-1)^k vanishes exactly when c = 1, so the
        # class of each fiber does not depend on k
        for c in (0, 1, 2, Fraction(1, 2)):
            classes = set()
            for k in range(1, 5):
                power = UnivariatePoly(dense_power([-1, 1], k))
                classes.add(classify(PqSpec(1, power, c)))
            assert len(classes) == 1

    def test_independent_of_n(self):
        for n in (1, 2, 3):
            assert classify(PqSpec(n, [-2, 1], 1)) is IsoClass.V_1_1

    def test_isomorphic_predicate(self):
        a = PqSpec(2, [-1, 1], 1)       # V_{0,1}
        b = PqSpec(2, [1, -2, 1], 1)    # (t-1)^2, still V_{0,1}
        c = PqSpec(2, [-2, 1], 1)       # V_{1,1}
        assert isomorphic(a, b)
        assert not isomorphic(a, c)
        with pytest.raises(DimensionMismatch):
            isomorphic(a, PqSpec(1, [-1, 1], 1))


class TestFiberIsomorphism:
    def test_explicit_n1_example(self):
        # q = t - 1, c = 1: divided difference is 1, q(c) = 0
        spec = PqSpec(1, [-1, 1], 1)
        iso = FiberIsomorphism(spec)
        sig = spec.signature()
        assert iso.g == UnivariatePoly([1])
        assert iso.phi.image("y") == parse_polynomial(sig, "y + x1*y")
        assert iso.psi.image("y") == parse_polynomial(
            sig, "y - x1*y - z^2 + 1")
        assert iso.phi.image("z") == Polynomial.variable(sig, "z")

    def test_certificate_passes_on_corpus(self):
        for n, q, c in spec_corpus():
            cert = verify_fiber_isomorphism(PqSpec(n, q, c))
            assert cert.passed, cert.to_text()

    def test_certificate_check_names(self):
        cert = verify_fiber_isomorphism(PqSpec(2, [1, -2, 1], 1))
        names = {check.name for check in cert.checks}
        assert {"forward-factorization", "backward-factorization",
                "round-trip-y-forward", "round-trip-y-backward",
                "unit-is-one-at-x-zero",
                "round-trip-y-reduces-to-y"} <= names

    def test_schwartz_zippel_attaches(self):
        cert = verify_fiber_isomorphism(PqSpec(1, [-2, 1], 1))
        added = run_schwartz_zippel(cert, random.Random(7), points=20)
        assert added >= 6
        assert cert.passed

    def test_identities_have_teeth(self):
        # corrupting the forward map by a constant breaks the exact
        # factorization, so the certified identity is not vacuous
        spec = PqSpec(1, [-1, 1], 1)
        iso = FiberIsomorphism(spec)
        sig = spec.signature()
        bad_phi = RingEndomorphism(sig, {"y": iso.phi.image("y") + 1})
        fiber_q = build_Pq(spec) - spec.c
        fiber_const = build_Pq(constant_fiber_spec(spec)) - spec.c
        assert bad_phi.apply(fiber_q) != iso.unit_forward * fiber_const

    def test_constant_spec(self):
        spec = PqSpec(2, [-2, 1], 3)   # q(3) = 1
        const = constant_fiber_spec(spec)
        assert const.q == UnivariatePoly([1])
        assert const.c == 3 and const.n == 2
