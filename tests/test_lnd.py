from __future__ import annotations

import random
from fractions import Fraction

import pytest
from conftest import random_polynomial, spec_corpus

from stably_distinct.errors import ExceededCap, NotAMultiple
from stably_distinct.hypersurface import PqSpec, build_Pq, reduce_mod_relation
from stably_distinct.lnd import (build_Delta, decompose_as_Delta_multiple,
                                 nilpotency_index, nilpotency_index_bound,
                                 verify_lnd)
from stably_distinct.morphisms import Derivation
from stably_distinct.polyring import (Polynomial, parse_polynomial,
                                      x_power_bracket)


class TestBuildDelta:
    def test_images_n1(self):
        spec = PqSpec(1, [-1, 1], 1)    # q = t - 1, q' = 1
        delta = build_Delta(spec)
        sig = spec.signature()
        assert delta.image("z") == parse_polynomial(sig, "x1^2")
        assert delta.image("y") == parse_polynomial(sig, "-2*z - 2*x1*z")
        assert delta.image("x1").is_zero()

    def test_images_constant_q(self):
        spec = PqSpec(2, [5], 0)        # q' = 0
        delta = build_Delta(spec)
        sig = spec.signature()
        assert delta.image("y") == parse_polynomial(sig, "-2*z")
        assert delta.image("z") == parse_polynomial(sig, "x1^2*x2^2")

    def test_kills_defining_polynomial_exactly(self):
        # Delta(P - c) = 0 in the polynomial ring itself, for the corpus
        for n, q, c in spec_corpus():
            spec = PqSpec(n, q, c)
            delta = build_Delta(spec)
            assert delta.apply(build_Pq(spec) - spec.c).is_zero()


class TestNilpotencyIndex:
    def test_generator_examples(self):
        spec = PqSpec(1, [0], 0)        # q = 0, n = 1
        delta = build_Delta(spec)
        sig = spec.signature()
        assert nilpotency_index(delta, Polynomial.variable(sig, "x1")) == 1
        assert nilpotency_index(delta, Polynomial.variable(sig, "z")) == 2
        assert nilpotency_index(delta, Polynomial.variable(sig, "y")) == 3
        assert nilpotency_index(delta, Polynomial.zero(sig)) == 0

    def test_higher_degree_coefficient(self):
        # q = (t-1)^2: Delta(y) has z-degree 3, index of y grows to 5
        spec = PqSpec(1, [1, -2, 1], 1)
        delta = build_Delta(spec)
        y = Polynomial.variable(spec.signature(), "y")
        assert nilpotency_index(delta, y) == 5

    def test_always_nilpotent_on_random_inputs(self):
        rng = random.Random(40)
        spec = PqSpec(2, [1, -2, 1], 1)
        delta = build_Delta(spec)
        sig = spec.signature()
        for _ in range(20):
            p = random_polynomial(sig, rng, max_deg=4, max_terms=4)
            index = nilpotency_index(delta, p)
            assert index <= nilpotency_index_bound(spec, p)

    def test_bound_is_tight_on_generators_and_y_powers(self):
        for q in ([0], [0, 1], [1, -2, 1]):
            spec = PqSpec(1, q, 0)
            sig = spec.signature()
            delta = build_Delta(spec)
            y = Polynomial.variable(sig, "y")
            b = delta.image("y").degree_in("z")
            assert nilpotency_index(delta, y) == b + 2
            assert nilpotency_index_bound(spec, y) == b + 2
            for p in (Polynomial.variable(sig, "x1"),
                      Polynomial.variable(sig, "z"), y * y):
                assert nilpotency_index(delta, p) == \
                    nilpotency_index_bound(spec, p)

    def test_cap(self):
        spec = PqSpec(1, [0], 0)
        sig = spec.signature()
        # a derivation that is not nilpotent: z -> z
        delta = Derivation(sig, {"z": Polynomial.variable(sig, "z")})
        with pytest.raises(ExceededCap):
            nilpotency_index(delta, Polynomial.variable(sig, "z"), cap=10)


class TestDecompose:
    def test_recovers_multiplier(self):
        rng = random.Random(41)
        for n, q, c in [(1, [-1, 1], 1), (2, [1, -2, 1], 0),
                        (2, [0, 0, 1], 2)]:
            spec = PqSpec(n, q, c)
            sig = spec.signature()
            core = build_Delta(spec)
            for _ in range(5):
                exps = tuple(rng.randrange(3) for _ in range(n))
                h = Polynomial.monomial(
                    sig, exps + (0, 0),
                    Fraction(rng.randrange(1, 5), rng.randrange(1, 3)))
                delta = Derivation(sig, {
                    "z": h * core.image("z"),
                    "y": h * core.image("y"),
                })
                assert decompose_as_Delta_multiple(delta, spec) == h

    def test_identity_multiplier(self):
        spec = PqSpec(2, [-2, 1], 1)
        core = build_Delta(spec)
        h = decompose_as_Delta_multiple(core, spec)
        assert h == Polynomial.constant(spec.signature(), 1)

    def test_multiplier_hidden_by_relation(self):
        # adding multiples of P - c to the images must not block recovery
        spec = PqSpec(1, [-1, 1], 1)
        sig = spec.signature()
        core = build_Delta(spec)
        fiber = build_Pq(spec) - spec.c
        noise = parse_polynomial(sig, "z + 3")
        delta = Derivation(sig, {
            "z": core.image("z") + noise * fiber,
            "y": core.image("y") - 2 * fiber,
        })
        h = decompose_as_Delta_multiple(delta, spec)
        assert h == Polynomial.constant(sig, 1)

    def test_rejects_nonzero_x_image(self):
        spec = PqSpec(1, [0, 1], 0)
        sig = spec.signature()
        core = build_Delta(spec)
        delta = Derivation(sig, {"x1": 1, "z": core.image("z"),
                                 "y": core.image("y")})
        with pytest.raises(NotAMultiple) as err:
            decompose_as_Delta_multiple(delta, spec)
        assert "x1" in str(err.value)

    def test_rejects_non_tangent(self):
        spec = PqSpec(1, [0, 1], 0)
        sig = spec.signature()
        delta = Derivation(sig, {"z": x_power_bracket(sig, 2),
                                 "y": Polynomial.constant(sig, 1)})
        with pytest.raises(NotAMultiple) as err:
            decompose_as_Delta_multiple(delta, spec)
        assert "tangent" in str(err.value)

    def test_rejects_indivisible_z_image(self):
        spec = PqSpec(2, [0], 0)
        sig = spec.signature()
        core = build_Delta(spec)
        # z-image x1^2*x2 misses one power of x2; keep it tangent by
        # scaling the y-image consistently with d(P) = 0 failing anyway
        delta = Derivation(sig, {"z": parse_polynomial(sig, "x1^2*x2"),
                                 "y": core.image("y")})
        with pytest.raises(NotAMultiple):
            decompose_as_Delta_multiple(delta, spec)

    def test_rejects_non_x_multiplier(self):
        spec = PqSpec(1, [0], 0)
        sig = spec.signature()
        core = build_Delta(spec)
        zmul = Polynomial.variable(sig, "z")
        delta = Derivation(sig, {"z": zmul * core.image("z"),
                                 "y": zmul * core.image("y")})
        with pytest.raises(NotAMultiple) as err:
            decompose_as_Delta_multiple(delta, spec)
        assert "x-only" in str(err.value) or "involves" in str(err.value)

    def test_rejects_y_mismatch(self):
        spec = PqSpec(1, [0], 0)
        sig = spec.signature()
        core = build_Delta(spec)
        delta = Derivation(sig, {"z": core.image("z"),
                                 "y": core.image("y")
                                 + x_power_bracket(sig, 2) * 7})
        with pytest.raises(NotAMultiple) as err:
            decompose_as_Delta_multiple(delta, spec)
        assert "y-image" in str(err.value) or "tangent" in str(err.value)


class TestVerifyLnd:
    def test_passes_on_corpus_sample(self):
        for n, q, c in [(1, [0], 0), (1, [-1, 1], 1), (2, [1, -2, 1], 2),
                        (3, [-2, 1], 1), (2, [Fraction(1, 2), 0, 2], 0)]:
            cert = verify_lnd(PqSpec(n, q, c))
            assert cert.passed, cert.to_text()

    def test_check_names(self):
        cert = verify_lnd(PqSpec(2, [-1, 1], 1))
        names = {check.name for check in cert.checks}
        assert {"kills-defining-polynomial", "kills-x1", "kills-x2",
                "nilpotent-on-y", "self-decomposition"} <= names
