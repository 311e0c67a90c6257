"""The numeric re-check in F_p against exact evaluation and known faults.

Residue-table evaluation must agree with ``Polynomial.evaluate`` reduced
mod p: on rational coefficients with denominators, on crowded polynomials
whose terms share half-monomials, on zero, on coefficients in Q(sqrt(2))
and Q(sqrt(1/2)), and at points in Q(sqrt(d)) for d = 2, 1/2 and -1.
Re-checks must still run when 2^61 - 1 divides a denominator (and raise
when every modulus divides one), must refuse polynomials whose
coefficients lie in two quadratic fields, in one check or across two,
must fail exactly the corrupted one of two checks sharing a map chain,
must fail on a phi(y) with one coefficient off by one, must push each
point through a shared chain once, must read the stored maps of the
round trips rather than their composites, and must stay out of the
symbolic construction and verification.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stably_distinct import certificate
from stably_distinct.certificate import (MODULI, Certificate, _CompositionSz,
                                         _evaluate_mod, _Recheck, _residue,
                                         _residue_table, run_schwartz_zippel)
from stably_distinct.equivalence import (StableEquivPair,
                                         build_stable_equivalence,
                                         theorem_certificate,
                                         verify_stable_equivalence)
from stably_distinct.errors import MixedDiscriminant, StablyDistinctError
from stably_distinct.exactfield import quadext
from stably_distinct.hypersurface import PqSpec, verify_fiber_isomorphism
from stably_distinct.morphisms import RingEndomorphism
from stably_distinct.polyring import (Polynomial, RingSignature,
                                      UnivariatePoly, parse_polynomial)

SIG = RingSignature(2, has_w=True)
P = MODULI[0]

exponents = st.tuples(*[st.integers(0, 4)] * SIG.nvars)
rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def quadratic(d):
    # b = 0 makes quadext return a Fraction, so these mix both kinds
    return st.builds(lambda a, b: quadext(a, b, d), rationals, rationals)


def polynomials(coeffs):
    return st.dictionaries(exponents, coeffs, max_size=8).map(
        lambda terms: Polynomial(SIG, {e: c for e, c in terms.items() if c}))


points = st.lists(st.integers(0, P - 1), min_size=SIG.nvars,
                  max_size=SIG.nvars)


def modular_value(poly: Polynomial, values: list, p: int):
    return _evaluate_mod(_residue_table(poly, p, {}), values, p)


def exact_value(poly: Polynomial, values: list, p: int):
    return _residue(poly.evaluate(dict(zip(SIG.names, values))), p, {})


@st.composite
def crowded_polynomials(draw):
    """Up to 40 terms over n = 1..3, with or without w (3 to 6 variables,
    so both odd and even split points), exponents in 0..2 so that terms
    share their halves; the zero polynomial included."""
    sig = RingSignature(draw(st.integers(1, 3)), has_w=draw(st.booleans()))
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 2)] * sig.nvars),
                                 rationals.filter(bool), max_size=40))
    values = draw(st.lists(st.integers(0, P - 1), min_size=sig.nvars,
                           max_size=sig.nvars))
    return Polynomial(sig, terms), values


class TestEvaluationMatchesExact:
    @settings(deadline=None)
    @given(polynomials(rationals), points, st.sampled_from(MODULI))
    def test_rational_coefficients(self, poly, values, p):
        values = [v % p for v in values]
        assert modular_value(poly, values, p) == exact_value(poly, values, p)

    @settings(deadline=None, max_examples=200)
    @given(crowded_polynomials())
    def test_shared_half_monomials(self, case):
        poly, values = case
        exact = _residue(poly.evaluate(dict(zip(poly.sig.names, values))),
                         P, {})
        assert _evaluate_mod(_residue_table(poly, P, {}), values, P) == exact

    @pytest.mark.parametrize("n,has_w", [(1, False), (1, True), (2, False),
                                         (2, True), (3, False), (3, True)])
    def test_zero_polynomial(self, n, has_w):
        sig = RingSignature(n, has_w)
        table = _residue_table(Polynomial.zero(sig), P, {})
        assert _evaluate_mod(table, list(range(1, sig.nvars + 1)), P) == 0

    @pytest.mark.parametrize("d", [2, Fraction(1, 2)], ids=["2", "1/2"])
    @settings(deadline=None)
    @given(data=st.data())
    def test_quadratic_coefficients(self, d, data):
        poly = data.draw(polynomials(quadratic(d)))
        values = data.draw(points)
        assert modular_value(poly, values, P) == exact_value(poly, values, P)

    @pytest.mark.parametrize("d", [2, Fraction(1, 2), -1],
                             ids=["2", "1/2", "-1"])
    @settings(deadline=None)
    @given(data=st.data())
    def test_quadratic_points(self, d, data):
        # the values a map over Q(sqrt(d)) carries a point to
        poly = data.draw(polynomials(quadratic(d)))
        values = data.draw(st.lists(quadratic(d), min_size=SIG.nvars,
                                    max_size=SIG.nvars))
        residues = [_residue(v, P, {}) for v in values]
        assert modular_value(poly, residues, P) == \
            exact_value(poly, values, P)


def sig1():
    return RingSignature(1)


def shift_maps(s, coeff):
    """f: z -> z + coeff*y and g: z -> z - coeff*y, inverse to each other."""
    y_term = Polynomial.variable(s, "y") * coeff
    z = Polynomial.variable(s, "z")
    return (RingEndomorphism(s, {"z": z + y_term}),
            RingEndomorphism(s, {"z": z - y_term}))


def recheck_fixes_z(maps) -> tuple[bool, str]:
    s = maps[0].sig
    z = Polynomial.variable(s, "z")
    cert = Certificate("maps compose to the identity on z")
    cert.record_composition("fixes-z", maps, z, z, z)
    run_schwartz_zippel(cert, random.Random(0), points=10)
    sz = cert.checks[-1]
    return sz.passed, sz.details


class TestModuli:
    def test_denominator_divisible_by_first_modulus(self):
        s = sig1()
        f, g = shift_maps(s, Fraction(1, P))
        assert _Recheck([_CompositionSz([f, g], Polynomial.variable(s, "z"),
                                        Polynomial.variable(s, "z"))],
                        random.Random(0), 1).p == MODULI[1]
        assert recheck_fixes_z([f, g]) == (True, "agreed at 10 random points")
        # the corrupted twin applies f twice: z -> z + 2*y/p
        ok, details = recheck_fixes_z([f, f])
        assert not ok and details.startswith("mismatch at ")

    def test_no_modulus_left(self):
        s = sig1()
        f, g = shift_maps(s, Fraction(1, prod(MODULI)))
        with pytest.raises(StablyDistinctError, match="every re-check modulus"):
            recheck_fixes_z([f, g])

    def test_quadratic_maps(self):
        s = sig1()
        f, g = shift_maps(s, quadext(0, 1, 2))
        assert recheck_fixes_z([f, g])[0]
        assert not recheck_fixes_z([f, f])[0]

    def test_two_fields_refused(self):
        s = sig1()
        mixed = Polynomial(s, {(0, 0, 0): quadext(0, 1, 2),
                               (0, 0, 1): quadext(0, 1, 3)})
        cert = Certificate("a polynomial over two fields")
        cert.record_composition("mixed", [], mixed, mixed, mixed)
        with pytest.raises(MixedDiscriminant, match="cannot mix"):
            run_schwartz_zippel(cert, random.Random(0), points=1)

    def test_two_checks_in_two_fields_refused(self, monkeypatch):
        s = sig1()
        cert = Certificate("each check in its own field")
        for d in (3, 2):
            root = Polynomial.constant(s, quadext(0, 1, d))
            cert.record(f"sqrt-{d}", root, root)
        calls = []
        inner = certificate.check_one_field
        monkeypatch.setattr(certificate, "check_one_field",
                            lambda coeffs: calls.append(1) or inner(coeffs))
        with pytest.raises(MixedDiscriminant,
                           match=r"^cannot mix sqrt\(2\) with sqrt\(3\)$"):
            run_schwartz_zippel(cert, random.Random(0), points=1)
        assert len(calls) == 1


class TestSharedTransport:
    def chain(self):
        s = sig1()
        f = RingEndomorphism(s, {"z": parse_polynomial(s, "z + y^2")})
        g = RingEndomorphism(s, {"z": parse_polynomial(s, "z - y^2"),
                                 "y": parse_polynomial(s, "y + 1")})
        return s, f, g

    def test_only_the_corrupted_check_fails(self):
        # f(g(z)) = z holds, f(g(y)) = y + 1 is recorded as y
        s, f, g = self.chain()
        y, z = Polynomial.variable(s, "y"), Polynomial.variable(s, "z")
        cert = Certificate("f after g fixes z and y")
        cert.record_composition("fixes-z", [f, g], z, z, z)
        cert.record_composition("fixes-y", [f, g], y, y, y)
        assert run_schwartz_zippel(cert, random.Random(1), points=20) == 2
        verdicts = {c.name: c.passed for c in cert.checks}
        assert verdicts["fixes-z/sz"] is True
        assert verdicts["fixes-y/sz"] is False

    def test_each_point_crosses_a_shared_chain_once(self, monkeypatch):
        s, f, _ = self.chain()
        g = RingEndomorphism(s, {"z": parse_polynomial(s, "z - y^2")})
        y, z = Polynomial.variable(s, "y"), Polynomial.variable(s, "z")
        cert = Certificate("f after g fixes z and y")
        cert.record_composition("fixes-z", [f, g], z, z, z)
        cert.record_composition("fixes-y", [f, g], y, y, y)
        calls = []
        inner = certificate._evaluate_mod
        monkeypatch.setattr(certificate, "_evaluate_mod",
                            lambda *args: calls.append(1) or inner(*args))
        points = 7
        run_schwartz_zippel(cert, random.Random(2), points=points)
        assert cert.passed
        # per point: 3 images of f, then 3 of g, once for both checks;
        # then source and expected of each check
        assert len(calls) == points * (3 + 3 + 2 * 2)


class TestStableControl:
    def test_sign_corrupted_phi_w_fails_its_recheck(self):
        pair = build_stable_equivalence(UnivariatePoly([-1, 1]), 2)
        bad_phi = RingEndomorphism(pair.phi.sig, {
            "y": pair.phi.image("y"), "z": pair.phi.image("z"),
            "w": -pair.phi.image("w")})
        bad = StableEquivPair(pair.n, pair.q, pair.r, bad_phi, pair.psi,
                              pair.p_q, pair.p_zero)
        control = verify_stable_equivalence(bad)
        run_schwartz_zippel(control, random.Random(5), points=25)
        verdicts = {c.name: c.passed for c in control.checks}
        assert verdicts["phi-after-psi-fixes-w/sz"] is False
        assert verdicts["phi-fixes-x1/sz"] is True


    def test_one_coefficient_of_phi_y_off_by_one_fails_its_recheck(self):
        # (t-1)^3 at n = 2: phi(y) has 1,528 terms over five variables
        pair = build_stable_equivalence(UnivariatePoly([-1, 3, -3, 1]), 2)
        phi_y = pair.phi.image("y")
        exps = min(phi_y.terms)
        bad_phi = RingEndomorphism(pair.phi.sig, {
            "y": phi_y + Polynomial(phi_y.sig, {exps: 1}),
            "z": pair.phi.image("z"), "w": pair.phi.image("w")})
        bad = StableEquivPair(pair.n, pair.q, pair.r, bad_phi, pair.psi,
                              pair.p_q, pair.p_zero)
        control = verify_stable_equivalence(bad)
        run_schwartz_zippel(control, random.Random(5), points=25)
        verdicts = {c.name: c.passed for c in control.checks}
        assert verdicts["phi-sends-family-to-constant/sz"] is False
        assert verdicts["psi-sends-constant-to-family/sz"] is True


class TestStoredMaps:
    @pytest.fixture
    def compose_off_by_one(self, monkeypatch):
        """compose adds 1 to the z-image; the stored maps stay right."""
        inner = RingEndomorphism.compose

        def off_by_one(self, other):
            composite = inner(self, other)
            images = {name: composite.image(name)
                      for name in composite.sig.names}
            images["z"] = images["z"] + 1
            return RingEndomorphism(composite.sig, images)

        monkeypatch.setattr(RingEndomorphism, "compose", off_by_one)

    @pytest.mark.parametrize("build,name", [
        (lambda: theorem_certificate(1, 2), "cylinder-round-trip-z"),
        (lambda: verify_fiber_isomorphism(
            PqSpec(2, UnivariatePoly([1, -2, 1]), Fraction(1, 2))),
         "round-trip-fixes-z"),
    ], ids=["cylinder", "fiber"])
    def test_round_trip_recheck_reads_the_stored_maps(
            self, compose_off_by_one, build, name):
        cert = build()
        run_schwartz_zippel(cert, random.Random(0), points=5)
        verdicts = {c.name: c.passed for c in cert.checks}
        assert verdicts[name] is False
        assert verdicts[name + "/sz"] is True


class TestRecordingStaysSymbolic:
    def test_only_the_recheck_reduces_coefficients(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("residue table built outside the re-check")

        monkeypatch.setattr(certificate, "_residue_table", refuse)
        pair = build_stable_equivalence(UnivariatePoly([1, -2, 1]), 1)
        cert = verify_stable_equivalence(pair)
        assert cert.passed
        z = Polynomial.variable(pair.phi.sig, "z")
        cert.record_composition("psi-phi-z", [pair.psi, pair.phi], z, z, z)
        with pytest.raises(AssertionError, match="outside the re-check"):
            run_schwartz_zippel(cert, random.Random(0), points=1)
