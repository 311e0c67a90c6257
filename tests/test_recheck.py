"""The numeric re-check in F_p against exact evaluation and known faults.

The re-check works modulo the largest prime p up to 2^61 - 1 that divides
no coefficient denominator and in which the d of the coefficients'
Q(sqrt(d)), if any, is a nonzero square, and maps sqrt(d) to a root r of
d mod p.  Its primality test must agree with trial division below 10^5
and call known strong pseudoprimes composite; the modulus it picks for
each field must be the one a test-side search confirms, with r^2 = d.
Residue-table evaluation at every point at once must agree, point by
point, with a test-side loop over the terms on ints mod p: on rational
coefficients with denominators, on crowded polynomials whose terms share
half-monomials, on zero, on coefficients in Q(sqrt(d)) for d = 2, 1/2, 3
and -1, and at points in Q(sqrt(d)) for d = 2, 1/2 and -1.  The packed
slots must hold the worst case, every residue p - 1 and 200 terms sharing
a low half, at every modulus the fields pick.  Re-checks must move to the
next prime when a candidate divides a denominator, must refuse
polynomials whose coefficients lie in two quadratic fields, in one check
or across two, must refuse point counts that are not ints of at least 0,
must fail exactly the corrupted one of two checks sharing a map chain,
must name the first point that mismatches, must fail on a phi(y) with one
coefficient off by one, must evaluate each table of a shared chain once
for all points, must read the stored maps of the round trips rather than
their composites, and must stay out of the symbolic construction and
verification.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import takewhile
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stably_distinct import certificate
from stably_distinct.certificate import (Certificate, _CompositionSz,
                                         _evaluate_mod, _is_prime, _Recheck,
                                         _residue_table, run_schwartz_zippel)
from stably_distinct.equivalence import (StableEquivPair,
                                         build_stable_equivalence,
                                         theorem_certificate,
                                         verify_stable_equivalence)
from stably_distinct.errors import MixedDiscriminant, StablyDistinctError
from stably_distinct.exactfield import QuadExt, quadext
from stably_distinct.hypersurface import PqSpec, verify_fiber_isomorphism
from stably_distinct.morphisms import RingEndomorphism
from stably_distinct.polyring import (Polynomial, RingSignature,
                                      UnivariatePoly, parse_polynomial,
                                      random_point)

SIG = RingSignature(2, has_w=True)
# 2^61 - 1 and the next two primes below it
P, P31, P45 = 2 ** 61 - 1, 2 ** 61 - 31, 2 ** 61 - 45

exponents = st.tuples(*[st.integers(0, 4)] * SIG.nvars)
rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def quadratic(d):
    # b = 0 makes quadext return a Fraction, so these mix both kinds
    return st.builds(lambda a, b: quadext(a, b, d), rationals, rationals)


def polynomials(coeffs):
    return st.dictionaries(exponents, coeffs, max_size=8).map(
        lambda terms: Polynomial(SIG, {e: c for e, c in terms.items() if c}))


def point_lists(values, nvars=SIG.nvars):
    """1 to 5 points, each a list of one value per variable."""
    return st.lists(st.lists(values, min_size=nvars, max_size=nvars),
                    min_size=1, max_size=5)


# -- the reference: a loop over terms on ints mod p, with sqrt(d) -> r,
# sharing no code with certificate

def residue(value, p: int, r: int = 0) -> int:
    if isinstance(value, QuadExt):
        return (residue(value.a, p) + residue(value.b, p) * r) % p
    value = Fraction(value)
    return value.numerator * pow(value.denominator, -1, p) % p


def reference(poly: Polynomial, points: list, p: int, r: int = 0) -> list:
    """poly at each point, given as ints mod p, by a loop over terms."""
    terms = [(residue(c, p, r), [(j, e) for j, e in enumerate(exps) if e])
             for exps, c in poly.terms.items()]
    out = []
    for point in points:
        total = 0
        for value, factors in terms:
            for j, e in factors:
                for _ in range(e):
                    value = value * point[j] % p
            total = (total + value) % p
        out.append(total)
    return out


def packed_values(poly: Polynomial, points: list, p: int, r: int = 0) -> list:
    """poly at every point through the residue table; ``points`` are ints
    mod p."""
    return _evaluate_mod(_residue_table(poly, p, r, {}),
                         [list(column) for column in zip(*points)], p)


def residues(points: list, p: int, r: int = 0) -> list:
    return [[residue(v, p, r) for v in point] for point in points]


def field(d) -> tuple[int, int]:
    """The modulus p and root r the re-check picks for Q(sqrt(d)), with
    r^2 = d mod p checked here."""
    root = Polynomial.constant(SIG, quadext(0, 1, d))
    recheck = _Recheck([_CompositionSz([], root, root)], random.Random(0), 1)
    p, r = recheck.p, recheck.root
    assert r * r % p == residue(d, p) != 0
    return p, r


def proven_prime(n: int) -> bool:
    """Lucas: n is prime when some a has order n - 1 mod n; the prime
    factors of n - 1 come from trial division."""
    factors, rest, f = set(), n - 1, 2
    while f * f <= rest:
        while rest % f == 0:
            factors.add(f)
            rest //= f
        f += 1
    if rest > 1:
        factors.add(rest)
    return any(pow(a, n - 1, n) == 1
               and all(pow(a, (n - 1) // q, n) != 1 for q in factors)
               for a in range(2, 100))


class TestNumberTheory:
    def test_is_prime_matches_trial_division(self):
        primes: list = []
        for n in range(10 ** 5):
            prime = n >= 2 and all(
                n % q for q in takewhile(lambda q: q * q <= n, primes))
            if prime:
                primes.append(n)
            assert _is_prime(n) == prime, n

    @pytest.mark.parametrize("n,factors", [
        (561, (3, 11, 17)), (3215031751, (151, 751, 28351)),
        # a strong pseudoprime to every base 2..23
        (3825123056546413051, (149491, 747451, 34233211))],
        ids=["561", "3215031751", "3825123056546413051"])
    def test_pseudoprimes_are_composite(self, n, factors):
        assert prod(factors) == n
        assert not _is_prime(n)

    @pytest.mark.parametrize("n", [P, P31, P45],
                             ids=["2^61-1", "2^61-31", "2^61-45"])
    def test_moduli_are_prime(self, n):
        assert proven_prime(n)
        assert _is_prime(n)

    @pytest.mark.parametrize("d,expected", [
        (2, P), (Fraction(1, 2), P), (3, P31), (-1, P31),
        (Fraction(-1, 4), P31), (-3, P), (7, P45)], ids=str)
    def test_modulus_of_each_field(self, d, expected):
        # the pick is a prime in which d is a nonzero square, and every odd
        # q above it is composite (a Fermat witness) or has d as a
        # non-residue (Euler's criterion)
        assert proven_prime(expected)
        assert pow(residue(d, expected), (expected - 1) // 2, expected) == 1
        for q in range(expected + 2, P + 1, 2):
            assert pow(2, q - 1, q) != 1 \
                or pow(residue(d, q), (q - 1) // 2, q) == q - 1
        assert field(d)[0] == expected

    def test_minus_one_takes_the_root_loop(self):
        # -1 is a square only when p = 1 mod 4, so Tonelli-Shanks enters
        # the loop it skips when p = 3 mod 4; here 2^5 divides p - 1
        p, r = field(-1)
        assert p % 4 == 1 and (p - 1) % 32 == 0
        assert r * r % p == p - 1


@st.composite
def crowded_polynomials(draw):
    """Up to 40 terms over n = 1..3, with or without w (3 to 6 variables,
    so both odd and even split points), exponents in 0..2 so that terms
    share their halves; the zero polynomial included; at 1 to 5 points."""
    sig = RingSignature(draw(st.integers(1, 3)), has_w=draw(st.booleans()))
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 2)] * sig.nvars),
                                 rationals.filter(bool), max_size=40))
    points = draw(point_lists(st.integers(0, P - 1), sig.nvars))
    return Polynomial(sig, terms), points


class TestEvaluationMatchesExact:
    @settings(deadline=None)
    @given(polynomials(rationals), point_lists(st.integers(0, 2 ** 64)),
           st.sampled_from([P, P31, P45]))
    def test_rational_coefficients(self, poly, points, p):
        points = residues(points, p)
        assert packed_values(poly, points, p) == reference(poly, points, p)

    @settings(deadline=None, max_examples=200)
    @given(crowded_polynomials())
    def test_shared_half_monomials(self, case):
        poly, points = case
        assert packed_values(poly, points, P) == reference(poly, points, P)

    @pytest.mark.parametrize("n,has_w", [(1, False), (1, True), (2, False),
                                         (2, True), (3, False), (3, True)])
    def test_zero_polynomial(self, n, has_w):
        sig = RingSignature(n, has_w)
        table = _residue_table(Polynomial.zero(sig), P, 0, {})
        columns = [[i, i + 5, i * i] for i in range(1, sig.nvars + 1)]
        assert _evaluate_mod(table, columns, P) == [0, 0, 0]

    @pytest.mark.parametrize("d", [2, Fraction(1, 2), 3, -1], ids=str)
    @settings(deadline=None)
    @given(data=st.data())
    def test_quadratic_coefficients(self, d, data):
        p, r = field(d)
        poly = data.draw(polynomials(quadratic(d)))
        points = data.draw(point_lists(st.integers(0, p - 1)))
        assert packed_values(poly, points, p, r) == \
            reference(poly, points, p, r)

    @pytest.mark.parametrize("d", [2, Fraction(1, 2), -1], ids=str)
    @settings(deadline=None)
    @given(data=st.data())
    def test_quadratic_points(self, d, data):
        # the values a map over Q(sqrt(d)) carries a point to, under
        # rational and Q(sqrt(d)) coefficients
        p, r = field(d)
        poly = data.draw(polynomials(st.one_of(rationals, quadratic(d))))
        points = residues(data.draw(point_lists(quadratic(d))), p, r)
        assert packed_values(poly, points, p, r) == \
            reference(poly, points, p, r)


class TestPackingBound:
    """Every coefficient residue and every point value p - 1, 200 terms
    sharing the low half x1, each with a high half of one variable, so a
    slot holds its largest sum; at 2^61 - 1 (for Q(sqrt(2))) and at the
    moduli that Q(sqrt(3)) and Q(sqrt(-1)) pick.  -1 - r + sqrt(d) is an
    element of Q(sqrt(d)) whose residue is p - 1."""

    SIG = RingSignature(400, has_w=True)

    def worst(self, coeff) -> Polynomial:
        half = (self.SIG.nvars + 1) // 2
        terms = {}
        for j in range(half, half + 200):
            exps = [0] * self.SIG.nvars
            exps[0] = exps[j] = 1
            terms[tuple(exps)] = coeff
        return Polynomial(self.SIG, terms)

    @pytest.mark.parametrize("count", [1, 2, 25, 100])
    @pytest.mark.parametrize("d", [2, 3, -1], ids=str)
    @pytest.mark.parametrize("coeff_in_field,value_in_field", [
        (False, False), (False, True), (True, False), (True, True)],
        ids=["rational", "rational-at-field", "field-at-rational", "field"])
    def test_largest_slot_does_not_carry(self, coeff_in_field,
                                         value_in_field, d, count):
        p, r = field(d)
        top = quadext(-1 - r, 1, d)
        assert residue(top, p, r) == p - 1
        poly = self.worst(top if coeff_in_field else -1)
        points = residues([[top if value_in_field else -1]
                           * self.SIG.nvars] * count, p, r)
        assert packed_values(poly, points, p, r) == \
            reference(poly, points, p, r)


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
    def recheck_over(self, den) -> int:
        """The modulus picked for maps with a denominator ``den``, after
        checking that their re-check passes and that of a corrupted twin
        fails."""
        s = sig1()
        f, g = shift_maps(s, Fraction(1, den))
        assert recheck_fixes_z([f, g]) == (True, "agreed at 10 random points")
        # the corrupted twin applies f twice: z -> z + 2*y/den
        ok, details = recheck_fixes_z([f, f])
        assert not ok and details.startswith("mismatch at ")
        z = Polynomial.variable(s, "z")
        return _Recheck([_CompositionSz([f, g], z, z)],
                        random.Random(0), 1).p

    def test_denominator_divisible_by_first_modulus(self):
        assert self.recheck_over(P) == P31

    def test_denominator_divisible_by_first_two_moduli(self):
        assert self.recheck_over(P * P31) == P45

    @pytest.mark.parametrize("d", [2, 3, -1], ids=str)
    def test_quadratic_maps(self, d):
        s = sig1()
        f, g = shift_maps(s, quadext(0, 1, d))
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

    @pytest.mark.parametrize("points", [1, 7])
    def test_each_table_of_a_shared_chain_is_evaluated_once(
            self, monkeypatch, points):
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
        run_schwartz_zippel(cert, random.Random(2), points=points)
        assert cert.passed
        # 3 images of f, then 3 of g, once for both checks and all points;
        # then source and expected of each check
        assert len(calls) == 3 + 3 + 2 * 2


class TestFirstMismatch:
    @pytest.mark.parametrize("one_term", [False, True],
                             ids=["packed", "one-term"])
    def test_details_name_the_first_point_that_mismatches(self, one_term):
        # x1 - v0 vanishes at the first sample only
        s = sig1()
        rng = random.Random(3)
        samples = [random_point(s, rng, P) for _ in range(4)]
        x1 = Polynomial.variable(s, "x1")
        v0 = Polynomial.constant(s, samples[0]["x1"])
        cert = Certificate("x1 is the first sample's x1")
        if one_term:
            cert.record_composition("x1-is-v0", [], x1, x1, v0)
        else:
            cert.record("x1-minus-v0", x1 - v0)
        run_schwartz_zippel(cert, random.Random(3), points=4)
        sz = cert.checks[-1]
        assert not sz.passed
        assert sz.details == "mismatch at " + ", ".join(
            f"{name}={value}" for name, value in samples[1].items())


class TestPointCount:
    def cert(self):
        z = Polynomial.variable(sig1(), "z")
        cert = Certificate("z is z")
        cert.record("z", z, z)
        return cert

    def test_zero_points_add_nothing(self):
        cert = self.cert()
        assert run_schwartz_zippel(cert, random.Random(0), points=0) == 0
        assert [c.name for c in cert.checks] == ["z"]

    @pytest.mark.parametrize("points", [-3, -1, True, False, 2.5, "3", None])
    def test_bad_counts_are_refused(self, points):
        cert = self.cert()
        with pytest.raises(StablyDistinctError,
                           match=r"point count .*got " + repr(points)):
            run_schwartz_zippel(cert, random.Random(0), points=points)
        assert [c.name for c in cert.checks] == ["z"]


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


class _ZeroAt(random.Random):
    """Draws as ``random.Random(seed)``, except that the draws numbered in
    ``zero`` (from 0) come out 0."""

    def __init__(self, seed, zero):
        super().__init__(seed)
        self.zero = set(zero)
        self.count = 0

    def randrange(self, *args, **kwargs):
        value = super().randrange(*args, **kwargs)
        self.count += 1
        return 0 if self.count - 1 in self.zero else value


class TestDeferredImages:
    """A deferred y-image is re-checked as (t - Z^2 - s*q(Z^2)) times
    x^[2](pt)^-1, with Z at S = t = target(pt), and from its expansion
    where x^[2](pt) = 0."""

    @staticmethod
    def moved(m, rng) -> list:
        y = Polynomial.variable(m.sig, "y")
        hook = _CompositionSz([m], y, y)
        recheck = _Recheck([hook], rng, 25)
        recheck.run(hook)
        return recheck._moved(m.sig, (m,))

    @staticmethod
    def expanded(m) -> RingEndomorphism:
        return RingEndomorphism(m.sig, {name: m.image(name)
                                        for name in m.sig.names})

    @pytest.mark.parametrize("coeffs", [
        [-1, 3, -3, 1], [Fraction(1, 3), 2, quadext(0, 1, 2), -1],
        [Fraction(1, 3), 2, 0, -1], [-1, 5, -10, 10, -5, 1]],
        ids=["(t-1)^3", "sqrt2", "1/3+2t-t^3", "(t-1)^5"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("side", ["phi", "psi"])
    def test_lazy_values_match_the_expanded_map(self, side, n, coeffs):
        m = getattr(build_stable_equivalence(coeffs, n), side)
        lazy = self.moved(m, random.Random(4))
        assert "y" not in m.images
        assert self.moved(self.expanded(m), random.Random(4)) == lazy

    def test_point_with_a_zero_x_takes_the_expanded_route(self):
        # SIG draws x1, x2, y, z, w per point: draw 16 is x2 of point 3
        m = build_stable_equivalence([-1, 3, -3, 1], 2).phi
        lazy = self.moved(m, _ZeroAt(4, {16}))
        assert "y" in m.images
        assert self.moved(self.expanded(m), _ZeroAt(4, {16})) == lazy

    def test_stable_recheck_is_unchanged_by_a_zero_x(self):
        pair = build_stable_equivalence([-1, 3, -3, 1], 2)
        cert = verify_stable_equivalence(pair)
        run_schwartz_zippel(cert, _ZeroAt(2, {0, 6}), points=5)
        assert cert.passed
        assert "y" in pair.phi.images


class TestTablesByValue:
    def test_one_table_per_distinct_polynomial(self, monkeypatch):
        built = []
        inner = certificate._residue_table
        monkeypatch.setattr(certificate, "_residue_table",
                            lambda poly, *args: built.append(poly)
                            or inner(poly, *args))
        cert = theorem_certificate(2, 3)
        run_schwartz_zippel(cert, random.Random(0), points=25)
        assert cert.passed
        assert len({(poly.sig, frozenset(poly.terms.items()))
                    for poly in built}) == len(built)

    def test_equal_sides_are_evaluated_once(self, monkeypatch):
        s = sig1()
        f = RingEndomorphism(s, {"z": parse_polynomial(s, "z + y^2")})
        cert = Certificate("f moves z, twice over")
        for name in ("first", "second"):
            z = Polynomial.variable(s, "z")
            cert.record_composition(name, [f], z, z + Polynomial.variable(
                s, "y") ** 2, parse_polynomial(s, "z + y^2"))
        calls = []
        inner = certificate._evaluate_mod
        monkeypatch.setattr(certificate, "_evaluate_mod",
                            lambda *args: calls.append(1) or inner(*args))
        run_schwartz_zippel(cert, random.Random(2), points=3)
        assert cert.passed
        # 3 images of f, then one source and one expected for both checks
        assert len(calls) == 3 + 1 + 1
