"""Tests for the equivalence deciders, witness maps, and stable pairs."""

import hashlib
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stably_distinct import equivalence
from stably_distinct.certificate import run_schwartz_zippel
from stably_distinct.equivalence import (
    HyperEquivWitness, PolyEquivWitness, StableEquivPair, _cylinder_symbols,
    _euclid_on_ratios, _quotient_proved, _SymbolGate, _top_of_sum,
    _x2_divides_at, _x_exponents_equal, _y_degree,
    build_hyper_equiv_automorphism,
    build_poly_equiv_automorphism, build_stable_equivalence,
    decide_hypersurface_equivalence, decide_poly_equivalence,
    stable_equivalence_degree_bound, theorem_certificate,
    verify_hyper_equivalence, verify_stable_equivalence)
from stably_distinct.errors import (InvalidWitness, MixedDiscriminant,
                                    NotDecidableInField, NotDivisible,
                                    ParseError, ResourceLimit,
                                    StablyDistinctError)
from stably_distinct.exactfield import QuadExt, quadext
from stably_distinct.hypersurface import PqSpec, build_Pq
from stably_distinct.morphisms import DeferredImage, RingEndomorphism
from stably_distinct.polyring import (Polynomial, RingSignature,
                                      UnivariatePoly, exact_divide,
                                      parse_polynomial, truncate,
                                      x_power_bracket)

from conftest import (brute_force_hyper_mu, dense_mul, dense_power,
                      random_univariate, small_fraction)


def _scaled(q, lam):
    return UnivariatePoly(dense_mul(list(q.coeffs), [lam]))


def _nonzero_fraction(rng, bound=9):
    while True:
        value = small_fraction(rng, bound)
        if value:
            return value


class TestPolyEquivalence:
    def test_scaled_pair_found(self):
        witness = decide_poly_equivalence([1, 0, 2], 3, [3, 0, 6], 3)
        assert witness is not None
        assert witness.lam == 3

    def test_level_mismatch_rejected(self):
        assert decide_poly_equivalence([1, 1], 0, [1, 1], 1) is None

    def test_support_mismatch_rejected(self):
        assert decide_poly_equivalence([1, 1], 2, [1, 0, 1], 2) is None

    def test_non_proportional_rejected(self):
        assert decide_poly_equivalence([1, 1], 0, [2, 3], 0) is None

    def test_zero_polynomials(self):
        witness = decide_poly_equivalence([], 5, [0], 5)
        assert witness is not None and witness.lam == 1

    def test_equivalence_relation_properties(self):
        rng = random.Random(11)
        for _ in range(50):
            q = random_univariate(rng, 4)
            c = small_fraction(rng)
            lam1 = _nonzero_fraction(rng)
            lam2 = _nonzero_fraction(rng)
            # reflexive
            assert decide_poly_equivalence(q, c, q, c).lam == 1
            # symmetric with inverted scaling
            w12 = decide_poly_equivalence(q, c, _scaled(q, lam1), c)
            w21 = decide_poly_equivalence(_scaled(q, lam1), c, q, c)
            assert w12.lam * w21.lam == 1
            # transitive by multiplying the scalings
            w13 = decide_poly_equivalence(q, c, _scaled(q, lam1 * lam2), c)
            w23 = decide_poly_equivalence(_scaled(q, lam1), c,
                                          _scaled(q, lam1 * lam2), c)
            if not q.coeffs:
                continue
            assert w13.lam == w12.lam * w23.lam

    def test_automorphism_carries_family_member(self):
        rng = random.Random(23)
        for n in (1, 2):
            for _ in range(10):
                q = random_univariate(rng, 3)
                lam = _nonzero_fraction(rng)
                witness = decide_poly_equivalence(q, 0, _scaled(q, lam), 0)
                auto = build_poly_equiv_automorphism(witness, n)
                source = build_Pq(PqSpec(n, q, 0))
                target = build_Pq(PqSpec(n, _scaled(q, lam), 0))
                assert auto.apply(source) == target

    def test_automorphism_inverts(self):
        auto = build_poly_equiv_automorphism(
            PolyEquivWitness(Fraction(3, 2)), 2)
        back = build_poly_equiv_automorphism(
            PolyEquivWitness(Fraction(2, 3)), 2)
        identity = RingEndomorphism.identity(auto.sig)
        assert auto.compose(back) == identity
        assert back.compose(auto) == identity

    def test_zero_lambda_rejected(self):
        with pytest.raises(InvalidWitness):
            PolyEquivWitness(0)


class TestHypersurfaceEquivalence:
    def test_worked_example(self):
        witness = decide_hypersurface_equivalence(
            [-1, 1], 1, [-1, 4], Fraction(1, 4))
        assert witness.lam == 1
        assert witness.mu == 4
        assert witness.eps == Fraction(1, 2)
        cert = verify_hyper_equivalence(
            [-1, 1], 1, [-1, 4], Fraction(1, 4), witness)
        assert cert.passed

    def test_unit_multiple_identity_explicitly(self):
        # Theta applied to the first defining polynomial gives exactly
        # mu times the second, checked against an independently built rhs
        witness = HyperEquivWitness(Fraction(1), Fraction(4), Fraction(1, 2))
        theta = build_hyper_equiv_automorphism(witness, 1)
        lhs = build_Pq(PqSpec(1, [-1, 1], 1)) - 1
        rhs = build_Pq(PqSpec(1, [-1, 4], Fraction(1, 4))) - Fraction(1, 4)
        assert theta.apply(lhs) == rhs * 4

    def test_odd_root_of_a_surd_without_norm_root(self):
        # the norm -2 of sqrt(2) has no rational cube root, so no
        # quadratic field holds a mu with mu^3 = sqrt(2)
        with pytest.raises(NotDecidableInField) as info:
            decide_hypersurface_equivalence(
                [1, 0, 0, 1], 0, [1, 0, 0, quadext(0, 1, 2)], 0)
        assert info.value.relation.startswith("mu^3 = 0+1*sqrt(2)")

    def test_odd_root_of_a_surd_with_norm_root_is_not_searched(self):
        # 99 + 70*sqrt(2) = (3 + 2*sqrt(2))^3, a root the decider does not
        # look for inside Q(sqrt(2)); it must not claim there is none
        with pytest.raises(StablyDistinctError) as info:
            decide_hypersurface_equivalence(
                [1, 0, 0, 1], 0, [1, 0, 0, quadext(99, 70, 2)], 0)
        assert not isinstance(info.value, NotDecidableInField)
        assert "not searched" in str(info.value)

    def test_square_roots_stay_in_the_coefficient_field(self):
        # mu^2 = 1/3, but the coefficients live in Q(sqrt(2)), which
        # holds no square root of 1/3
        with pytest.raises(NotDecidableInField) as info:
            decide_hypersurface_equivalence(
                [0, Fraction(-1, 3), 0, quadext(-1, Fraction(1, 2), 2)], 0,
                [0, quadext(2, 1, 2), 0, 1], 0)
        assert info.value.relation.startswith("mu^2 = 1/3")

    @pytest.mark.parametrize("c1, c2", [(0, 0), (1, Fraction(1, 2))])
    def test_eps_taken_in_the_coefficient_field(self, c1, c2):
        # mu = 2 and eps = sqrt(1/2), written as sqrt(2)/2 so that the
        # witness map shares the coefficients' field
        q1 = [quadext(0, 1, 2), 1]
        q2 = [quadext(0, 1, 2), 2]
        witness = decide_hypersurface_equivalence(q1, c1, q2, c2)
        assert witness.mu == 2
        assert witness.eps == quadext(0, Fraction(1, 2), 2)
        assert verify_hyper_equivalence(q1, c1, q2, c2, witness).passed

    def test_support_mismatch(self):
        assert decide_hypersurface_equivalence([0, 1], 1, [1, 1], 1) is None

    def test_mixed_zero_levels(self):
        assert decide_hypersurface_equivalence([0, 1], 0, [0, 1], 1) is None
        assert decide_hypersurface_equivalence([0, 1], 1, [0, 1], 0) is None

    def test_nonzero_levels_force_mu(self):
        # mu is pinned to c1/c2; with two support points the remaining
        # coefficient relation is overdetermined and must fail here
        assert decide_hypersurface_equivalence(
            [0, 1, 1], 1, [0, 1, 1], Fraction(1, 2)) is None
        witness = decide_hypersurface_equivalence(
            [0, 1], 1, [0, 2], Fraction(1, 2))
        assert witness.mu == 2 and witness.lam == 1

    def test_zero_level_gcd_resolution(self):
        # q2(t) = q1(2t) with support gaps of two: mu^2 = 4 resolved to 2
        q1 = UnivariatePoly([0, 1, 0, 1])        # t + t^3
        q2 = UnivariatePoly([0, 2, 0, 8])        # 2t + 8t^3
        witness = decide_hypersurface_equivalence(q1, 0, q2, 0)
        assert witness.mu == 2 and witness.lam == 1
        assert witness.eps * witness.eps == Fraction(1, 2)
        assert verify_hyper_equivalence(q1, 0, q2, 0, witness).passed

    def test_zero_level_complex_unsolvable(self):
        # gap-one ratio forces mu = 2 but the gap-two ratio disagrees,
        # so no witness exists over any field
        assert decide_hypersurface_equivalence(
            [0, 1, 1, 1], 0, [0, 1, 2, 3], 0) is None

    def test_not_decidable_needs_tower(self):
        # mu = sqrt(2) exists in one extension but eps then needs another
        with pytest.raises(NotDecidableInField):
            decide_hypersurface_equivalence([1, 0, 1], 0, [1, 0, 2], 0)

    def test_not_decidable_odd_root(self):
        with pytest.raises(NotDecidableInField) as err:
            decide_hypersurface_equivalence([1, 0, 0, 1], 0,
                                            [1, 0, 0, 2], 0)
        assert "mu^3 = 2" in str(err.value)

    def test_imaginary_unit_witness(self):
        witness = decide_hypersurface_equivalence([0, 1], 1, [0, -1], -1)
        assert witness.mu == -1
        assert witness.eps == quadext(0, 1, -1)
        assert verify_hyper_equivalence([0, 1], 1, [0, -1], -1,
                                        witness).passed

    def test_quadratic_mu_with_in_field_eps(self):
        # mu^2 = -4 has the root 2i, and eps = 1/2 - i/2 lives in the
        # same extension, so this is decidable despite the irrationality
        witness = decide_hypersurface_equivalence([1, 0, 1], 0,
                                                  [1, 0, -4], 0)
        assert isinstance(witness.mu, QuadExt)
        assert witness.mu * witness.mu == -4
        assert witness.eps * witness.eps * witness.mu == 1
        assert verify_hyper_equivalence([1, 0, 1], 0, [1, 0, -4], 0,
                                        witness).passed

    def test_single_term_q_normalizes_mu(self):
        witness = decide_hypersurface_equivalence([0, 0, 1], 0,
                                                  [0, 0, 4], 0)
        assert witness.mu == 1 and witness.lam == 4

    def test_zero_q_cases(self):
        both_zero = decide_hypersurface_equivalence([], 0, [], 0)
        assert (both_zero.lam, both_zero.mu, both_zero.eps) == (1, 1, 1)
        levels = decide_hypersurface_equivalence([], 2, [], 8)
        assert levels.mu == Fraction(1, 4)
        assert levels.eps == 2
        assert decide_hypersurface_equivalence([], 0, [0, 1], 0) is None

    def test_witness_constraints_enforced(self):
        with pytest.raises(InvalidWitness):
            HyperEquivWitness(1, 4, 1)          # eps^2 * mu != 1
        with pytest.raises(InvalidWitness):
            HyperEquivWitness(0, 1, 1)
        with pytest.raises(InvalidWitness):
            HyperEquivWitness(1, 0, 1)

    def test_random_constructed_pairs_decided(self):
        rng = random.Random(47)
        found = 0
        for _ in range(40):
            q1 = random_univariate(rng, 4)
            if not q1.coeffs:
                continue
            lam = _nonzero_fraction(rng)
            root = _nonzero_fraction(rng, 5)
            mu = root * root            # square, so eps stays rational
            q2 = UnivariatePoly([c * mu ** j * lam
                                 for j, c in enumerate(q1.coeffs)])
            c1 = small_fraction(rng)
            c2 = c1 / mu
            witness = decide_hypersurface_equivalence(q1, c1, q2, c2)
            assert witness is not None
            assert verify_hyper_equivalence(q1, c1, q2, c2,
                                            witness).passed
            found += 1
        assert found >= 30

    def test_oracle_agrees_on_grid(self):
        # the exhaustive run lives in the acceptance suite; spot-check a
        # deterministic sub-grid here
        coeffs = [-1, 0, 1]
        polys = [UnivariatePoly([a, b]) for a in coeffs for b in coeffs]
        levels = [Fraction(0), Fraction(1)]
        instances = [(q, c) for q in polys for c in levels]
        for q1, c1 in instances:
            for q2, c2 in instances:
                oracle = brute_force_hyper_mu(q1, c1, q2, c2)
                try:
                    decided = decide_hypersurface_equivalence(
                        q1, c1, q2, c2)
                except NotDecidableInField:
                    decided = "undecidable"
                if oracle is not None:
                    assert decided is not None
                    assert decided != "undecidable"
                elif decided not in (None, "undecidable"):
                    # decider may exceed the oracle only via irrational mu
                    assert isinstance(decided.mu, QuadExt)

    @pytest.mark.parametrize("entry", [
        lambda c: decide_poly_equivalence([1, 0, 1], c, [1, 0, 1], 1),
        lambda c: decide_hypersurface_equivalence([1, 0, 1], c, [1, 0, 1], 1),
        lambda c: PqSpec(1, [1, 0, 1], c),
    ], ids=["poly", "hypersurface", "pq-spec"])
    @pytest.mark.parametrize("level", [quadext(0, 1, 2), 1.5])
    def test_non_rational_level_is_refused(self, entry, level):
        with pytest.raises(ParseError, match="not a rational"):
            entry(level)

    @pytest.mark.parametrize("decide", [decide_poly_equivalence,
                                        decide_hypersurface_equivalence],
                             ids=["poly", "hypersurface"])
    @pytest.mark.parametrize("q1, q2, c", [
        # q2 = 2*q1, as sqrt(8) = 2*sqrt(2), but written in two fields
        ([quadext(0, 1, 2), 1], [quadext(0, 1, 8), 2], 1),
        ([1, 0, quadext(0, 1, 2)], [2, 0, quadext(0, 1, 8)], 0),
        ([quadext(0, 1, 2), 1], [quadext(0, 1, 3), 1], 1),
        ([1, quadext(0, 1, 2)], [1, quadext(0, 1, 3)], 0),
        # one q alone mixing two fields
        ([quadext(0, 1, 2), quadext(0, 1, 3)], [1, 1], 1),
    ], ids=["sqrt2-sqrt8-level1", "sqrt2-sqrt8-level0",
            "sqrt2-sqrt3-level1", "sqrt2-sqrt3-level0", "within-one-q"])
    def test_two_quadratic_fields_are_refused(self, decide, q1, q2, c):
        # a verdict would compare elements of different fields
        with pytest.raises(MixedDiscriminant, match="cannot mix"):
            decide(q1, c, q2, c)


small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=9)
nonzero_mus = st.one_of(
    small_fractions,
    st.builds(lambda a, b: quadext(a, b, 2), small_fractions, small_fractions),
).filter(bool)


@settings(deadline=None)
@given(nonzero_mus, st.sets(st.integers(1, 12), min_size=1, max_size=4))
def test_euclid_on_ratios_gives_mu_to_the_gcd(mu, gaps):
    # field elements over 1, as for q in Q(sqrt(d))
    g, (num, den) = _euclid_on_ratios(
        (m, (mu ** m, Fraction(1))) for m in sorted(gaps))
    assert g == math.gcd(*gaps)
    assert num == mu ** g * den


@settings(deadline=None)
@given(st.integers(-30, 30).filter(bool), st.integers(1, 30),
       st.lists(st.integers(1, 12), min_size=1, max_size=4))
def test_euclid_on_ratios_keeps_integer_pairs(p, s, gaps):
    # mu = p/s as integers, as for rational q: nothing is divided
    g, (num, den) = _euclid_on_ratios((m, (p ** m, s ** m)) for m in gaps)
    assert g == math.gcd(*gaps)
    assert isinstance(num, int) and isinstance(den, int)
    assert num * s ** g == den * p ** g


# -- the decider against the brute-force oracle, off the integer grid ------

fractions_to_20 = st.builds(Fraction, st.integers(-20, 20),
                            st.integers(1, 20))
nonzero_fractions_to_20 = st.builds(
    Fraction, st.integers(-20, 20).filter(bool), st.integers(1, 20))
# zeros are drawn often, so that supports have gaps of every gcd
q_coefficients = st.lists(st.one_of(st.just(Fraction(0)), fractions_to_20),
                          min_size=1, max_size=7)
levels = st.one_of(st.just(Fraction(0)), nonzero_fractions_to_20)


def _scaled_pair(coeffs, lam, mu, c1):
    """q1 and (q2, c2) with q2(t) = lam*q1(mu*t) and c2 = c1/mu."""
    q1 = UnivariatePoly(coeffs)
    q2 = UnivariatePoly([lam * mu ** j * c for j, c in enumerate(coeffs)])
    return q1, q2, c1 / mu


def _decide(q1, c1, q2, c2):
    try:
        return decide_hypersurface_equivalence(q1, c1, q2, c2)
    except NotDecidableInField:
        return "undecidable"


@settings(deadline=None, max_examples=300)
@given(q_coefficients, nonzero_fractions_to_20, nonzero_fractions_to_20,
       levels)
def test_decider_matches_the_oracle_on_scaled_pairs(coeffs, lam, mu, c1):
    q1, q2, c2 = _scaled_pair(coeffs, lam, mu, c1)
    oracle = brute_force_hyper_mu(q1, c1, q2, c2)
    assert oracle is not None
    witness = _decide(q1, c1, q2, c2)
    assert isinstance(witness, HyperEquivWitness)
    # a rational mu is unique up to the sign that even gaps leave free,
    # and both searches take the positive root first
    assert witness.mu == oracle
    assert c1 == witness.mu * c2
    assert all(q2[j] == witness.lam * witness.mu ** j * q1[j]
               for j in range(len(coeffs)))
    assert witness.eps * witness.eps * witness.mu == 1


@settings(deadline=None, max_examples=300)
@given(q_coefficients, nonzero_fractions_to_20, nonzero_fractions_to_20,
       levels, nonzero_fractions_to_20, st.integers(0, 6))
def test_changing_one_coefficient_of_q2_breaks_the_witness(
        coeffs, lam, mu, c1, factor, pick):
    # scaling q2[j] (j above the lowest degree) by f with |f| != 1 leaves
    # no complex witness: mu is forced by a nonzero level, and at level 0
    # the other gaps fix mu up to a root of unity, whose powers have
    # absolute value 1
    q1, q2, c2 = _scaled_pair(coeffs, lam, mu, c1)
    support = q1.support()
    assume(abs(factor) != 1 and len(support) >= (3 if c1 == 0 else 2))
    j = support[1 + pick % (len(support) - 1)]
    changed = list(q2.coeffs)
    changed[j] *= factor
    q2 = UnivariatePoly(changed)
    assert brute_force_hyper_mu(q1, c1, q2, c2) is None
    assert decide_hypersurface_equivalence(q1, c1, q2, c2) is None


@settings(deadline=None, max_examples=300)
@given(q_coefficients, st.lists(nonzero_fractions_to_20, min_size=7,
                                max_size=7), levels, levels)
def test_decider_matches_the_oracle_on_same_support_pairs(coeffs, others,
                                                          c1, c2):
    q1 = UnivariatePoly(coeffs)
    q2 = UnivariatePoly([o if c else c for c, o in zip(coeffs, others)])
    oracle = brute_force_hyper_mu(q1, c1, q2, c2)
    decided = _decide(q1, c1, q2, c2)
    if oracle is not None:
        assert isinstance(decided, HyperEquivWitness)
        assert decided.mu == oracle
    elif isinstance(decided, HyperEquivWitness):
        # the decider may exceed the rational-only oracle via an
        # irrational mu, never a rational one
        assert isinstance(decided.mu, QuadExt)


CORRUPTIONS = {
    "negated": lambda image: -image,
    "plus-1": lambda image: image + 1,
    "plus-x1": lambda image: image + Polynomial.variable(image.sig, "x1"),
    "plus-y": lambda image: image + Polynomial.variable(image.sig, "y"),
}


def _corrupt(pair: StableEquivPair, side: str, gen: str,
             corruption: str) -> StableEquivPair:
    """The pair with one stored image of phi or psi corrupted."""
    maps = {"phi": pair.phi, "psi": pair.psi}
    images = {name: maps[side].image(name) for name in pair.phi.sig.names}
    images[gen] = CORRUPTIONS[corruption](images[gen])
    maps[side] = RingEndomorphism(pair.phi.sig, images)
    return StableEquivPair(pair.n, pair.q, pair.r, maps["phi"], maps["psi"],
                           pair.p_q, pair.p_zero)


@pytest.fixture(scope="module")
def small_pairs():
    return [build_stable_equivalence([-1, 1], 1),
            build_stable_equivalence([1, -2, 1], 2)]


# (t - 1)^k for k = 1..5, a q with denominators, and a Q(sqrt(2)) q
DIRECT_BUILD_QS = {
    **{f"(t-1)^{k}": dense_power([-1, 1], k) for k in range(1, 6)},
    "denominators": [Fraction(1, 3), 2, 0, -1],
    "sqrt2": [Fraction(1, 3), 2, quadext(0, 1, 2), -1],
}


def _direct_cylinder_map(sign, r, q, target):
    """A map of the pair expanded straight from the formulas of
    ``build_stable_equivalence``, with rho = r(target) and no symbol:
    z' = (1 - sign*s*rho)z + sign*x^[2]w, w' = (1 + sign*s*rho)w -
    sign*rho^2 z and y' = (target - z'^2 - s*q(z'^2)) / x^[2]."""
    sig = target.sig
    s1, s2 = x_power_bracket(sig, 1), x_power_bracket(sig, 2)
    z = Polynomial.variable(sig, "z")
    w = Polynomial.variable(sig, "w")
    rho = Polynomial.zero(sig)
    for i, c in enumerate(r.coeffs):
        rho = rho + target ** i * c
    z_img = (1 - s1 * rho * sign) * z + s2 * w * sign
    w_img = (1 + s1 * rho * sign) * w - rho * rho * z * sign
    zsq = z_img * z_img
    q_at = Polynomial.zero(sig)
    for i, c in enumerate(q.coeffs):
        q_at = q_at + zsq ** i * c
    y_img = exact_divide(target - zsq - s1 * q_at, s2)
    return RingEndomorphism(sig, {"y": y_img, "z": z_img, "w": w_img})


@pytest.mark.parametrize("side", ["phi", "psi"])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("coeffs", DIRECT_BUILD_QS.values(),
                         ids=DIRECT_BUILD_QS.keys())
def test_maps_match_the_direct_expansion(coeffs, n, side):
    # phi sends P_q to P0 with sign 1; psi sends P0 to P_q with sign -1,
    # solving for y against the constant q(0)
    q = UnivariatePoly(coeffs)
    q_zero = UnivariatePoly([q(0)])
    p_q = build_Pq(PqSpec(n, q, 0), has_w=True)
    p_zero = build_Pq(PqSpec(n, q_zero, 0), has_w=True)
    r = UnivariatePoly([c / 2 for c in q.coeffs[1:]])
    expected = (_direct_cylinder_map(1, r, q, p_zero) if side == "phi"
                else _direct_cylinder_map(-1, r, q_zero, p_q))
    got = getattr(build_stable_equivalence(q, n), side)
    # the y-image is kept as N, S -> target and x^[2] until read
    assert "y" in got.deferred and "y" not in got.images
    assert got.image("y").terms == expected.image("y").terms
    assert got == expected


class TestStableEquivalence:
    def test_explicit_images_for_linear_q(self):
        # q = t - 1 has half-quotient r = 1/2, a constant, so the twist
        # matrices have tiny entries that can be written down directly
        pair = build_stable_equivalence([-1, 1], 1)
        sig = pair.phi.sig
        z = Polynomial.variable(sig, "z")
        w = Polynomial.variable(sig, "w")
        s1 = x_power_bracket(sig, 1)
        s2 = x_power_bracket(sig, 2)
        half = Fraction(1, 2)
        assert pair.r == UnivariatePoly([half])
        assert pair.phi.image("z") == (1 - s1 * half) * z + s2 * w
        assert pair.phi.image("w") == (1 + s1 * half) * w - z * Fraction(1, 4)
        assert pair.psi.image("z") == (1 + s1 * half) * z - s2 * w
        assert pair.psi.image("w") == (1 - s1 * half) * w + z * Fraction(1, 4)

    def test_image_identities_hold(self):
        pair = build_stable_equivalence([-1, 1], 2)
        assert pair.phi.apply(pair.p_q) == pair.p_zero
        assert pair.psi.apply(pair.p_zero) == pair.p_q

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2])
    def test_power_family_verifies(self, k, n):
        poly = UnivariatePoly(dense_power([-1, 1], k))
        pair = build_stable_equivalence(poly, n)
        cert = verify_stable_equivalence(pair)
        assert cert.passed, [c.name for c in cert.failed_checks()]

    def test_check_names_cover_all_round_trips(self):
        cert = verify_stable_equivalence(build_stable_equivalence([2, 3], 1))
        names = {c.name for c in cert.checks}
        for stem in ("phi-after-psi", "psi-after-phi"):
            for gen in ("y", "z", "w"):
                assert f"{stem}-fixes-{gen}" in names
        assert "phi-sends-family-to-constant" in names
        assert "psi-sends-constant-to-family" in names
        assert "degree-growth-bound" in names

    def test_staged_matches_blind_composition_linear(self):
        pair = build_stable_equivalence([-1, 1], 1)
        identity = RingEndomorphism.identity(pair.phi.sig)
        assert pair.phi.compose(pair.psi) == identity
        assert pair.psi.compose(pair.phi) == identity

    def test_staged_matches_blind_composition_quadratic(self):
        # one direction suffices as a cross-check of the staged formulas;
        # blind substitution grows quickly with deg q, so keep this lean
        q = UnivariatePoly([1, -2, 1])
        pair = build_stable_equivalence(q, 1)
        assert pair.phi.compose(pair.psi) \
            == RingEndomorphism.identity(pair.phi.sig)

    def test_corrupted_pair_fails_round_trips(self):
        bad = _corrupt(build_stable_equivalence([-1, 1], 1), "phi", "w",
                       "negated")
        cert = verify_stable_equivalence(bad)
        assert not cert.passed
        failed = {c.name for c in cert.failed_checks()}
        # the family-to-constant identity does not involve w, so the
        # corruption must be caught by the round trips instead
        assert "phi-sends-family-to-constant" not in failed
        assert "phi-after-psi-fixes-z" in failed
        assert "phi-after-psi-fixes-w" in failed

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    @pytest.mark.parametrize("gen", ["x1", "y", "z", "w"])
    @pytest.mark.parametrize("side", ["phi", "psi"])
    def test_every_corrupted_image_fails_an_exact_check(
            self, small_pairs, side, gen, corruption):
        for pair in small_pairs:
            cert = verify_stable_equivalence(
                _corrupt(pair, side, gen, corruption))
            run_schwartz_zippel(cert, random.Random(0), points=3)
            exact = [c.name for c in cert.failed_checks()
                     if not c.name.endswith("/sz")]
            assert exact, (pair.q, pair.n)

    def test_corrupted_pair_sweep_prints_the_pinned_bytes(self):
        # every one-image corruption of five pairs at n = 1, 2, verified and
        # re-checked at 3 points: the 360 certificates, in this order, are
        # pinned by their sha256, so a change of route prints the same bytes
        digest = hashlib.sha256()
        count = 0
        for q in ([-1, 1], dense_power([-1, 1], 3), [1, 2, 0, -1],
                  SYMBOL_QS["sqrt2"], [1, -2, 1]):
            for n in (1, 2):
                base = build_stable_equivalence(q, n)
                for side in ("phi", "psi"):
                    for gen in base.phi.sig.names:
                        for corruption in sorted(CORRUPTIONS):
                            cert = verify_stable_equivalence(
                                _corrupt(base, side, gen, corruption))
                            run_schwartz_zippel(cert, random.Random(0),
                                                points=3)
                            digest.update(cert.to_json().encode())
                            count += 1
        assert count == 360
        assert digest.hexdigest() == ("d88d9a803d96ab623a40c4a19d51ebc0"
                                      "6024d21b2027909740203df9aa54595a")

    def test_psi_z_sign_flip_is_caught_by_the_round_trips(self):
        # psi(P0) sees psi(z) only through its square, so the image
        # identity still holds and only the round trips can object
        bad = _corrupt(build_stable_equivalence([1, -2, 1], 1), "psi", "z",
                       "negated")
        cert = verify_stable_equivalence(bad)
        failed = {c.name for c in cert.failed_checks()}
        assert "psi-sends-constant-to-family" not in failed
        assert "phi-sends-family-to-constant" not in failed
        assert {"psi-after-phi-fixes-z", "psi-after-phi-fixes-w",
                "psi-after-phi-fixes-y"} <= failed

    @pytest.mark.parametrize("gen", ["z", "w"])
    def test_round_trip_y_waits_for_its_z_and_w_checks(self, gen):
        # with psi(z) or psi(w) negated both image identities hold, and
        # squaring the wrong z' for the y round trip took seconds
        bad = _corrupt(build_stable_equivalence([-1, 3, -3, 1], 1), "psi",
                       gen, "negated")
        start = time.perf_counter()
        cert = verify_stable_equivalence(bad)
        assert time.perf_counter() - start < 2
        checks = {c.name: c for c in cert.checks}
        assert checks["psi-sends-constant-to-family"].passed
        blockers = [f"psi-after-phi-fixes-{g}" for g in ("z", "w")
                    if not checks[f"psi-after-phi-fixes-{g}"].passed]
        assert blockers
        y_check = checks["psi-after-phi-fixes-y"]
        assert not y_check.passed
        assert y_check.details == f"not built: {blockers[0]} failed"

    @pytest.mark.parametrize("side, identity, stem", [
        ("phi", "phi-sends-family-to-constant", "phi-after-psi"),
        ("psi", "psi-sends-constant-to-family", "psi-after-phi")])
    def test_failed_image_identity_skips_its_round_trip(self, side,
                                                        identity, stem):
        # with the image identity false, r of the outer image is large and
        # building the round trip ran for minutes at (t - 1)^3
        bad = _corrupt(build_stable_equivalence([-1, 3, -3, 1], 1), side,
                       "y", "negated")
        start = time.perf_counter()
        cert = verify_stable_equivalence(bad)
        run_schwartz_zippel(cert, random.Random(0), points=3)
        assert time.perf_counter() - start < 10
        failed = {c.name: c for c in cert.failed_checks()}
        assert identity in failed
        names = [f"{stem}-fixes-{gen}" for gen in ("z", "w", "y")]
        for name in names:
            assert failed[name].details == f"not built: {identity} failed"
        # the names and order of a passing pair's checks are kept
        good = verify_stable_equivalence(build_stable_equivalence([-1, 1], 1))
        assert [c.name for c in cert.checks if not c.name.endswith("/sz")] \
            == [c.name for c in good.checks]
        # the numeric hooks still run from the stored images
        assert f"{names[0]}/sz" in {c.name for c in cert.checks}

    def test_constant_q_gives_identity_pair(self):
        pair = build_stable_equivalence([7], 2)
        identity = RingEndomorphism.identity(pair.phi.sig)
        assert pair.phi == identity and pair.psi == identity
        assert verify_stable_equivalence(pair).passed

    def test_degree_bound_formula(self):
        pair = build_stable_equivalence([1, -2, 1], 3)   # (t-1)^2, n=3
        assert stable_equivalence_degree_bound(pair) == 2 * 4 * 7 + 2
        assert pair.phi.image("y").degree() <= 58

    def test_random_q_pairs_verify(self):
        rng = random.Random(31)
        for _ in range(5):
            q = random_univariate(rng, 2, bound=5)
            cert = verify_stable_equivalence(build_stable_equivalence(q, 1))
            assert cert.passed, [c.name for c in cert.failed_checks()]


# q for the symbolic checks: rational, with denominators, and in Q(sqrt(2))
SYMBOL_QS = {"(t-1)^3": dense_power([-1, 1], 3), "1+2t-t^3": [1, 2, 0, -1],
             "sqrt2": [Fraction(1, 3), 2, quadext(0, 1, 2), -1]}


def _sides(pair: StableEquivPair):
    """(map, gate, q, target) for phi and for psi."""
    q_zero = UnivariatePoly([pair.q(0)])
    return ((pair.phi, _SymbolGate(pair.phi, 1, pair.r, pair.p_zero), pair.q,
             pair.p_zero),
            (pair.psi, _SymbolGate(pair.psi, -1, pair.r, pair.p_q), q_zero,
             pair.p_q))


class TestSymbolicTargets:
    """The image identities phi(P_q) = P0 and psi(P0) = P_q are certified
    by the quotient proof, and the round trips through the symbols of the
    build, when the stored maps pass their gates; otherwise the direct
    route, the fallback, runs.  The fallback guards an image identity for
    any map that is not as the build leaves it, and the
    ``*-after-*-fixes-*`` round trips when the outer map has a wrong z- or
    w-image."""

    @pytest.mark.parametrize("corruption", [None, *sorted(CORRUPTIONS)])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("coeffs", SYMBOL_QS.values(),
                             ids=SYMBOL_QS.keys())
    def test_image_identity_matches_substitution(self, coeffs, n,
                                                 corruption):
        # the build's phi takes the proof route and a wrong stored phi(y)
        # the direct one; either way the recorded identity is the one of
        # direct substitution
        pair = build_stable_equivalence(coeffs, n)
        if corruption is not None:
            pair = _corrupt(pair, "phi", "y", corruption)
        m, gate, q, target = _sides(pair)[0]
        assert gate.holds
        assert (_quotient_proved(m, gate, q, target)
                == (corruption is None))
        check = verify_stable_equivalence(pair).checks[0]
        assert check.name == "phi-sends-family-to-constant"
        assert check.passed == (corruption is None)
        assert check.residual == str(pair.phi.apply(pair.p_q) - pair.p_zero)

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    @pytest.mark.parametrize("gen", ["x1", "z", "w"])
    @pytest.mark.parametrize("side", ["phi", "psi"])
    def test_corrupted_image_trips_its_gate(self, side, gen, corruption):
        pair = _corrupt(build_stable_equivalence([1, 2, 0, -1], 2), side,
                        gen, corruption)
        gate = _sides(pair)[side == "psi"][1]
        assert not gate.holds

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    @pytest.mark.parametrize("gen", ["y", "z"])
    def test_fallback_image_identity_keeps_the_residual(self, gen,
                                                        corruption):
        # a wrong stored y- or z-image of phi or psi fails the map's image
        # identity with the residual of direct substitution; P_q and P0
        # hold z only through its square, so a negated z-image passes it
        pair = build_stable_equivalence([1, 2, 0, -1], 2)
        for side in ("phi", "psi"):
            bad = _corrupt(pair, side, gen, corruption)
            m, source, target, name = (
                (bad.phi, bad.p_q, bad.p_zero, "phi-sends-family-to-constant")
                if side == "phi" else
                (bad.psi, bad.p_zero, bad.p_q, "psi-sends-constant-to-family"))
            assert not m.deferred
            checks = {c.name: c
                      for c in verify_stable_equivalence(bad).checks}
            check = checks[name]
            assert check.passed == (gen == "z" and corruption == "negated")
            assert check.residual == str(m.apply(source) - target)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("coeffs", [*SYMBOL_QS.values(), [7]],
                             ids=[*SYMBOL_QS.keys(), "7"])
    def test_proof_route_prints_the_direct_route_certificate(self, coeffs,
                                                             n):
        # the same maps with every image expanded take the direct route:
        # apply for the image identities, the expansion for the degree
        pair = build_stable_equivalence(coeffs, n)
        plain = [RingEndomorphism(m.sig, {g: m.image(g) for g in m.sig.names})
                 for m in (pair.phi, pair.psi)]
        direct = StableEquivPair(pair.n, pair.q, pair.r, *plain, pair.p_q,
                                 pair.p_zero)
        texts = []
        for which in (pair, direct):
            cert = verify_stable_equivalence(which)
            run_schwartz_zippel(cert, random.Random(0), points=25)
            texts.append(cert.to_json())
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    @pytest.mark.parametrize("side", ["phi", "psi"])
    def test_fallback_round_trip_keeps_the_residual(self, side, corruption):
        # a wrong w-image leaves the image identities passing; the round
        # trip with that outer map fails on the formula at the stored
        # images: z' = (1 - s*rho)z~ + x^[2]w~, w' = (1 + s*rho)w~ -
        # rho^2 z~ with the inner twist, z~, w~ the outer map's images
        # and rho = r(outer map's image of its source)
        bad = _corrupt(build_stable_equivalence([1, 2, 0, -1], 2), side,
                       "w", corruption)
        outer, inner_sign, source, stem = (
            (bad.phi, -1, bad.p_q, "phi-after-psi") if side == "phi"
            else (bad.psi, 1, bad.p_zero, "psi-after-phi"))
        sig = outer.sig
        s1, s2 = x_power_bracket(sig, 1), x_power_bracket(sig, 2)
        rho = bad.r.subs_into(outer.apply(source))
        z_old, w_old = outer.image("z"), outer.image("w")
        z_new = (1 - s1 * rho * inner_sign) * z_old + s2 * w_old * inner_sign
        w_new = (1 + s1 * rho * inner_sign) * w_old \
            - rho * rho * z_old * inner_sign
        checks = {c.name: c for c in verify_stable_equivalence(bad).checks}
        for gen, image in (("z", z_new), ("w", w_new)):
            var = Polynomial.variable(sig, gen)
            assert checks[f"{stem}-fixes-{gen}"].residual == str(image - var)
        assert not checks[f"{stem}-fixes-w"].passed

    def _spy(self, monkeypatch):
        applied, zw_args = [], []
        apply = RingEndomorphism.apply
        cylinder_zw = equivalence._cylinder_zw
        monkeypatch.setattr(RingEndomorphism, "apply", lambda m, p: (
            applied.append((m, p)), apply(m, p))[1])
        monkeypatch.setattr(equivalence, "_cylinder_zw",
                            lambda sign, rho, z, w: (zw_args.append((z, w)),
                                                     cylinder_zw(sign, rho,
                                                                 z, w))[1])
        return applied, zw_args

    @pytest.mark.parametrize("coeffs", SYMBOL_QS.values(),
                             ids=SYMBOL_QS.keys())
    def test_gates_that_hold_expand_no_image(self, monkeypatch, coeffs):
        pair = build_stable_equivalence(coeffs, 2)
        applied, zw_args = self._spy(monkeypatch)
        assert verify_stable_equivalence(pair).passed
        assert not [m for m, p in applied if p is pair.p_q]
        stored = [m.image(g) for m in (pair.phi, pair.psi) for g in "zw"]
        assert not [a for args in zw_args for a in args
                    if any(a is img for img in stored)]

    def test_spy_sees_the_fallback(self, monkeypatch):
        bad = _corrupt(build_stable_equivalence([1, 2, 0, -1], 1), "phi",
                       "z", "plus-1")
        applied, zw_args = self._spy(monkeypatch)
        verify_stable_equivalence(bad)
        assert [m for m, p in applied if p is bad.p_q] == [bad.phi]


# (t - 1)^8 at n = 1: its build, verify and 25-point re-check pass from a
# term limit of 5,953 (psi(w)) up; forming N of phi needs 15,645
TERM_LIMIT_K8 = 10_000


class TestDeferredYImage:
    """The build keeps each y-image as Z over the symbol S, q, the target
    and x^[2]; the verifier proves x^[2] | N(target), for N = S -
    z_part(q, Z), by a truncated test and reads the degree off top
    forms, so no verdict expands a y-image it can prove or forms N."""

    @pytest.mark.parametrize("n, coeffs", [
        *[(1, dense_power([-1, 1], k)) for k in range(1, 7)],
        *[(2, dense_power([-1, 1], k)) for k in range(1, 5)],
        *[(n, SYMBOL_QS[name]) for n in (1, 2)
          for name in ("1+2t-t^3", "sqrt2")],
        (1, dense_power([-1, 1], 7))])
    def test_degree_formula_matches_the_expansion(self, n, coeffs):
        pair = build_stable_equivalence(coeffs, n)
        for m, gate, q, target in _sides(pair):
            proved = _quotient_proved(m, gate, q, target)
            assert proved
            assert _y_degree(m, proved) == m.image("y").degree()

    def test_top_of_a_sum_adds_tied_forms_and_refuses_a_cancellation(self):
        sig = RingSignature(1, has_w=True)
        x1, z, w = (Polynomial.variable(sig, name) for name in ("x1", "z",
                                                                "w"))
        called = []

        def form(p):
            return lambda: called.append(p) or p

        degree, top = _top_of_sum([(1, form(z)), (2, form(x1 * w))])
        assert (degree, top()) == (2, x1 * w) and called == [x1 * w]
        degree, top = _top_of_sum([(2, form(x1 * w)), (2, form(z * w)),
                                   (1, form(z))])
        assert (degree, top()) == (2, x1 * w + z * w)
        assert _top_of_sum([(2, form(z * w)), (2, form(-z * w)),
                            (1, form(z))]) is None

    def test_phi_y_stays_unexpanded_through_verify_and_recheck(self):
        pair = build_stable_equivalence(dense_power([-1, 1], 4), 2)
        cert = verify_stable_equivalence(pair)
        run_schwartz_zippel(cert, random.Random(0), points=25)
        assert cert.passed
        assert "y" not in pair.phi.images

    def test_k8_passes_with_its_recheck(self, monkeypatch):
        # N of phi has 15,669 terms and the largest stored image, psi(w),
        # 5,953; under this term limit forming N stops with ResourceLimit,
        # so the build, the verifier and the re-check never form it
        monkeypatch.setenv("STABLY_DISTINCT_TERM_LIMIT", str(TERM_LIMIT_K8))
        pair = build_stable_equivalence(dense_power([-1, 1], 8), 1)
        cert = verify_stable_equivalence(pair)
        run_schwartz_zippel(cert, random.Random(0), points=25)
        assert cert.passed, [c.name for c in cert.failed_checks()]
        checks = {c.name: c for c in cert.checks}
        assert checks["degree-growth-bound"].details \
            == "max y-image degree 367, bound 386"
        assert "y" not in pair.phi.images and "y" not in pair.psi.images
        with pytest.raises(ResourceLimit, match="expanding phi"):
            pair.phi.image("y")

    @staticmethod
    def _control(pair, n, control):
        """Deferred data of phi, (Z, q, target), with one control off the
        pair's; each leaves N(target) not divisible by x^[2]."""
        sig = pair.phi.sig
        later = pair.phi.deferred["y"]
        z, w = (Polynomial.variable(sig, name) for name in "zw")
        q = pair.q
        return {
            "Z + x^[1]*w": (later.z_sym + x_power_bracket(sig, 1) * w, q,
                            pair.p_zero),
            "Z + w": (later.z_sym + w, q, pair.p_zero),
            "q(0) + 1 in B": (later.z_sym, q, build_Pq(
                PqSpec(n, [q(0) + 1], 0), has_w=True)),
            "r halved": (_cylinder_symbols(1, UnivariatePoly(
                [c / 2 for c in pair.r.coeffs]), sig)[0], q, pair.p_zero),
            "q leading + 1": (later.z_sym, UnivariatePoly(
                [*q.coeffs[:-1], q.coeffs[-1] + 1]), pair.p_zero),
        }[control]

    @pytest.mark.parametrize("control", ["Z + x^[1]*w", "Z + w",
                                         "q(0) + 1 in B", "r halved",
                                         "q leading + 1"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_negative_controls_fail_the_truncated_test(self, n, control):
        pair = build_stable_equivalence(dense_power([-1, 1], 3), n)
        later = pair.phi.deferred["y"]
        assert _x2_divides_at(later.z_sym, later.q, later.target)
        z_sym, q, target = self._control(pair, n, control)
        assert not _x2_divides_at(z_sym, q, target)
        with pytest.raises(NotDivisible):
            DeferredImage(z_sym, q, target, later.divisor, "control").expand()

    @pytest.mark.parametrize("stray", ["x1*z", "x1^4*z"])
    def test_equal_exponent_gate_refuses_a_stray_x1_term(self, stray):
        pair = build_stable_equivalence(dense_power([-1, 1], 3), 2)
        later = pair.phi.deferred["y"]
        sig = pair.phi.sig
        bad = later.z_sym + parse_polynomial(sig, stray)
        assert _x_exponents_equal(later.z_sym) and not _x_exponents_equal(bad)
        assert not _x2_divides_at(bad, later.q, later.target)
        with pytest.raises(NotDivisible):
            DeferredImage(bad, later.q, later.target, later.divisor,
                          "stray").expand()
        # x1^4*z has x-degree 2n = 4: the truncated N, built from the
        # truncated Z alone, would pass it
        assert (truncate(bad, 3) == truncate(later.z_sym, 3)) \
            == (stray == "x1^4*z")

    @staticmethod
    def _with_deferred(pair, **change):
        """The pair with phi's deferred data changed as given."""
        later = pair.phi.deferred["y"]
        data = {"z_sym": later.z_sym, "q": later.q, "target": later.target,
                **change}
        phi = RingEndomorphism(pair.phi.sig,
                               {g: pair.phi.image(g) for g in "zw"},
                               deferred={"y": DeferredImage(
                                   data["z_sym"], data["q"], data["target"],
                                   later.divisor, later.stage)})
        return StableEquivPair(pair.n, pair.q, pair.r, phi, pair.psi,
                               pair.p_q, pair.p_zero)

    def test_deferred_image_that_does_not_divide_fails_its_certificate(
            self):
        # Z + x^[1]*w at (t - 1)^3: reading phi(y) raises NotDivisible
        pair = build_stable_equivalence(dense_power([-1, 1], 3), 1)
        sig = pair.phi.sig
        bad = self._with_deferred(pair, z_sym=pair.phi.deferred["y"].z_sym
                                  + x_power_bracket(sig, 1)
                                  * Polynomial.variable(sig, "w"))
        cert = verify_stable_equivalence(bad)
        checks = {c.name: c for c in cert.checks}
        for name in ("phi-sends-family-to-constant", "degree-growth-bound"):
            assert not checks[name].passed
            assert "phi(y) of the stable pair" in checks[name].details
        for gen in "zwy":
            assert checks[f"phi-after-psi-fixes-{gen}"].details \
                == "not built: phi-sends-family-to-constant failed"
        assert run_schwartz_zippel(cert, random.Random(0), points=3) == 10
        assert not cert.passed

    def test_deferred_data_off_the_symbol_takes_the_direct_route(self):
        # Z + x^[2]*z still divides, but phi(y) gains z and phi(P_q) != P0
        pair = build_stable_equivalence([1, 2, 0, -1], 2)
        sig = pair.phi.sig
        z_sym = pair.phi.deferred["y"].z_sym + x_power_bracket(sig, 2) \
            * Polynomial.variable(sig, "z")
        bad = self._with_deferred(pair, z_sym=z_sym)
        assert _x2_divides_at(z_sym, pair.q, pair.p_zero)
        phi, gate, q, target = _sides(bad)[0]
        assert gate.holds and not _quotient_proved(phi, gate, q, target)
        checks = {c.name: c for c in verify_stable_equivalence(bad).checks}
        check = checks["phi-sends-family-to-constant"]
        assert not check.passed
        assert check.residual == str(phi.apply(bad.p_q) - bad.p_zero)

    @pytest.mark.parametrize("change", ["target + x^[2]*z", "q(0) + 1",
                                        "q leading + 1"])
    def test_stored_y_image_with_a_changed_q_or_target_takes_apply(
            self, monkeypatch, change):
        # the gate holds, but the stored q or target is not the pair's: the
        # identity is computed by apply and fails, with the residual of
        # apply where the changed data still divides
        pair = build_stable_equivalence(dense_power([-1, 1], 3), 2)
        sig = pair.phi.sig
        q = pair.q
        bad = self._with_deferred(pair, **{
            "target + x^[2]*z": {"target": pair.p_zero + x_power_bracket(
                sig, 2) * Polynomial.variable(sig, "z")},
            "q(0) + 1": {"q": UnivariatePoly([q(0) + 1, *q.coeffs[1:]])},
            "q leading + 1": {"q": UnivariatePoly(
                [*q.coeffs[:-1], q.coeffs[-1] + 1])},
        }[change])
        phi, gate, q, target = _sides(bad)[0]
        assert gate.holds and not _quotient_proved(phi, gate, q, target)
        applied = []
        apply = RingEndomorphism.apply
        monkeypatch.setattr(RingEndomorphism, "apply", lambda m, p: (
            applied.append((m, p)), apply(m, p))[1])
        check = verify_stable_equivalence(bad).checks[0]
        assert check.name == "phi-sends-family-to-constant"
        assert not check.passed
        assert applied[0] == (phi, bad.p_q)
        try:
            residual = str(apply(phi, bad.p_q) - bad.p_zero)
        except NotDivisible as err:
            assert change != "target + x^[2]*z"
            assert check.details == f"not built: {err}"
        else:
            assert check.residual == residual


class TestTheoremCertificate:
    def test_passes_for_small_dimensions(self):
        cert = theorem_certificate(1, 2)
        assert cert.passed

    def test_structure_and_key_checks(self):
        cert = theorem_certificate(2, 3)
        assert cert.passed
        names = {c.name for c in cert.checks}
        assert "fiber-classes-differ" in names
        assert "polynomials-not-equivalent" in names
        assert "hypersurfaces-not-equivalent" in names
        assert "cylinder-map-forward" in names
        assert "cylinder-map-backward" in names
        assert "powers-2-and-3-not-equivalent" in names
        assert "constant-members-sign-link" in names
        assert any(name.startswith("member-a-stable/") for name in names)
        assert any(name.startswith("power-3-stable/") for name in names)
        assert any(name.startswith("cylinder-round-trip-") for name in names)

    def test_json_is_deterministic(self):
        first = theorem_certificate(1, 2).to_json()
        second = theorem_certificate(1, 2).to_json()
        assert first == second

    @pytest.mark.parametrize("n", [1, 2])
    def test_power_family_is_powers_of_t_minus_1(self, n):
        # no check of the certificate depends on which powers it certifies:
        # with (t + 1)^k every check still passes, so pin P_q of each power
        cert = theorem_certificate(n, 5)
        sources = {c.name: c.sz_fn.source for c in cert.checks
                   if c.name.endswith("-stable/phi-sends-family-to-constant")}
        for k in range(1, 6):
            q = UnivariatePoly(dense_power([-1, 1], k))
            assert sources[f"power-{k}-stable/phi-sends-family-to-constant"] \
                == build_Pq(PqSpec(n, q, 0), has_w=True)

    def test_precondition_guards(self):
        with pytest.raises(ValueError):
            theorem_certificate(0, 2)
        with pytest.raises(ValueError):
            theorem_certificate(1, 1)

    @pytest.mark.parametrize("k_max", [2.5, 3.0, "3", True, None])
    def test_non_int_k_max_is_refused(self, k_max):
        # True was read as 1 and refused only as below 2
        with pytest.raises(ParseError, match="k_max must be an int"):
            theorem_certificate(1, k_max)

    @pytest.mark.parametrize("n", [2.7, True, "2"])
    def test_non_int_dimension_is_refused(self, n):
        with pytest.raises(ParseError):
            theorem_certificate(n, 2)
        with pytest.raises(ParseError):
            build_stable_equivalence([-1, 1], n)

    def test_custom_level_samples(self):
        cert = theorem_certificate(1, 2, c_samples=[0, 3])
        assert cert.passed
        names = {c.name for c in cert.checks}
        assert "powers-1-and-2-fibers-isomorphic-at-c=3" in names
