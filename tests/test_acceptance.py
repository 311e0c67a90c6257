"""Acceptance suite: one test per shipped guarantee, with time budgets.

Every criterion is checked at its stated tolerance — which is exactness:
a certificate check passes only when its residual is identically zero.
Each test prints one summary line (criterion N: PASS/FAIL) directly to
the terminal, bypassing capture, and asserts its wall-clock budget.
"""

import itertools
import json
import random
import time
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache

import pytest

from stably_distinct.certificate import Certificate, run_schwartz_zippel
from stably_distinct.cli import main as cli_main
from stably_distinct.equivalence import (StableEquivPair,
                                         brute_force_hyper_equivalence,
                                         build_stable_equivalence,
                                         decide_hypersurface_equivalence,
                                         theorem_certificate,
                                         verify_hyper_equivalence,
                                         verify_stable_equivalence)
from stably_distinct.errors import NotDecidableInField
from stably_distinct.exactfield import QuadExt
from stably_distinct.formalseries import (truncation_coherence,
                                          verify_biholomorphism)
from stably_distinct.hypersurface import (PqSpec, build_Pq,
                                          verify_fiber_isomorphism)
from stably_distinct.lnd import (build_Delta, decompose_as_Delta_multiple,
                                 nilpotency_index, nilpotency_index_bound,
                                 verify_lnd)
from stably_distinct.morphisms import Derivation, RingEndomorphism
from stably_distinct.polyring import (Polynomial, RingSignature,
                                      UnivariatePoly)

from conftest import small_fraction, spec_corpus


@contextmanager
def criterion(capsys, number: int, detail_box: dict):
    """Print the one-line verdict for a criterion, bypassing capture."""
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number}: FAIL")
        raise
    with capsys.disabled():
        print(f"criterion {number}: PASS"
              + (f" — {detail_box['text']}" if detail_box.get("text")
                 else ""))


# -- lazily built artifacts shared with the final numeric re-check --------

@lru_cache(maxsize=None)
def theorem_artifacts():
    return tuple(theorem_certificate(n, 3) for n in (1, 2, 3))


@lru_cache(maxsize=None)
def fiber_artifacts():
    rng = random.Random(20260823)
    out = []
    for _ in range(200):
        n = rng.randint(1, 3)
        deg = rng.randint(0, 5)
        q = UnivariatePoly([small_fraction(rng, 20)
                            for _ in range(deg + 1)])
        c = small_fraction(rng, 20)
        spec = PqSpec(n, q, c)
        out.append(verify_fiber_isomorphism(spec))
    return tuple(out)


def _power(k: int) -> UnivariatePoly:
    base = UnivariatePoly([-1, 1])
    poly = base
    for _ in range(k - 1):
        poly = poly * base
    return poly


@lru_cache(maxsize=None)
def stable_artifacts():
    out = {}
    for k in (1, 2, 3):
        for n in (1, 2):
            pair = build_stable_equivalence(_power(k), n)
            out[(k, n)] = verify_stable_equivalence(pair)
    return out


@lru_cache(maxsize=None)
def series_artifacts():
    return (verify_biholomorphism(1, 8), verify_biholomorphism(2, 6),
            truncation_coherence(1, 8, 6))


@lru_cache(maxsize=None)
def lnd_artifact() -> Certificate:
    cert = Certificate(
        "the locally nilpotent derivation kills every member, respects "
        "its nilpotency index bound, and multiples h*Delta are "
        "recognized with the exact multiplier recovered",
        {"corpus": "every (n, q, c) in the shared test corpus"})
    corpus = [PqSpec(n, list(q), c) for n, q, c in spec_corpus()]
    for i, spec in enumerate(corpus):
        delta = build_Delta(spec)
        fiber = build_Pq(spec) - spec.c
        cert.record(f"kills-member-{i}", delta.apply(fiber))

    rng = random.Random(4)
    bound_ok = True
    sig_cache = {}
    for _ in range(60):
        spec = corpus[rng.randrange(len(corpus))]
        delta = build_Delta(spec)
        sig = spec.signature()
        exps = [0] * sig.nvars
        exps[sig.y_index] = rng.randint(0, 2)
        exps[sig.z_index] = rng.randint(0, 3)
        for i in range(sig.n):
            exps[i] = rng.randint(0, 2)
        p = Polynomial.monomial(sig, tuple(exps), small_fraction(rng, 9))
        if p.is_zero():
            continue
        index = nilpotency_index(delta, p)
        limit = nilpotency_index_bound(spec, p)
        if index > limit:
            bound_ok = False
            cert.record_bool(
                "nilpotency-index-bound", False,
                details=f"index {index} exceeds bound {limit} on {p}")
            break
    if bound_ok:
        cert.record_bool("nilpotency-index-bound", True,
                         details="60 random monomials within the bound")

    for i in range(50):
        spec = corpus[rng.randrange(len(corpus))]
        sig = spec.signature()
        delta = build_Delta(spec)
        exps = [0] * sig.nvars
        for j in range(sig.n):
            exps[j] = rng.randint(0, 2)
        h = Polynomial.monomial(sig, tuple(exps), small_fraction(rng, 9))
        if h.is_zero():
            h = Polynomial.constant(sig, 1)
        scaled = Derivation(sig, {
            name: h * delta.image(name) for name in sig.names})
        recovered = decompose_as_Delta_multiple(scaled, spec)
        cert.record(f"multiplier-round-trip-{i}", recovered, h)

    for n, q, c in ((1, (0, 1), 0), (2, (1, -2, 1), 1), (3, (-1, 1), 2)):
        cert.absorb(verify_lnd(PqSpec(n, list(q), c)), f"suite-n{n}")
    return cert


# -- the seven criteria ---------------------------------------------------

def test_criterion_1_theorem_via_cli(capsys):
    box = {}
    with criterion(capsys, 1, box):
        start = time.time()
        for n in (1, 2, 3):
            code = cli_main(["--format", "json", "--sz-points", "0",
                             "verify-theorem", "--n", str(n),
                             "--k-max", "4"])
            out = capsys.readouterr().out
            assert code == 0
            report = json.loads(out)
            assert report["certificate"]["pass"] is True
            for check in report["certificate"]["checks"]:
                assert check["pass"] is True
        elapsed = time.time() - start
        assert elapsed < 60, f"theorem runs took {elapsed:.1f}s"
        box["text"] = (f"verify-theorem n=1,2,3 k-max=4 all exact "
                       f"in {elapsed:.2f}s (budget 60s)")


def test_criterion_2_randomized_fiber_isomorphisms(capsys):
    box = {}
    with criterion(capsys, 2, box):
        start = time.time()
        certs = fiber_artifacts()
        assert len(certs) == 200
        for cert in certs:
            assert cert.passed, [c.name for c in cert.failed_checks()]
            assert len(cert.checks) >= 5
        elapsed = time.time() - start
        assert elapsed < 30, f"fiber runs took {elapsed:.1f}s"
        box["text"] = (f"200 random specs (deg <= 5, n <= 3) verified "
                       f"in {elapsed:.2f}s (budget 30s)")


def test_criterion_3_stable_pairs_and_negative_control(capsys):
    box = {}
    with criterion(capsys, 3, box):
        start = time.time()
        certs = stable_artifacts()
        for (k, n), cert in certs.items():
            assert cert.passed, ((k, n),
                                 [c.name for c in cert.failed_checks()])
            names = {c.name for c in cert.checks}
            assert "phi-sends-family-to-constant" in names
            assert "psi-sends-constant-to-family" in names
            for stem in ("phi-after-psi", "psi-after-phi"):
                for gen in ("y", "z", "w"):
                    assert f"{stem}-fixes-{gen}" in names

        # sign-corrupted phi(w) must be caught
        pair = build_stable_equivalence(_power(1), 1)
        bad_phi = RingEndomorphism(pair.phi.sig, {
            "y": pair.phi.image("y"), "z": pair.phi.image("z"),
            "w": -pair.phi.image("w")})
        bad = StableEquivPair(pair.n, pair.q, pair.r, bad_phi, pair.psi,
                              pair.p_q, pair.p_zero)
        control = verify_stable_equivalence(bad)
        assert not control.passed
        failed = {c.name for c in control.failed_checks()}
        assert "phi-after-psi-fixes-w" in failed

        elapsed = time.time() - start
        assert elapsed < 30, f"stable runs took {elapsed:.1f}s"
        box["text"] = (f"(t-1)^k pairs for k <= 3, n <= 2 exact, "
                       f"corrupted control rejected, in {elapsed:.2f}s "
                       f"(budget 30s)")


def test_criterion_4_derivation_suite(capsys):
    box = {}
    with criterion(capsys, 4, box):
        start = time.time()
        cert = lnd_artifact()
        assert cert.passed, [c.name for c in cert.failed_checks()]
        kills = [c for c in cert.checks if c.name.startswith("kills-")]
        rounds = [c for c in cert.checks
                  if c.name.startswith("multiplier-round-trip-")]
        assert len(kills) == len(spec_corpus())
        assert len(rounds) == 50
        elapsed = time.time() - start
        assert elapsed < 10, f"derivation suite took {elapsed:.1f}s"
        box["text"] = (f"{len(kills)} corpus members killed, index bound "
                       f"held, 50 multiplier round trips, in "
                       f"{elapsed:.2f}s (budget 10s)")


def test_criterion_5_series_checks(capsys):
    box = {}
    with criterion(capsys, 5, box):
        start = time.time()
        order8, order6, stability = series_artifacts()
        for cert in (order8, order6, stability):
            assert cert.passed, [c.name for c in cert.failed_checks()]
        elapsed = time.time() - start
        assert elapsed < 5, f"series checks took {elapsed:.1f}s"
        box["text"] = (f"orders 8 (n=1) and 6 (n=2) plus 8->6 stability "
                       f"in {elapsed:.2f}s (budget 5s)")


def test_criterion_6_oracle_agreement(capsys):
    box = {}
    with criterion(capsys, 6, box):
        start = time.time()
        coeffs = [Fraction(v) for v in (-2, -1, 0, 1, 2)]
        levels = [Fraction(0), Fraction(1), Fraction(-1)]
        by_support = defaultdict(list)
        for vec in itertools.product(coeffs, repeat=4):
            q = UnivariatePoly(vec)
            for c in levels:
                by_support[q.support()].append((q, c))
        total = sum(len(g) for g in by_support.values())
        assert total == 5 ** 4 * 3

        # the support-mismatch branch depends only on the two support
        # patterns, so cover all ordered pattern pairs exhaustively once
        reps = {sup: group[0] for sup, group in by_support.items()}
        mismatch_pairs = 0
        for s1, (q1, c1) in reps.items():
            for s2, (q2, c2) in reps.items():
                if s1 == s2:
                    continue
                assert brute_force_hyper_equivalence(q1, c1, q2, c2) \
                    is None
                assert decide_hypersurface_equivalence(q1, c1, q2, c2) \
                    is None
                mismatch_pairs += 1

        # full double-call comparison on every same-support pair
        stats = {"equivalent": 0, "none": 0, "undecidable": 0,
                 "irrational": 0}
        verified_sample = 0
        compared = 0
        for group in by_support.values():
            for q1, c1 in group:
                for q2, c2 in group:
                    compared += 1
                    oracle = brute_force_hyper_equivalence(
                        q1, c1, q2, c2)
                    try:
                        decided = decide_hypersurface_equivalence(
                            q1, c1, q2, c2)
                    except NotDecidableInField:
                        decided = "undecidable"
                    if oracle is not None:
                        assert decided is not None
                        assert decided != "undecidable"
                        stats["equivalent"] += 1
                        if stats["equivalent"] % 500 == 1:
                            cert = verify_hyper_equivalence(
                                q1, c1, q2, c2, decided)
                            assert cert.passed
                            verified_sample += 1
                    elif decided == "undecidable":
                        stats["undecidable"] += 1
                    elif decided is None:
                        stats["none"] += 1
                    else:
                        # the decider may exceed the rational-only oracle
                        # via an irrational mu, never a rational one
                        assert isinstance(decided.mu, QuadExt)
                        stats["irrational"] += 1
        elapsed = time.time() - start
        assert stats["equivalent"] > 0
        assert stats["undecidable"] > 0
        assert elapsed < 60, f"oracle agreement took {elapsed:.1f}s"
        box["text"] = (f"{compared} same-support pairs + {mismatch_pairs} "
                       f"support patterns agreed ({stats['equivalent']} "
                       f"equivalent, {verified_sample} fully re-verified) "
                       f"in {elapsed:.2f}s (budget 60s)")


def test_criterion_7_numeric_recheck_of_all_identities(capsys):
    box = {}
    with criterion(capsys, 7, box):
        rng = random.Random(0)
        total_added = 0
        certs = (list(theorem_artifacts()) + list(fiber_artifacts())
                 + list(stable_artifacts().values())
                 + list(series_artifacts()) + [lnd_artifact()])
        start = time.time()
        for cert in certs:
            # bound 1000 gives a sample line of 2001 values against
            # identities of degree < 100: a false pass at one point has
            # probability < 5%, so 100 independent points push the
            # overall false-pass chance below 10^-130
            added = run_schwartz_zippel(cert, rng, points=100,
                                        bound=1000)
            assert cert.passed, [c.name for c in cert.failed_checks()]
            total_added += added
        elapsed = time.time() - start
        assert total_added > 0
        box["text"] = (f"{total_added} identities across {len(certs)} "
                       f"certificates re-checked at 100 random points "
                       f"each in {elapsed:.2f}s")
