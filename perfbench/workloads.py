"""The three workloads: inputs from a seed, one pass, and its checks.

A workload object is built during set-up from a freshly imported package
and the seed.  ``run_pass`` performs one whole round of the same
operations and returns ``(record, attempted, failed)``, with no record
when the pass's one operation failed.  ``rate`` turns a record and its
pass time into the workload's operations per second, and ``output`` picks
the part of a record that every pass over the same inputs must repeat.
``check`` returns the errors found in a record by checks computed apart
from the program (see ``checks``).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import time
from fractions import Fraction

import checks


def _run_cli(cli, argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


class StableK4:
    """``stable-equiv`` for q = (t - 1)^4: a few huge polynomials."""

    name = "stable-k4"
    min_passes = 1
    n = 1
    q = (1, -4, 6, -4, 1)

    def __init__(self, pkg, cli, seed: int):
        self.cli = cli
        self.seed = seed
        self.argv = ["--sz-points", "0", "--format", "json", "stable-equiv",
                     "--n", str(self.n), "--q", ",".join(map(str, self.q)),
                     "--show-maps"]

    def run_pass(self):
        code, text = _run_cli(self.cli, self.argv)
        if code != 0:
            return None, 1, 1
        return text, 1, 0

    def output(self, record):
        return record

    def rate(self, record, wall):
        """Generator-image terms produced per second."""
        sizes = json.loads(record)["map_sizes"]
        return sum(sum(side.values()) for side in sizes.values()) / wall

    def check(self, record):
        payload = json.loads(record)
        errors = [] if payload["certificate"]["pass"] else \
            ["certificate does not pass"]
        return errors + checks.check_stable_maps(
            self.n, list(self.q), payload["maps"], payload["map_sizes"],
            self.seed)


class TheoremRecheck:
    """``verify-theorem --n 2 --k-max 3`` with the default numeric re-check."""

    name = "theorem-recheck"
    min_passes = 2          # passes with one seed must print the same bytes
    n = 2
    k_max = 3
    sz_points = 25          # the CLI's default

    def __init__(self, pkg, cli, seed: int):
        self.pkg = pkg
        self.cli = cli
        self.seed = seed
        self.argv = ["--format", "json", "--seed", str(seed),
                     "--sz-points", str(self.sz_points), "verify-theorem",
                     "--n", str(self.n), "--k-max", str(self.k_max)]

    def run_pass(self):
        cli = self.cli
        inner = cli.run_schwartz_zippel
        timing = {"sz_s": 0.0}

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                timing["sz_s"] += time.perf_counter() - start

        cli.run_schwartz_zippel = timed
        try:
            code, text = _run_cli(cli, self.argv)
        finally:
            cli.run_schwartz_zippel = inner
        if code != 0:
            return None, 1, 1
        return {"text": text, **timing}, 1, 0

    def output(self, record):
        return record["text"]

    def rate(self, record, wall):
        """Re-check point evaluations per second of re-check time."""
        results = json.loads(record["text"])["certificate"]["checks"]
        sz_checks = sum(c["name"].endswith("/sz") for c in results)
        return sz_checks * self.sz_points / record["sz_s"]

    def check(self, record):
        pkg = self.pkg
        cert = json.loads(record["text"])["certificate"]
        errors = [f"check {c['name']} fails" for c in cert["checks"]
                  if not c["pass"]]
        names = [c["name"] for c in cert["checks"]]
        reference = pkg.theorem_certificate(self.n, self.k_max)
        identities = {c.name for c in reference.checks
                      if c.sz_fn is not None}
        siblings = [name for name in names if name.endswith("/sz")]
        for name in identities:
            if siblings.count(f"{name}/sz") != 1:
                errors.append(f"identity {name} has "
                              f"{siblings.count(name + '/sz')} /sz checks")
        if len(siblings) != len(identities):
            errors.append(f"{len(siblings)} /sz checks for "
                          f"{len(identities)} identities")

        # negative control: a sign-corrupted phi(w) must fail its re-check
        pair = pkg.build_stable_equivalence(pkg.UnivariatePoly([-1, 1]),
                                            self.n)
        bad_phi = pkg.RingEndomorphism(pair.phi.sig, {
            "y": pair.phi.image("y"), "z": pair.phi.image("z"),
            "w": -pair.phi.image("w")})
        bad = pkg.StableEquivPair(pair.n, pair.q, pair.r, bad_phi, pair.psi,
                                  pair.p_q, pair.p_zero)
        control = pkg.verify_stable_equivalence(bad)
        pkg.run_schwartz_zippel(control, random.Random(self.seed), points=25)
        if not any(c.name == "phi-after-psi-fixes-w/sz" and not c.passed
                   for c in control.checks):
            errors.append("corrupted phi(w) passed its numeric re-check")
        return errors


def _small_fraction(rng: random.Random, bound: int = 20) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def _support(vec) -> tuple:
    return tuple(j for j, v in enumerate(vec) if v)


class SmallBatch:
    """Many small library calls: the decider, fiber maps, LND, series."""

    name = "small-batch"
    min_passes = 1
    decisions = 3000
    fibers = 216            # 12 specs for each (n, deg q)
    series_orders = ((1, 6), (1, 8), (2, 6))

    def __init__(self, pkg, cli, seed: int):
        self.pkg = pkg
        rng = random.Random(seed)
        # criterion 6's grid: deg <= 3, coefficients -2..2, levels 0, 1, -1
        grid = [(vec, c) for vec in itertools.product(range(-2, 3), repeat=4)
                for c in (0, 1, -1)]
        by_support = {}
        for vec, c in grid:
            by_support.setdefault(_support(vec), []).append((vec, c))
        self.pairs = []
        for _ in range(self.decisions):
            vec1, c1 = rng.choice(grid)
            vec2, c2 = rng.choice(by_support[_support(vec1)])
            self.pairs.append((vec1, Fraction(c1), vec2, Fraction(c2)))
        # criterion 2's generator, with n in 1..3 and deg q in 0..5 taken
        # in equal shares rather than at random: the cost of a spec grows
        # with both, and balanced shares keep the pass cost from drifting
        # with the seed
        self.fiber_specs = []
        for i in range(self.fibers):
            n, deg = 1 + i % 3, i // 3 % 6
            q = [_small_fraction(rng) for _ in range(deg + 1)]
            self.fiber_specs.append((n, q, _small_fraction(rng)))
        # the shared spec corpus of the derivation suites
        qs = [[], [1], [-2], [0, 1], [-1, 1], [-2, 1], [1, -2, 1],
              [-1, 3, -3, 1], [Fraction(1, 2), 0, 2]]
        self.lnd_specs = [(n, q, Fraction(c)) for n in (1, 2, 3) for q in qs
                          for c in (0, 1, 2, -1, Fraction(1, 2))]

    def run_pass(self):
        pkg = self.pkg
        poly, decide = pkg.UnivariatePoly, pkg.decide_hypersurface_equivalence
        undecidable = pkg.NotDecidableInField
        failed = 0
        outcomes = []
        start = time.perf_counter()
        for vec1, c1, vec2, c2 in self.pairs:
            try:
                witness = decide(poly(vec1), c1, poly(vec2), c2)
            except undecidable:
                outcomes.append("undecidable")
            except Exception:           # counted, the batch goes on
                outcomes.append(None)
                failed += 1
            else:
                outcomes.append("none" if witness is None
                                else witness.inputs_dict())
        decide_s = time.perf_counter() - start

        jobs = ([(pkg.verify_fiber_isomorphism, spec)
                 for spec in self.fiber_specs]
                + [(pkg.verify_lnd, spec) for spec in self.lnd_specs])
        jobs = [(verify, (pkg.PqSpec(n, pkg.UnivariatePoly(q), c),))
                for verify, (n, q, c) in jobs]
        jobs += [(pkg.verify_biholomorphism, args)
                 for args in self.series_orders]
        certificates = []
        for verify, args in jobs:
            try:
                cert = verify(*args)
            except Exception:           # counted, the batch goes on
                certificates.append(None)
                failed += 1
            else:
                certificates.append(cert.to_json())
                failed += not cert.passed
        record = {"outcomes": outcomes, "certificates": certificates,
                  "decide_s": decide_s}
        return record, len(outcomes) + len(certificates), failed

    def output(self, record):
        return record["outcomes"], record["certificates"]

    def rate(self, record, wall):
        """Decider calls per second of decider time."""
        return len(record["outcomes"]) / record["decide_s"]

    def check(self, record):
        errors = []
        for (vec1, c1, vec2, c2), outcome in zip(self.pairs,
                                                 record["outcomes"]):
            if outcome is not None:
                errors += [f"q1={vec1} c1={c1} q2={vec2} c2={c2}: {e}"
                           for e in checks.check_decision(
                               vec1, c1, vec2, c2, outcome)]
        return errors


WORKLOADS = {w.name: w for w in (StableK4, TheoremRecheck, SmallBatch)}
