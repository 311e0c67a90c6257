"""Tests of the benchmark's own checkers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import sys
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
from stably_distinct import (RingEndomorphism, UnivariatePoly,  # noqa: E402
                             build_stable_equivalence)


def printed_pair(q, n=1):
    """The maps and map_sizes fields as stable-equiv --show-maps prints them."""
    pair = build_stable_equivalence(UnivariatePoly(q), n)
    maps = {"phi": pair.phi.to_dict(), "psi": pair.psi.to_dict()}
    sizes = {side: {name: getattr(pair, side).image(name).term_count()
                    for name in pair.phi.sig.names}
             for side in ("phi", "psi")}
    return pair, maps, sizes


class MapCheckerTest(unittest.TestCase):
    q = [1, -2, 1]          # (t - 1)^2

    def test_accepts_the_program_maps(self):
        _, maps, sizes = printed_pair(self.q)
        self.assertEqual(checks.check_stable_maps(1, self.q, maps, sizes, 7),
                         [])

    def test_rejects_sign_corrupted_phi_w(self):
        pair, maps, sizes = printed_pair(self.q)
        maps["phi"]["w"] = str(-pair.phi.image("w"))
        errors = checks.check_stable_maps(1, self.q, maps, sizes, 7)
        self.assertTrue(any("phi(psi(v))" in e or "psi(phi(v))" in e
                            for e in errors), errors)

    def test_rejects_wrong_term_count(self):
        _, maps, sizes = printed_pair(self.q)
        sizes["phi"]["y"] += 1
        errors = checks.check_stable_maps(1, self.q, maps, sizes, 7)
        self.assertTrue(any("map_sizes[phi][y]" in e for e in errors))

    def test_reader_matches_the_canonical_text(self):
        pair, _, _ = printed_pair(self.q)
        image = pair.phi.image("y")
        names = list(pair.phi.sig.names)
        self.assertEqual(checks.read_poly(str(image), names), image.terms)
        back = RingEndomorphism.from_dict(pair.phi.to_dict())
        self.assertEqual(back.image("y"), image)


class DeciderCheckerTest(unittest.TestCase):
    # {P_(t-1) = 1} and {P_(4t-1) = 1/4}: lambda = 1, mu = 4, eps = 1/2
    q1, c1, q2, c2 = (-1, 1, 0, 0), 1, (-1, 4, 0, 0), Fraction(1, 4)

    def test_accepts_a_true_witness(self):
        witness = {"lambda": "1", "mu": "4", "epsilon": "1/2"}
        self.assertEqual(checks.check_decision(
            self.q1, self.c1, self.q2, self.c2, witness), [])

    def test_rejects_a_wrong_lambda(self):
        witness = {"lambda": "2", "mu": "4", "epsilon": "1/2"}
        errors = checks.check_decision(self.q1, self.c1, self.q2, self.c2,
                                       witness)
        self.assertTrue(any("coefficient" in e for e in errors), errors)

    def test_rejects_none_when_a_rational_mu_exists(self):
        for outcome in ("none", "undecidable"):
            self.assertTrue(checks.check_decision(
                self.q1, self.c1, self.q2, self.c2, outcome))

    def test_checks_a_witness_in_a_quadratic_extension(self):
        # 1 + t^2 and 1 - t^2/4 at level 0: mu = i/2, eps^2 = 1/mu = -2i
        q1, q2 = (1, 0, 1), (1, 0, Fraction(-1, 4))
        witness = {"lambda": "1", "mu": "0+1*sqrt(-1/4)",
                   "epsilon": "1-2*sqrt(-1/4)"}
        self.assertEqual(checks.check_witness(q1, 0, q2, 0, witness), [])
        witness["epsilon"] = "1+2*sqrt(-1/4)"
        self.assertEqual(checks.check_witness(q1, 0, q2, 0, witness),
                         ["eps^2 * mu != 1"])
        self.assertIsNone(checks.rational_mu_witness(q1, 0, q2, 0))

    def test_rational_search_finds_sign_flips(self):
        self.assertEqual(checks.rational_mu_witness((0, 1, 1), 0,
                                                    (0, -1, 1), 0),
                         (Fraction(1), Fraction(-1)))


class RunnerTest(unittest.TestCase):
    class Drifting:
        """A workload whose third pass prints something else."""

        def __init__(self):
            self.passes = 0

        def run_pass(self):
            self.passes += 1
            return {"text": "x" if self.passes != 3 else "y"}, 1, 0

        def rate(self, record, wall):
            return 1 / wall

        def output(self, record):
            return record["text"]

    def test_counts_passes_whose_output_differs_from_the_first(self):
        runner = run.Runner(self.Drifting())
        runner.passes(0, 4)
        self.assertEqual((runner.attempted, runner.mismatches), (4, 1))
        self.assertEqual(runner.first, {"text": "x"})


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_lists_match_the_runner(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
