"""Golden output of every CLI subcommand, byte for byte.

Each case runs ``stably_distinct.cli.main`` in-process, once with
``--format json`` and once in text, and compares the exit status and
everything printed to standard output with ``tests/golden/<case>.<format>``
(first line ``exit <status>``, then the output).  A change that alters
these bytes changes the certificates users see, so the files are only
rewritten on purpose, from the repository root, with:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import os

import pytest

from stably_distinct.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden")

CASES = {
    "verify-theorem": ["--seed", "7", "verify-theorem", "--n", "1",
                       "--k-max", "2"],
    # k = 4 at the default 25 points: the re-check of the largest maps
    "verify-theorem-k4": ["--seed", "7", "verify-theorem", "--n", "1",
                          "--k-max", "4"],
    "classify": ["classify", "--n", "2", "--q", "-1,1", "--c", "1"],
    "stable-equiv": ["stable-equiv", "--n", "1", "--q", "1,-2,1",
                     "--show-maps"],
    # denominators in q put the product kernel on Fraction coefficients
    "stable-equiv-frac": ["--sz-points", "5", "--seed", "3", "stable-equiv",
                          "--n", "1", "--q", "1/2,-3,3/4,-1",
                          "--show-maps"],
    # a coefficient in Q(sqrt(2)): the kernel carries sqrt(2) as a variable
    "stable-equiv-sqrt2": ["--sz-points", "5", "--seed", "3",
                           "stable-equiv", "--n", "1",
                           "--q", "0+1*sqrt(2),1,-1/3", "--show-maps"],
    # two x's make psi's y-image divide by x1^2*x2^2
    "stable-equiv-n2-sqrt2": ["--sz-points", "5", "--seed", "3",
                              "stable-equiv", "--n", "2",
                              "--q", "0+1*sqrt(2),1,-1/3", "--show-maps"],
    # constant q: the identity pair, whose round-trip checks interleave
    "stable-equiv-constant": ["stable-equiv", "--n", "1", "--q", "3",
                              "--show-maps"],
    "fiber-iso": ["fiber-iso", "--n", "2", "--q", "1,-2,1", "--c", "1/2",
                  "--show-maps"],
    # maps over Q(sqrt(3)): the re-check composes them in F_p[s]/(s^2 - 3)
    "fiber-iso-sqrt3": ["fiber-iso", "--n", "2", "--q", "1,-2,0+1*sqrt(3)",
                        "--c", "1/2", "--show-maps"],
    "series-check": ["series-check", "--n", "1", "--order", "6",
                     "--stability-low", "3"],
    "equiv-poly": ["equiv", "--kind", "poly", "--q1", "-1,1", "--c1", "1",
                   "--q2", "-2,2", "--c2", "1"],
    # lambda = 1 + sqrt(2): the inverse of lambda^2 stays irrational
    "equiv-poly-sqrt2": ["equiv", "--kind", "poly", "--q1", "-1,1",
                         "--c1", "1", "--q2", "-1-1*sqrt(2),1+1*sqrt(2)",
                         "--c2", "1"],
    # mu = sqrt(2): eps^2 = 1/mu needs a second extension
    "equiv-mu-sqrt2": ["equiv", "--q1", "1,0,1", "--c1", "0",
                       "--q2", "2,0,4", "--c2", "0"],
    "equiv-mu-sqrt-half": ["equiv", "--q1", "1,0,1", "--c1", "0",
                           "--q2", "1,0,2", "--c2", "0"],
    # mu = 1/2, eps = sqrt(2)
    "equiv-eps-sqrt2": ["equiv", "--q1", "1,0,1", "--c1", "0",
                        "--q2", "1,0,1/4", "--c2", "0"],
    # mu = 2, eps = sqrt(1/2)
    "equiv-eps-sqrt-half": ["equiv", "--q1", "1,0,1", "--c1", "0",
                            "--q2", "1,0,4", "--c2", "0"],
    # mu = sqrt(-1/4) and eps = 1 - 2*sqrt(-1/4), both irrational
    "equiv-mu-imaginary": ["equiv", "--q1", "1,0,1", "--c1", "0",
                           "--q2", "1,0,-1/4", "--c2", "0"],
    "equiv-not-decidable": ["equiv", "--q1", "0,1,0,1", "--c1", "0",
                            "--q2", "0,1,0,3", "--c2", "0"],
    "equiv-not-equivalent": ["equiv", "--q1", "-1,1", "--c1", "1",
                             "--q2", "-2,1", "--c2", "1"],
    # a cube root test on an integer far above the float range
    "equiv-huge-cube": ["equiv", "--q1", "1,0,0,1", "--c1", "0",
                        "--q2", "1,0,0,%d" % 10 ** 400, "--c2", "0"],
    # --n reaches the witness check: the certificate lives in x1, x2
    "equiv-hyper-n2": ["equiv", "--n", "2", "--q1", "-1,1", "--c1", "1",
                       "--q2", "-1,4", "--c2", "1/4"],
    # mu^3 = sqrt(2): the norm -2 has no rational cube root
    "equiv-odd-root-sqrt2": ["equiv", "--q1", "1,0,0,1", "--c1", "0",
                             "--q2", "1,0,0,0+1*sqrt(2)", "--c2", "0"],
    "equiv-bad-level": ["equiv", "--q1", "-1,1", "--c1", "1",
                        "--q2", "-2,1", "--c2", "x"],
}

FORMATS = ("json", "text")


def run_case(argv: list[str], fmt: str) -> bytes:
    """``exit <status>`` and standard output of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["--format", fmt] + argv)
    return f"exit {code}\n{out.getvalue()}".encode()


def golden_path(name: str, fmt: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.{fmt}")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, fmt):
    with open(golden_path(name, fmt), "rb") as handle:
        expected = handle.read()
    assert run_case(CASES[name], fmt) == expected


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for case_name, case_argv in sorted(CASES.items()):
        for case_fmt in FORMATS:
            with open(golden_path(case_name, case_fmt), "wb") as handle:
                handle.write(run_case(case_argv, case_fmt))
