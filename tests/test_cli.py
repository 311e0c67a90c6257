"""Tests for the command-line interface."""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stably_distinct.certificate import Certificate
from stably_distinct.cli import _merge_negative_values, main
from stably_distinct.exactfield import quadext


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFlagMerging:
    def test_negative_csv_joined(self):
        assert _merge_negative_values(["--q", "-1,1", "--c", "2"]) == \
            ["--q=-1,1", "--c", "2"]

    def test_negative_fraction_joined(self):
        assert _merge_negative_values(["--c1", "-1/2"]) == ["--c1=-1/2"]

    def test_flags_left_alone(self):
        argv = ["--q", "1,1", "stable-equiv", "--show-maps"]
        assert _merge_negative_values(argv) == argv

    def test_non_value_flag_untouched(self):
        argv = ["--format", "-1,1"]
        assert _merge_negative_values(argv) == argv


class TestClassify:
    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--q", "-1,1",
                               "--c", "1")
        assert code == 0
        assert "class: V_{0,1}" in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "classify",
                               "--q", "-2,1", "--c", "1")
        assert code == 0
        data = json.loads(out)
        assert data["label"] == "V_{1,1}"
        assert data["q_at_level_nonzero"] is True
        assert data["level_nonzero"] is True

    def test_bad_level_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--q", "1,1",
                               "--c", "nope")
        assert code == 2
        assert "error:" in err


class TestEquiv:
    def test_hypersurface_witness_found(self, capsys):
        code, out, _ = run_cli(capsys, "equiv", "--q1", "-1,1", "--c1",
                               "1", "--q2", "-1,4", "--c2", "1/4")
        assert code == 0
        assert "verdict: equivalent" in out
        assert "mu = 4" in out
        assert "result: PASS" in out

    def test_not_equivalent_is_clean(self, capsys):
        code, out, _ = run_cli(capsys, "equiv", "--q1", "-1,1", "--c1",
                               "1", "--q2", "-2,1", "--c2", "1")
        assert code == 0
        assert "verdict: not equivalent" in out

    def test_not_decidable_reports_relation(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "equiv",
                               "--q1", "1,0,1", "--c1", "0",
                               "--q2", "1,0,2", "--c2", "0")
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "not-decidable-in-field"
        assert "relation" in data

    def test_poly_kind(self, capsys):
        code, out, _ = run_cli(capsys, "equiv", "--kind", "poly",
                               "--q1", "1,2", "--c1", "0",
                               "--q2", "2,4", "--c2", "0")
        assert code == 0
        assert "lambda = 2" in out
        assert "result: PASS" in out

    def test_json_includes_witness_and_certificate(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "equiv",
                               "--q1", "0,1", "--c1", "1",
                               "--q2", "0,2", "--c2", "1/2")
        assert code == 0
        data = json.loads(out)
        assert data["witness"]["mu"] == "2"
        assert data["certificate"]["pass"] is True

    def test_n_reaches_the_witness_check(self, capsys):
        members = ("--q1", "-1,1", "--c1", "1", "--q2", "-1,4",
                   "--c2", "1/4")
        code, out, _ = run_cli(capsys, "--format", "json", "equiv",
                               "--n", "2", *members)
        assert code == 0
        assert json.loads(out)["certificate"]["pass"] is True
        code, _, err = run_cli(capsys, "equiv", "--n", "0", *members)
        assert code == 2
        assert "error:" in err

    def test_two_quadratic_fields_are_usage_error(self, capsys):
        # sqrt(8) = 2*sqrt(2), but the two q name different fields
        code, out, err = run_cli(capsys, "equiv", "--q1", "0+1*sqrt(2),1",
                                 "--c1", "1", "--q2", "0+1*sqrt(8),2",
                                 "--c2", "1")
        assert (code, out) == (2, "")
        assert "cannot mix" in err

    def test_coefficient_past_the_int_digit_limit(self, capsys):
        code, out, err = run_cli(capsys, "equiv", "--q1", "1," + "7" * 5000,
                                 "--c1", "0", "--q2", "1,1", "--c2", "0")
        assert (code, out) == (2, "")
        assert err == "error: number too long: 5000 characters\n"


_RATIONALS = st.fractions(min_value=-9, max_value=9, max_denominator=4)
_SURDS = st.tuples(_RATIONALS, _RATIONALS.filter(bool)).map(
    lambda ab: quadext(ab[0], ab[1], 2))


@st.composite
def _equiv_argv(draw):
    """equiv flags for two members whose q share a support of degree <= 4,
    with coefficients in Q or Q(sqrt(2)), at levels 0 and 1."""
    scalars = _RATIONALS.filter(bool)
    if draw(st.booleans()):
        scalars = st.one_of(scalars, _SURDS)
    degree = draw(st.integers(0, 4))
    support = draw(st.lists(st.booleans(), min_size=degree,
                            max_size=degree)) + [True]
    q1, q2 = ([str(draw(scalars)) if on else "0" for on in support]
              for _ in range(2))
    return ["equiv", "--kind", draw(st.sampled_from(["hypersurface",
                                                     "poly"])),
            "--n", str(draw(st.integers(1, 2))),
            "--q1", ",".join(q1), "--c1", draw(st.sampled_from("01")),
            "--q2", ",".join(q2), "--c2", draw(st.sampled_from("01"))]


@settings(deadline=None, max_examples=200)
@given(_equiv_argv())
def test_equiv_ends_in_an_answer_or_a_usage_error(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(["--sz-points", "3"] + argv) in (0, 2)


# scalar text in Q, in Q(sqrt(2)), or malformed
_SCALAR_TEXT = st.one_of(
    _RATIONALS.map(str), _SURDS.map(str),
    st.sampled_from(["1/0", "1.5", "sqrt(2)", "0+1*sqrt(-1)", ""]))
_CSV_TEXT = st.lists(_SCALAR_TEXT, max_size=3).map(",".join)


def _int_text(high):
    return st.sampled_from([str(i) for i in range(1, high + 1)]
                           + ["0", "-1", "x"])


# each subcommand's flags; None marks a flag that takes no value
_SUBCOMMAND_FLAGS = {
    "verify-theorem": {"--n": _int_text(3), "--k-max": _int_text(3),
                       "--c-samples": _CSV_TEXT},
    "classify": {"--n": _int_text(3), "--q": _CSV_TEXT,
                 "--c": _SCALAR_TEXT},
    "equiv": {"--kind": st.sampled_from(["poly", "hypersurface", "x"]),
              "--n": _int_text(3), "--q1": _CSV_TEXT, "--c1": _SCALAR_TEXT,
              "--q2": _CSV_TEXT, "--c2": _SCALAR_TEXT},
    "stable-equiv": {"--n": _int_text(3), "--q": _CSV_TEXT,
                     "--show-maps": None},
    "fiber-iso": {"--n": _int_text(3), "--q": _CSV_TEXT,
                  "--c": _SCALAR_TEXT, "--show-maps": None},
    "series-check": {"--n": _int_text(3), "--order": _int_text(6),
                     "--stability-low": _int_text(6)},
}


@st.composite
def _any_argv(draw):
    """argv for any subcommand, each flag present or not, valid or not."""
    command = draw(st.sampled_from(sorted(_SUBCOMMAND_FLAGS)))
    argv = ["--format", draw(st.sampled_from(["text", "json"])),
            "--seed", str(draw(st.integers(0, 3))),
            "--sz-points", str(draw(st.integers(-1, 3))), command]
    for flag, values in _SUBCOMMAND_FLAGS[command].items():
        if draw(st.integers(0, 7)) < 7:
            argv.append(flag)
            if values is not None:
                argv.append(draw(values))
    return argv


@settings(deadline=None, max_examples=300)
@given(_any_argv())
def test_any_argv_ends_in_an_exit_status(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 1, 2)


class TestCertificateCommands:
    def test_verify_theorem(self, capsys):
        code, out, _ = run_cli(capsys, "verify-theorem", "--n", "1",
                               "--k-max", "2")
        assert code == 0
        assert out.strip().endswith("result: PASS")

    def test_stable_equiv_with_maps(self, capsys):
        code, out, _ = run_cli(capsys, "stable-equiv", "--n", "1",
                               "--q", "-1,1", "--show-maps")
        assert code == 0
        assert "phi:" in out and "psi:" in out

    def test_fiber_iso(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "fiber-iso",
                               "--q", "0,1", "--c", "2", "--show-maps")
        assert code == 0
        data = json.loads(out)
        assert data["certificate"]["pass"] is True
        assert "y" in data["maps"]["phi"]

    def test_series_check_with_stability(self, capsys):
        code, out, _ = run_cli(capsys, "series-check", "--n", "1",
                               "--order", "8", "--stability-low", "6")
        assert code == 0
        assert "PASS stability/stable-y-image" in out

    def test_series_check_bad_order(self, capsys):
        code, _, err = run_cli(capsys, "series-check", "--n", "1",
                               "--order", "1")
        assert code == 2
        assert "order" in err

    def test_failing_certificate_exits_one(self, capsys, monkeypatch):
        import stably_distinct.cli as cli_module

        def broken(n, order):
            cert = Certificate("forced failure", {})
            cert.record_bool("doomed", False)
            return cert

        monkeypatch.setattr(cli_module, "verify_biholomorphism", broken)
        code, out, _ = run_cli(capsys, "series-check", "--n", "1",
                               "--order", "4")
        assert code == 1
        assert "FAIL doomed" in out
        assert out.strip().endswith("result: FAIL")


class TestDeterminismAndPlumbing:
    def test_json_bytes_identical_across_runs(self, capsys):
        argv = ("--format", "json", "verify-theorem", "--n", "1",
                "--k-max", "2")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_seed_changes_are_reported_consistently(self, capsys):
        # different seeds sample different points but the verdict and the
        # serialized certificate shape stay identical on passing runs
        _, a, _ = run_cli(capsys, "--format", "json", "--seed", "1",
                          "fiber-iso", "--q", "0,1", "--c", "0")
        _, b, _ = run_cli(capsys, "--format", "json", "--seed", "2",
                          "fiber-iso", "--q", "0,1", "--c", "0")
        assert json.loads(a) == json.loads(b)

    def test_sz_disabled(self, capsys):
        code, out, _ = run_cli(capsys, "--sz-points", "0", "fiber-iso",
                               "--q", "0,1", "--c", "0")
        assert code == 0
        assert "/sz" not in out

    def test_negative_sz_points_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "--sz-points", "-1", "fiber-iso",
                                 "--q", "1,1", "--c", "1")
        assert code == 2
        assert out == ""
        assert "--sz-points" in err

    def test_unknown_command_is_usage_error(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_missing_required_flag(self, capsys):
        assert run_cli(capsys, "stable-equiv", "--n", "1")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    @pytest.mark.skipif(shutil.which("stably-distinct") is None,
                        reason="console script not on PATH")
    def test_console_script(self):
        proc = subprocess.run(
            ["stably-distinct", "classify", "--q", "-1,1", "--c", "0"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert "V_{1,0}" in proc.stdout   # q(0) = -1 nonzero, c = 0

    def test_module_entry_point(self):
        # the sys.argv / sys.exit(main()) path, without an installed script
        src = Path(__file__).resolve().parents[1] / "src"
        path = os.pathsep.join(filter(None, [str(src),
                                             os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "stably_distinct.cli", "classify",
             "--q", "-1,1", "--c", "0"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0
        assert "V_{1,0}" in proc.stdout
