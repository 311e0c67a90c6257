from __future__ import annotations

import json
import random

from stably_distinct.certificate import (Certificate, _CompositionSz,
                                         _Recheck, run_schwartz_zippel)
from stably_distinct.morphisms import RingEndomorphism
from stably_distinct.polyring import (Polynomial, RingSignature,
                                      parse_polynomial)


def sig1():
    return RingSignature(1)


class TestRecording:
    def test_passing_check(self):
        s = sig1()
        cert = Certificate("trivial identity", {"ring": "n=1"})
        cert.record("square-expansion",
                    parse_polynomial(s, "(1)*z^2 + 2*z + 1"),
                    parse_polynomial(s, "z + 1") ** 2)
        assert cert.passed
        assert cert.checks[0].residual == "0"

    def test_failing_check_keeps_residual(self):
        s = sig1()
        cert = Certificate("wrong identity")
        cert.record("off-by-one", parse_polynomial(s, "z^2"),
                    parse_polynomial(s, "z^2 + 1"))
        assert not cert.passed
        assert cert.checks[0].residual == "-1"
        assert cert.failed_checks()[0].name == "off-by-one"

    def test_record_bool(self):
        cert = Certificate("claim")
        cert.record_bool("flag", True, details="checked directly")
        cert.record_bool("other", False)
        assert not cert.passed
        assert cert.checks[0].details == "checked directly"

    def test_absorb_prefixes_names(self):
        s = sig1()
        inner = Certificate("inner claim")
        inner.record("identity", Polynomial.zero(s))
        inner.note("a remark")
        outer = Certificate("outer claim")
        outer.absorb(inner, "part1")
        assert outer.checks[0].name == "part1/identity"
        assert outer.notes == ["part1: a remark"]


class TestSerialization:
    def test_json_shape(self):
        s = sig1()
        cert = Certificate("claim text", {"n": "1"})
        cert.record("ok", Polynomial.zero(s))
        cert.record("bad", Polynomial.constant(s, 2))
        data = json.loads(cert.to_json())
        assert data["claim"] == "claim text"
        assert data["inputs"] == {"n": "1"}
        assert data["pass"] is False
        assert data["checks"][0] == {"name": "ok", "pass": True}
        assert data["checks"][1]["residual"] == "2"

    def test_json_deterministic(self):
        s = sig1()

        def build():
            cert = Certificate("claim", {"b": "2", "a": "1"})
            cert.record("c1", Polynomial.zero(s))
            return cert.to_json()

        assert build() == build()

    def test_text_format(self):
        s = sig1()
        cert = Certificate("claim")
        cert.record("good", Polynomial.zero(s))
        cert.record("bad", Polynomial.variable(s, "z"))
        text = cert.to_text()
        assert "PASS good" in text
        assert "FAIL bad (residual: z)" in text
        assert text.endswith("result: FAIL")


class TestSchwartzZippel:
    def test_adds_sz_siblings(self):
        s = sig1()
        cert = Certificate("claim")
        cert.record("binomial", parse_polynomial(s, "z^2 + 2*z + 1"),
                    parse_polynomial(s, "z + 1") ** 2)
        cert.record_bool("flag", True)
        added = run_schwartz_zippel(cert, random.Random(0), points=25)
        assert added == 1
        names = [check.name for check in cert.checks]
        assert "binomial/sz" in names and "flag/sz" not in names
        assert cert.passed

    def test_sz_catches_function_inequality(self):
        # two different polynomials recorded as "equal" via record_bool
        # bypass symbolic compare; the pair hook still distinguishes them
        s = sig1()
        cert = Certificate("claim")
        check = cert.record("distinct", parse_polynomial(s, "z^2"),
                            parse_polynomial(s, "z^3"))
        assert not check.passed
        run_schwartz_zippel(cert, random.Random(1), points=25)
        sz = [c for c in cert.checks if c.name == "distinct/sz"][0]
        assert not sz.passed
        assert "mismatch at" in sz.details

    def test_idempotent_on_sz_checks(self):
        s = sig1()
        cert = Certificate("claim")
        cert.record("c", Polynomial.zero(s))
        run_schwartz_zippel(cert, random.Random(2), points=5)
        added = run_schwartz_zippel(cert, random.Random(2), points=5)
        # the original check gains a second sibling, the sibling itself none
        assert added == 1

    def test_composition_hook_never_expands(self):
        # f: z -> z + y^2, g: z -> z - y^2 compose to the identity on z;
        # the numeric hook checks this from generator images alone
        s = sig1()
        f = RingEndomorphism(s, {"z": parse_polynomial(s, "z + y^2")})
        g = RingEndomorphism(s, {"z": parse_polynomial(s, "z - y^2")})
        hook = _CompositionSz([f, g], Polynomial.variable(s, "z"),
                              Polynomial.variable(s, "z"))
        ok, details = _Recheck([hook], random.Random(3), 30).run(hook)
        assert ok and "30 random points" in details

    def test_composition_hook_detects_mismatch(self):
        s = sig1()
        f = RingEndomorphism(s, {"z": parse_polynomial(s, "z + 1")})
        hook = _CompositionSz([f, f], Polynomial.variable(s, "z"),
                              Polynomial.variable(s, "z"))
        ok, details = _Recheck([hook], random.Random(4), 10).run(hook)
        assert not ok and "mismatch" in details
