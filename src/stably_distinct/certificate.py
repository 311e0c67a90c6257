"""Machine-checkable certificates.

Every verification entry point in this package returns a :class:`Certificate`:
a claim, the inputs it was checked against, and a list of named checks, each
either passed or failed with the exact (symbolic) residual recorded.  Nothing
is rounded: a check passes only when its residual is identically zero.

Checks built from a pair of polynomials also carry an optional numeric
re-verification hook: the same identity evaluated at random rational points
through plain scalar arithmetic, independent of the symbolic equality code
path.  For composed ring maps the hook pushes the random point through the
generator images of each map in turn, so the identity can be confirmed
numerically even when the fully expanded composite would be enormous.
"""

from __future__ import annotations

import json
import random
from typing import Callable, Sequence

from .errors import VerificationFailed
from .polyring import Polynomial, random_point

SzFn = Callable[[random.Random, int, int], tuple[bool, str]]


def _point_text(point) -> str:
    return ", ".join(f"{name}={value}" for name, value in point.items())


def composition_sz(maps: Sequence, source: Polynomial,
                   expected: Polynomial) -> SzFn:
    """Numeric check of a composite ring map applied to one polynomial.

    ``maps`` is given in ring-composition order: ``[f, g]`` means the map
    sending p to f(g(p)).  A random point is pushed through the generator
    images of f, then of g; ``source`` evaluated at the transported point
    must equal ``expected`` at the original point; with no maps the two
    are compared at the same point.  Only the stored generator images are
    ever evaluated, never a symbolic composite, so this stays cheap even
    when the expanded composite would be enormous.
    """
    maps = list(maps)

    def run(rng: random.Random, points: int, bound: int) -> tuple[bool, str]:
        sig = source.sig
        for _ in range(points):
            pt = random_point(sig, rng, bound)
            cur = dict(pt)
            for m in maps:
                cur = {name: m.image(name).evaluate(cur)
                       for name in sig.names}
            if source.evaluate(cur) != expected.evaluate(pt):
                return False, f"mismatch at {_point_text(pt)}"
        return True, f"agreed at {points} random points"

    return run


class CheckResult:
    """One named exact check inside a certificate."""

    __slots__ = ("name", "passed", "residual", "details", "sz_fn")

    def __init__(self, name: str, passed: bool, residual: str = "0",
                 details: str = "", sz_fn: SzFn | None = None):
        self.name = name
        self.passed = passed
        self.residual = residual
        self.details = details
        self.sz_fn = sz_fn

    def to_dict(self) -> dict:
        out: dict = {"name": self.name, "pass": self.passed}
        if not self.passed:
            out["residual"] = self.residual
        if self.details:
            out["details"] = self.details
        return out

    def __repr__(self) -> str:
        state = "PASS" if self.passed else f"FAIL residual={self.residual}"
        return f"CheckResult({self.name}: {state})"


class Certificate:
    """A claim plus the exact checks that substantiate it."""

    def __init__(self, claim: str, inputs: dict[str, str] | None = None):
        self.claim = claim
        self.inputs = dict(inputs or {})
        self.checks: list[CheckResult] = []
        self.notes: list[str] = []

    # -- recording ---------------------------------------------------------

    def record(self, name: str, lhs: Polynomial,
               rhs: Polynomial | None = None) -> CheckResult:
        """Check that lhs equals rhs (or is zero) as a polynomial."""
        if rhs is None:
            rhs = Polynomial.zero(lhs.sig)
        return self.record_composition(name, [], lhs, lhs, rhs)

    def record_bool(self, name: str, ok: bool,
                    details: str = "") -> CheckResult:
        check = CheckResult(name, bool(ok),
                            residual="0" if ok else "nonzero",
                            details=details)
        self.checks.append(check)
        return check

    def record_composition(self, name: str, maps: Sequence,
                           source: Polynomial, computed: Polynomial,
                           expected: Polynomial) -> CheckResult:
        """Check a composite-map image, keeping the scalar-wise numeric hook.

        ``computed`` is the symbolically evaluated image of ``source``
        under the composite (built by whatever staged route was feasible);
        the check passes when it equals ``expected``.  The numeric hook
        re-verifies the same identity directly from the stored generator
        images of ``maps``.
        """
        residual = computed - expected
        check = CheckResult(name, residual.is_zero(), residual=str(residual),
                            sz_fn=composition_sz(maps, source, expected))
        self.checks.append(check)
        return check

    def note(self, text: str) -> None:
        self.notes.append(text)

    def absorb(self, other: "Certificate", prefix: str) -> None:
        """Fold another certificate's checks in under a name prefix."""
        for check in other.checks:
            self.checks.append(CheckResult(
                f"{prefix}/{check.name}", check.passed,
                residual=check.residual, details=check.details,
                sz_fn=check.sz_fn))
        for text in other.notes:
            self.notes.append(f"{prefix}: {text}")

    # -- outcomes ----------------------------------------------------------

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def failed_checks(self) -> list[CheckResult]:
        return [check for check in self.checks if not check.passed]

    def raise_if_failed(self) -> "Certificate":
        for check in self.checks:
            if not check.passed:
                raise VerificationFailed(check.name, check.residual)
        return self

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        out: dict = {
            "claim": self.claim,
            "inputs": self.inputs,
            "checks": [check.to_dict() for check in self.checks],
            "pass": self.passed,
        }
        if self.notes:
            out["notes"] = list(self.notes)
        return out

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_text(self) -> str:
        lines = [f"claim: {self.claim}"]
        for key in sorted(self.inputs):
            lines.append(f"  {key} = {self.inputs[key]}")
        for check in self.checks:
            if check.passed:
                lines.append(f"PASS {check.name}")
            else:
                lines.append(f"FAIL {check.name} (residual: {check.residual})")
            if check.details:
                lines.append(f"     {check.details}")
        for text in self.notes:
            lines.append(f"note: {text}")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        return f"Certificate({self.claim!r}: {state}, {len(self.checks)} checks)"


def run_schwartz_zippel(cert: Certificate, rng: random.Random,
                        points: int = 100, bound: int = 10 ** 4) -> int:
    """Append a numeric re-check for every check that carries one.

    Each eligible check gains a sibling named ``<name>/sz`` that evaluates
    the same identity at ``points`` random integer-valued rational points
    with absolute value bounded by ``bound``.  Returns the number of
    checks added.  A nonzero polynomial of total degree d vanishes at a fraction
    of points that shrinks with d over a large sample space, so agreement
    at many independent points gives strong, independent evidence that the
    symbolic comparison was not spuriously reported.
    """
    added = 0
    for check in list(cert.checks):
        if check.sz_fn is None or check.name.endswith("/sz"):
            continue
        ok, details = check.sz_fn(rng, points, bound)
        cert.checks.append(CheckResult(
            f"{check.name}/sz", ok,
            residual="0" if ok else "nonzero at sampled point",
            details=details))
        added += 1
    return added
