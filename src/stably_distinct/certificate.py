"""Machine-checkable certificates.

Every verification entry point in this package returns a :class:`Certificate`:
a claim, the inputs it was checked against, and a list of named checks, each
either passed or failed with the exact (symbolic) residual recorded.  Nothing
is rounded: a check passes only when its residual is identically zero.

Checks built from a pair of polynomials also carry an optional numeric
re-verification hook: the same identity evaluated at random points modulo a
prime p (2^61 - 1 unless p divides a coefficient's denominator), independent
of the symbolic equality code path.  For composed ring maps the hook pushes
the random point through the generator images of each map in turn, so the
identity can be confirmed numerically even when the fully expanded composite
would be enormous.

Every polynomial is evaluated through its half-monomials: each exponent
vector splits into the exponents of the first ceil(nvars/2) variables and
those of the rest.  At each point every distinct half is valued once, and
each term then costs two products, its coefficient times its two halves,
summed in one pass of ``map``.  Coefficients in Q(sqrt(d)) map to
F_p[s]/(s^2 - d) as :class:`_Quad` residues, which take the same products,
sums and reductions mod p as ints, so both fields share this one path.

By Schwartz (1980) and Zippel (1979), a residual of total degree deg whose
image mod p is nonzero vanishes at a uniform point of F_p with probability
at most deg/p, below 2^-47 per point for any degree under 10^4.  A residual
all of whose coefficients are divisible by p maps to zero and would pass
every point; the exact symbolic check, which decides every verdict, rules
that case out.
"""

from __future__ import annotations

import json
import random
from math import prod
from operator import mul
from typing import Sequence

from .errors import StablyDistinctError
from .exactfield import QuadExt
from .polyring import Polynomial, check_one_field, random_point

# 2^61 - 1 first; each later one is the largest prime below its power of two,
# taken only when every earlier one divides some coefficient's denominator
MODULI = (2 ** 61 - 1, 2 ** 62 - 57, 2 ** 63 - 25, 2 ** 64 - 59)

_getitem = list.__getitem__


class _BadModulus(Exception):
    """The modulus divides a denominator, so the residue map is undefined."""


def _point_text(point) -> str:
    return ", ".join(f"{name}={value}" for name, value in point.items())


class _Quad:
    """a + b*s in F_p[s]/(s^2 - d), with d reduced mod p.

    Sums and products with ints or other residues of the same d leave a
    and b unreduced until ``% p``; an int n equals it when b = 0 and a = n.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a: int, b: int, d: int):
        self.a = a
        self.b = b
        self.d = d

    def __add__(self, other):
        if type(other) is _Quad:
            return _Quad(self.a + other.a, self.b + other.b, self.d)
        return _Quad(self.a + other, self.b, self.d)

    __radd__ = __add__

    def __mul__(self, other):
        if type(other) is _Quad:
            return _Quad(self.a * other.a + self.d * self.b * other.b,
                         self.a * other.b + self.b * other.a, self.d)
        return _Quad(self.a * other, self.b * other, self.d)

    __rmul__ = __mul__

    def __mod__(self, p: int):
        return _Quad(self.a % p, self.b % p, self.d)

    def __eq__(self, other):
        if type(other) is _Quad:
            return self.a == other.a and self.b == other.b
        return self.b == 0 and self.a == other


def _residue(value, p: int, inverses: dict):
    """value mod p: an int, or a :class:`_Quad` for a value in Q(sqrt(d))."""
    if isinstance(value, QuadExt):
        return _Quad(_residue(value.a, p, inverses),
                     _residue(value.b, p, inverses),
                     _residue(value.d, p, inverses))
    den = value.denominator
    inv = inverses.get(den)
    if inv is None:
        if den % p == 0:
            raise _BadModulus
        inv = inverses[den] = pow(den, -1, p)
    return value.numerator * inv % p


class _Residues:
    """A polynomial's coefficients reduced mod p and its degree in each
    variable, with each exponent vector split into a low half (the first
    ``half`` = ceil(nvars/2) variables) and a high half (the rest): ``low``
    and ``high`` list the distinct halves, and ``low_at[i]`` and
    ``high_at[i]`` point the coefficient ``coeffs[i]`` of term i to its two
    halves.
    """

    __slots__ = ("coeffs", "degrees", "half", "low", "high", "low_at",
                 "high_at")

    def __init__(self, coeffs: list, exps: list):
        self.coeffs = coeffs
        self.degrees = [max(column) for column in zip(*exps)]
        self.half = half = (len(self.degrees) + 1) // 2
        self.low, self.low_at = _distinct(e[:half] for e in exps)
        self.high, self.high_at = _distinct(e[half:] for e in exps)


def _distinct(keys) -> tuple[list, list]:
    """The distinct keys in order of first appearance, and the position
    of each given key in that list."""
    index: dict = {}
    at = [index.setdefault(key, len(index)) for key in keys]
    return list(index), at


def _residue_table(poly: Polynomial, p: int, inverses: dict) -> _Residues:
    return _Residues([_residue(c, p, inverses) for c in poly.terms.values()],
                     list(poly.terms))


def _powers(values: list, degrees: list, p: int) -> list:
    """For each variable, the powers 0..degree of its value."""
    out = []
    for v, top in zip(values, degrees):
        pw = [1, v]
        for _ in range(top - 1):
            pw.append(pw[-1] * v % p)
        out.append(pw)
    return out


def _evaluate_mod(table: _Residues, values: list, p: int):
    """The table's polynomial at ``values``, ints in F_p or :class:`_Quad`
    residues: each distinct half-monomial once, then two products per
    term."""
    powers = _powers(values, table.degrees, p)
    first, rest = powers[:table.half], powers[table.half:]
    low = [prod(map(_getitem, first, e)) % p for e in table.low]
    high = [prod(map(_getitem, rest, e)) % p for e in table.high]
    return sum(map(mul, map(mul, table.coeffs,
                            map(low.__getitem__, table.low_at)),
                   map(high.__getitem__, table.high_at))) % p


class _Recheck:
    """What one call of the numeric re-check shares between its checks.

    The residue table of every polynomial the hooks evaluate is built once,
    modulo the first prime in ``MODULI`` that divides no denominator; all
    of them lie in one Q(sqrt(d)) at most, so every residue shares one d.
    One set of points is drawn per ring signature, and each point is
    pushed through each prefix of a map chain once, keyed by the map
    objects and the point's index, so checks that share a chain share
    that work.  All of it goes when the object does, at the end of the call.
    """

    def __init__(self, hooks: Sequence["_CompositionSz"],
                 rng: random.Random, points: int):
        self.rng = rng
        self.points = points
        for p in MODULI:
            try:
                self._reduce(hooks, p)
            except _BadModulus:
                continue
            break
        else:
            raise StablyDistinctError(
                "every re-check modulus divides a coefficient denominator")
        self.samples: dict = {}
        self.moved: dict = {}

    def _reduce(self, hooks, p: int) -> None:
        inverses: dict = {}
        # keyed by id; each value keeps its object alive, so ids stay unique
        tables: dict = {}
        images: dict = {}

        def table(poly):
            if id(poly) not in tables:
                tables[id(poly)] = (poly, _residue_table(poly, p, inverses))
            return tables[id(poly)][1]

        for hook in hooks:
            for m in hook.maps:
                if id(m) not in images:
                    images[id(m)] = (m, [table(m.image(name))
                                         for name in m.sig.names])
            table(hook.source)
            table(hook.expected)
        check_one_field(c for poly, _ in tables.values()
                        for c in poly.terms.values())
        self.p, self.tables, self.images = p, tables, images

    def _moved(self, sig, maps: tuple, index: int) -> list:
        """The values at sample ``index`` pushed through ``maps``."""
        key = (sig, tuple(map(id, maps)), index)
        got = self.moved.get(key)
        if got is None:
            if maps:
                before = self._moved(sig, maps[:-1], index)
                got = [_evaluate_mod(t, before, self.p)
                       for t in self.images[id(maps[-1])][1]]
            else:
                got = list(self.samples[sig][index].values())
            self.moved[key] = got
        return got

    def run(self, hook: "_CompositionSz") -> tuple[bool, str]:
        source = self.tables[id(hook.source)][1]
        expected = self.tables[id(hook.expected)][1]
        sig = hook.source.sig
        if sig not in self.samples:
            self.samples[sig] = [random_point(sig, self.rng, self.p)
                                 for _ in range(self.points)]
        for index, point in enumerate(self.samples[sig]):
            if _evaluate_mod(source, self._moved(sig, hook.maps, index),
                             self.p) != \
                    _evaluate_mod(expected, self._moved(sig, (), index),
                                  self.p):
                return False, f"mismatch at {_point_text(point)}"
        return True, f"agreed at {self.points} random points"


class _CompositionSz:
    """Numeric check of a composite ring map applied to one polynomial.

    ``maps`` is given in ring-composition order: ``[f, g]`` means the map
    sending p to f(g(p)).  A random point is pushed through the generator
    images of f, then of g; ``source`` evaluated at the transported point
    must equal ``expected`` at the original point; with no maps the two
    are compared at the same point.  Only the stored generator images are
    ever evaluated, never a symbolic composite, so this stays fast even
    when the expanded composite would be enormous.  The check runs inside
    :func:`run_schwartz_zippel`, which shares points and transport between
    the hooks of one certificate.
    """

    __slots__ = ("maps", "source", "expected")

    def __init__(self, maps: Sequence, source: Polynomial,
                 expected: Polynomial):
        self.maps = tuple(maps)
        self.source = source
        self.expected = expected


class CheckResult:
    """One named exact check inside a certificate."""

    __slots__ = ("name", "passed", "residual", "details", "sz_fn")

    def __init__(self, name: str, passed: bool, residual: str = "0",
                 details: str = "", sz_fn: _CompositionSz | None = None):
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
                            sz_fn=_CompositionSz(maps, source, expected))
        self.checks.append(check)
        return check

    def record_not_built(self, name: str, maps: Sequence,
                         source: Polynomial, expected: Polynomial,
                         reason: str) -> CheckResult:
        """Record a composite-map check as failed, because of ``reason``,
        without building its symbolic side.  The numeric hook is kept, so
        the re-check still evaluates the identity from the stored images.
        """
        check = CheckResult(name, False, residual="not computed",
                            details=f"not built: {reason}",
                            sz_fn=_CompositionSz(maps, source, expected))
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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

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
                        points: int = 100) -> int:
    """Append a numeric re-check for every check that carries one.

    Each eligible check gains a sibling named ``<name>/sz`` that evaluates
    the same identity at ``points`` points drawn uniformly from F_p, with
    p = 2^61 - 1 unless p divides a coefficient's denominator (then the
    next prime in ``MODULI``).  Returns the number of checks added.  A
    residual of total degree deg that is nonzero mod p vanishes at one
    point with probability at most deg/p, so agreement at every point
    gives strong evidence, independent of the symbolic comparison, that
    the identity holds.  A residual whose coefficients are all divisible
    by p would pass; the exact symbolic check rules that out.  The points,
    the reduced coefficients and the transported points are shared by all
    checks of the call and dropped when it returns.
    """
    targets = [check for check in cert.checks if check.sz_fn is not None]
    recheck = _Recheck([check.sz_fn for check in targets], rng, points)
    for check in targets:
        ok, details = recheck.run(check.sz_fn)
        cert.checks.append(CheckResult(
            f"{check.name}/sz", ok,
            residual="0" if ok else "nonzero at sampled point",
            details=details))
    return len(targets)
