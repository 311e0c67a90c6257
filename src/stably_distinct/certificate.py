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

Every polynomial is evaluated at all points of a re-check in one pass,
through its half-monomials: each exponent vector splits into the
exponents of the first ceil(nvars/2) variables and those of the rest, and
each distinct half is valued once at every point.  The values of a high
half at the P points are packed into one int, so the terms that share a
low half cost one product each for all points together, and the packed
sum is read back point by point.  Coefficients in Q(sqrt(d)) map to
F_p[s]/(s^2 - d) as :class:`_Quad` residues, whose a and b parts are
packed apart, so a term costs four products on the same path.

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
from itertools import repeat
from operator import add, lshift, mul
from typing import Sequence

from .errors import StablyDistinctError
from .exactfield import QuadExt
from .polyring import Polynomial, check_one_field, random_point

# 2^61 - 1 first; each later one is the largest prime below its power of two,
# taken only when every earlier one divides some coefficient's denominator
MODULI = (2 ** 61 - 1, 2 ** 62 - 57, 2 ** 63 - 25, 2 ** 64 - 59)


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
    """A polynomial's coefficients reduced mod p, its degree in each
    variable, and its terms grouped by their low half.

    Each exponent vector splits into a low half (the first ``half`` =
    ceil(nvars/2) variables) and a high half (the rest); ``low`` and
    ``high`` list the distinct halves.  ``groups`` holds, for each low
    half, its index in ``low``, the coefficients of its terms and the
    indices of their high halves in ``high``; ``largest`` is the size of
    the largest group.  When a coefficient lies in Q(sqrt(d)), ``d`` is d
    mod p and a group's coefficients are three lists, the a parts, the b
    parts and b*d mod p; otherwise ``d`` is None and they are one list.
    """

    __slots__ = ("coeffs", "degrees", "half", "low", "high", "groups",
                 "largest", "d")

    def __init__(self, coeffs: list, exps: list, p: int):
        self.coeffs = coeffs
        self.degrees = [max(column) for column in zip(*exps)]
        self.half = half = (len(self.degrees) + 1) // 2
        self.low, low_at = _distinct(e[:half] for e in exps)
        self.high, high_at = _distinct(e[half:] for e in exps)
        self.d = d = next((c.d for c in coeffs if type(c) is _Quad), None)
        members: list = [[] for _ in self.low]
        for term, low in enumerate(low_at):
            members[low].append(term)
        self.largest = max(map(len, members), default=0)
        self.groups = []
        for low, terms in enumerate(members):
            group = [coeffs[term] for term in terms]
            if d is not None:
                a, b = _parts(group)
                group = (a, b, [v * d % p for v in b])
            else:
                group = (group,)
            self.groups.append((low, group, [high_at[t] for t in terms]))


def _distinct(keys) -> tuple[list, list]:
    """The distinct keys in order of first appearance, and the position
    of each given key in that list."""
    index: dict = {}
    at = [index.setdefault(key, len(index)) for key in keys]
    return list(index), at


def _parts(values: list) -> tuple[list, list]:
    """The a and b parts of residues that are ints or :class:`_Quad`."""
    return ([v.a if type(v) is _Quad else v for v in values],
            [v.b if type(v) is _Quad else 0 for v in values])


def _residue_table(poly: Polynomial, p: int, inverses: dict) -> _Residues:
    return _Residues([_residue(c, p, inverses) for c in poly.terms.values()],
                     list(poly.terms), p)


def _power_rows(columns: list, degrees: list, p: int) -> list:
    """For each variable, row e holds its e-th power at every point, for
    e = 1..degree (row 0 is never read)."""
    out = []
    for column, top in zip(columns, degrees):
        rows = [None, column]
        for _ in range(top - 1):
            rows.append([a * b % p for a, b in zip(rows[-1], column)])
        out.append(rows)
    return out


def _monomial(rows: list, exps, p: int, count: int) -> list:
    """The monomial with exponents ``exps`` at every point."""
    factors = [row[e] for row, e in zip(rows, exps) if e]
    if not factors:
        return [1] * count
    out = factors[0]
    for factor in factors[1:]:
        out = [a * b % p for a, b in zip(out, factor)]
    return out


def _evaluate_mod(table: _Residues, columns: list, p: int) -> list:
    """The table's polynomial at every point: ``columns[j]`` holds
    variable j's residues at the points, ints in F_p or :class:`_Quad`.

    Each variable's powers are taken once across all points, and each
    distinct half-monomial is valued once at every point.  A one-term
    table is its coefficient times its monomial.  Otherwise each high
    half's values at the P points are packed into one int, slot i at bit
    K*i, so a group of terms sharing a low half costs one product per term
    for all points at once; a slot is then read back by shift and mask and
    multiplied by that point's low value.  Over Q(sqrt(d)) the a and b
    parts of the highs are packed apart and a term costs four products:
    a += c_a*h_a + (c_b*d mod p)*h_b and b += c_a*h_b + c_b*h_a.  Every
    factor is below p, so a slot sums at most m*g products below (p-1)^2,
    for g the largest group and m = 1 (2 over Q(sqrt(d))); with
    K = 2*bitlen(p) + bitlen(m*g) no slot carries into the next.
    """
    count = len(columns[0])
    rows = _power_rows(columns, table.degrees, p)
    if len(table.coeffs) == 1:
        c = table.coeffs[0]
        return [c * v % p for v in _monomial(
            rows, table.low[0] + table.high[0], p, count)]
    first, rest = rows[:table.half], rows[table.half:]
    lows = [_monomial(first, e, p, count) for e in table.low]
    highs = [_monomial(rest, e, p, count) for e in table.high]
    d = table.d
    if d is None:
        d = next((v.d for column in columns for v in column
                  if type(v) is _Quad), None)
    width = 2 * p.bit_length() \
        + (table.largest * (1 if d is None else 2)).bit_length()
    shifts = range(0, width * count, width)
    mask = (1 << width) - 1

    def slots(total: int) -> list:
        return [total >> s & mask for s in shifts]

    out = [0] * count
    if d is None:
        packed = [sum(map(lshift, h, shifts)) for h in highs]
        for low, (coeffs,), at in table.groups:
            total = sum(map(mul, coeffs, map(packed.__getitem__, at)))
            out = list(map(add, out, map(mul, slots(total), lows[low])))
    else:
        split = [_parts(h) for h in highs]
        packed_a = [sum(map(lshift, a, shifts)) for a, _ in split]
        packed_b = [sum(map(lshift, b, shifts)) for _, b in split]
        for low, coeffs, at in table.groups:
            high_a = list(map(packed_a.__getitem__, at))
            high_b = list(map(packed_b.__getitem__, at))
            a = sum(map(mul, coeffs[0], high_a))
            b = sum(map(mul, coeffs[0], high_b))
            if table.d is not None:
                a += sum(map(mul, coeffs[2], high_b))
                b += sum(map(mul, coeffs[1], high_a))
            out = list(map(add, out, map(mul, map(
                _Quad, slots(a), slots(b), repeat(d, count)), lows[low])))
    return [v % p for v in out]


class _Recheck:
    """What one call of the numeric re-check shares between its checks.

    The residue table of every polynomial the hooks evaluate is built once,
    modulo the first prime in ``MODULI`` that divides no denominator; all
    of them lie in one Q(sqrt(d)) at most, so every residue shares one d.
    One set of points is drawn per ring signature, and all of them are
    pushed through each prefix of a map chain at once, keyed by the map
    objects, so checks that share a chain share that work: each table is
    evaluated once per chain prefix, at every point.  All of it goes when
    the object does, at the end of the call.
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

    def _moved(self, sig, maps: tuple) -> list:
        """Each variable's residues at every sample of ``sig``, pushed
        through ``maps``."""
        key = (sig, tuple(map(id, maps)))
        got = self.moved.get(key)
        if got is None:
            if maps:
                before = self._moved(sig, maps[:-1])
                got = [_evaluate_mod(t, before, self.p)
                       for t in self.images[id(maps[-1])][1]]
            else:
                got = [[point[name] for point in self.samples[sig]]
                       for name in sig.names]
            self.moved[key] = got
        return got

    def run(self, hook: "_CompositionSz") -> tuple[bool, str]:
        """Evaluate source and expected at every point once each, and
        report the first point, in sample order, where they differ."""
        sig = hook.source.sig
        if sig not in self.samples:
            self.samples[sig] = [random_point(sig, self.rng, self.p)
                                 for _ in range(self.points)]
        got = _evaluate_mod(self.tables[id(hook.source)][1],
                            self._moved(sig, hook.maps), self.p)
        want = _evaluate_mod(self.tables[id(hook.expected)][1],
                             self._moved(sig, ()), self.p)
        for point, value, expected in zip(self.samples[sig], got, want):
            if value != expected:
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
    checks of the call and dropped when it returns.  With ``points`` = 0
    nothing is added; a negative count or one that is not an int raises
    :class:`StablyDistinctError`.
    """
    if isinstance(points, bool) or not isinstance(points, int) \
            or points < 0:
        raise StablyDistinctError(
            f"re-check point count must be an int of at least 0, "
            f"got {points!r}")
    if points == 0:
        return 0
    targets = [check for check in cert.checks if check.sz_fn is not None]
    recheck = _Recheck([check.sz_fn for check in targets], rng, points)
    for check in targets:
        ok, details = recheck.run(check.sz_fn)
        cert.checks.append(CheckResult(
            f"{check.name}/sz", ok,
            residual="0" if ok else "nonzero at sampled point",
            details=details))
    return len(targets)
