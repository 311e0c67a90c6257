"""Machine-checkable certificates.

Every verification entry point in this package returns a :class:`Certificate`:
a claim, the inputs it was checked against, and a list of named checks, each
either passed or failed with the exact (symbolic) residual recorded.  Nothing
is rounded: a check passes only when its residual is identically zero.

Checks built from a pair of polynomials also carry an optional numeric
re-verification hook: the same identity evaluated at random points modulo a
prime p, independent of the symbolic equality code path.  For composed ring
maps the hook pushes the random point through the generator images of each
map in turn, so the identity can be confirmed numerically even when the
fully expanded composite would be enormous.

p is the largest prime up to 2^61 - 1 that divides no coefficient's
denominator and, when the coefficients lie in Q(sqrt(d)), in which d is a
nonzero square, with a root r.  Sending sqrt(d) to r is a ring map from the
coefficients into F_p, so every residue is an int.

Every polynomial is evaluated at all points of a re-check in one pass,
through its half-monomials: each exponent vector splits into the
exponents of the first ceil(nvars/2) variables and those of the rest, and
each distinct half is valued once at every point.  The values of a high
half at the P points are packed into one int, so the terms that share a
low half cost one product each for all points together, and the packed
sum is read back point by point.

By Schwartz (1980) and Zippel (1979), a residual of total degree deg whose
image in F_p is nonzero vanishes at a uniform point of F_p with
probability at most deg/p, below 2^-47 per point for any degree under
10^4.  A residual whose coefficients all map to zero, because p divides
them or because sqrt(d) -> r sends them to zero, would pass every point;
the exact symbolic check, which decides every verdict, rules that case
out.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_left
from functools import lru_cache
from operator import add, lshift, mul
from typing import Sequence

from .errors import StablyDistinctError
from .exactfield import QuadExt
from .polyring import Polynomial, check_one_field, random_point

# the first twelve primes: Miller-Rabin at these bases is exact below
# psi_12 = 318,665,857,834,031,151,167,461 > 2^61 (Sorenson and Webster)
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _point_text(point) -> str:
    return ", ".join(f"{name}={value}" for name, value in point.items())


def _split_twos(n: int) -> tuple[int, int]:
    """(odd, twos) with n = odd * 2^twos, for n > 0."""
    twos = (n & -n).bit_length() - 1
    return n >> twos, twos


@lru_cache(maxsize=64)
def _is_prime(n: int) -> bool:
    """Whether n is prime, by Miller-Rabin at every base in ``_BASES``;
    exact for every n below psi_12.  The last answers are kept for the
    process: every re-check call asks about the same few candidates."""
    if n < 2:
        return False
    for a in _BASES:
        if n % a == 0:
            return n == a
    odd, twos = _split_twos(n - 1)
    for a in _BASES:
        x = pow(a, odd, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _sqrt_mod(d: int, p: int) -> int | None:
    """A square root of d mod the odd prime p, or None when d is not a
    nonzero square mod p (Tonelli-Shanks, Shanks 1973)."""
    if pow(d, (p - 1) // 2, p) != 1:
        return None
    odd, twos = _split_twos(p - 1)
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    # r^2 = t*d throughout; t has order 2^i < 2^twos, c order 2^twos
    c, t, r = pow(z, odd, p), pow(d, odd, p), pow(d, (odd + 1) // 2, p)
    while t != 1:
        i, s = 0, t
        while s != 1:
            s, i = s * s % p, i + 1
        b = pow(c, 1 << (twos - i - 1), p)
        twos, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _modulus(coeffs: list) -> tuple[int, int]:
    """The largest prime p <= 2^61 - 1 that divides no denominator of
    ``coeffs`` and in which the d of their field Q(sqrt(d)), if any, is a
    nonzero square; and a root r of d mod p (0 when all are rational).

    The root is verified before it is used, so a fault in finding it
    refuses that prime instead of mis-mapping sqrt(d).
    """
    d = check_one_field(coeffs)
    denominators = {c.denominator for c in coeffs if type(c) is not QuadExt}
    denominators.update(x.denominator for c in coeffs if type(c) is QuadExt
                        for x in (c.a, c.b, c.d))
    # a positive denominator below p cannot be divisible by p
    denominators = sorted(denominators)
    p = 2 ** 61 - 1
    while True:
        large = denominators[bisect_left(denominators, p):]
        if _is_prime(p) and all(den % p for den in large):
            if d is None:
                return p, 0
            square = _residue(d, p, 0, {})
            root = _sqrt_mod(square, p)
            if root is not None and root * root % p == square:
                return p, root
        p -= 2


def _residue(value, p: int, root: int, inverses: dict) -> int:
    """value mod p, with sqrt(d) sent to ``root``; p divides no
    denominator."""
    if isinstance(value, QuadExt):
        return (_residue(value.a, p, root, inverses)
                + _residue(value.b, p, root, inverses) * root) % p
    den = value.denominator
    inv = inverses.get(den)
    if inv is None:
        inv = inverses[den] = pow(den, -1, p)
    return value.numerator * inv % p


class _Residues:
    """A polynomial's coefficients reduced mod p, its degree in each
    variable, and its terms grouped by their low half.

    Each exponent vector splits into a low half (the first ``half`` =
    ceil(nvars/2) variables) and a high half (the rest); ``low`` and
    ``high`` list the distinct halves.  ``groups`` holds, for each low
    half, a triple: its index in ``low``, the coefficients of its terms
    and the indices of their high halves in ``high``; ``largest`` is the
    size of the largest group.
    """

    __slots__ = ("coeffs", "degrees", "half", "low", "high", "groups",
                 "largest")

    def __init__(self, coeffs: list, exps: list):
        self.coeffs = coeffs
        self.degrees = [max(column) for column in zip(*exps)]
        self.half = half = (len(self.degrees) + 1) // 2
        self.low, low_at = _distinct(e[:half] for e in exps)
        self.high, high_at = _distinct(e[half:] for e in exps)
        members: list = [[] for _ in self.low]
        for term, low in enumerate(low_at):
            members[low].append(term)
        self.largest = max(map(len, members), default=0)
        self.groups = [(low, [coeffs[t] for t in terms],
                        [high_at[t] for t in terms])
                       for low, terms in enumerate(members)]


def _distinct(keys) -> tuple[list, list]:
    """The distinct keys in order of first appearance, and the position
    of each given key in that list."""
    index: dict = {}
    at = [index.setdefault(key, len(index)) for key in keys]
    return list(index), at


def _residue_table(poly: Polynomial, p: int, root: int,
                   inverses: dict) -> _Residues:
    return _Residues([_residue(c, p, root, inverses)
                      for c in poly.terms.values()], list(poly.terms))


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
    variable j's residues at the points, ints in [0, p).

    Each variable's powers are taken once across all points, and each
    distinct half-monomial is valued once at every point.  A one-term
    table is its coefficient times its monomial.  Otherwise each high
    half's values at the P points are packed into one int, slot i at bit
    K*i, so a group of terms sharing a low half costs one product per term
    for all points at once; a slot is then read back by shift and mask and
    multiplied by that point's low value.  Every factor is below p, so a
    slot sums at most g products below (p-1)^2, for g the largest group;
    with K = 2*bitlen(p) + bitlen(g) no slot carries into the next.
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
    width = 2 * p.bit_length() + table.largest.bit_length()
    shifts = range(0, width * count, width)
    mask = (1 << width) - 1
    packed = [sum(map(lshift, h, shifts)) for h in highs]
    out = [0] * count
    for low, coeffs, at in table.groups:
        total = sum(map(mul, coeffs, map(packed.__getitem__, at)))
        out = list(map(add, out, map(
            mul, [total >> s & mask for s in shifts], lows[low])))
    return [v % p for v in out]


class _Recheck:
    """What one call of the numeric re-check shares between its checks.

    The residue table of every polynomial the hooks evaluate is built
    once per distinct value, modulo the prime ``p`` that :func:`_modulus`
    picks for all their coefficients, with sqrt(d) sent to ``root``.  One
    set of points is drawn per ring signature, and all of them are pushed
    through each prefix of a map chain at once, keyed by the map objects,
    so checks that share a chain share that work: each image is evaluated
    once per chain prefix, at every point, and each distinct source or
    expected side once per chain.  All of it goes when the object does,
    at the end of the call.

    A map's deferred image (``morphisms.DeferredImage``) is evaluated from
    its data: the numerator at the point with the target's value in the
    symbol's slot, times the inverse of the divisor's value.  Where the
    divisor vanishes mod p, it is evaluated from the expanded image
    instead, so every image is valued at the same points.  The divisor
    is a monomial, so the expanded image's coefficients are those of the
    numerator at the target, sums of products of their coefficients, and
    p divides none of their denominators.
    """

    def __init__(self, hooks: Sequence["_CompositionSz"],
                 rng: random.Random, points: int):
        self.rng = rng
        self.points = points
        # (signature, exponent set) -> [[polynomial, table or None], ...]
        self.tables: dict = {}
        # keyed by id; each value keeps its map alive, so ids stay unique
        self.maps: dict = {}
        for hook in hooks:
            for m in hook.maps:
                if id(m) not in self.maps:
                    self.maps[id(m)] = m, [m.deferred.get(name)
                                           or self._entry(m.image(name))[0]
                                           for name in m.sig.names]
                    for later in m.deferred.values():
                        for part in (later.numerator, later.target,
                                     later.divisor):
                            self._entry(part)
            self._entry(hook.source)
            self._entry(hook.expected)
        self.p, self.root = _modulus(
            [c for bucket in self.tables.values() for poly, _ in bucket
             for c in poly.terms.values()])
        self.inverses: dict = {}
        self.samples: dict = {}
        self.moved: dict = {}
        self.values: dict = {}

    def _entry(self, poly: Polynomial) -> list:
        """The [polynomial, table] entry of ``poly``'s value."""
        bucket = self.tables.setdefault((poly.sig, frozenset(poly.terms)),
                                        [])
        for entry in bucket:
            if entry[0].terms == poly.terms:
                return entry
        bucket.append([poly, None])
        return bucket[-1]

    def _table(self, poly: Polynomial) -> _Residues:
        entry = self._entry(poly)
        if entry[1] is None:
            entry[1] = _residue_table(entry[0], self.p, self.root,
                                      self.inverses)
        return entry[1]

    def _image_at(self, m, name: str, image, columns: list) -> list:
        """m's image of ``name`` at every point of ``columns``; ``image``
        is a polynomial or a deferred image."""
        p = self.p
        if isinstance(image, Polynomial):
            return _evaluate_mod(self._table(image), columns, p)
        divisor = _evaluate_mod(self._table(image.divisor), columns, p)
        at_target = list(columns)
        at_target[m.sig.index(image.symbol)] = _evaluate_mod(
            self._table(image.target), columns, p)
        values = _evaluate_mod(self._table(image.numerator), at_target, p)
        inverses = self.inverses
        for d in divisor:
            if d and d not in inverses:
                inverses[d] = pow(d, -1, p)
        out = [v * inverses[d] % p if d else None
               for v, d in zip(values, divisor)]
        vanish = [i for i, d in enumerate(divisor) if not d]
        if vanish:
            expanded = _evaluate_mod(self._table(m.image(name)),
                                     [[column[i] for i in vanish]
                                      for column in columns], p)
            for i, value in zip(vanish, expanded):
                out[i] = value
        return out

    def _moved(self, sig, maps: tuple) -> list:
        """Each variable's residues at every sample of ``sig``, pushed
        through ``maps``."""
        key = (sig, tuple(map(id, maps)))
        got = self.moved.get(key)
        if got is None:
            if maps:
                before = self._moved(sig, maps[:-1])
                m, images = self.maps[id(maps[-1])]
                got = [self._image_at(m, name, image, before)
                       for name, image in zip(m.sig.names, images)]
            else:
                got = [[point[name] for point in self.samples[sig]]
                       for name in sig.names]
            self.moved[key] = got
        return got

    def _value(self, poly: Polynomial, maps: tuple) -> list:
        """``poly`` at every sample pushed through ``maps``, evaluated
        once per distinct value and chain."""
        table = self._table(poly)
        key = (id(table), tuple(map(id, maps)))
        got = self.values.get(key)
        if got is None:
            got = self.values[key] = _evaluate_mod(
                table, self._moved(poly.sig, maps), self.p)
        return got

    def run(self, hook: "_CompositionSz") -> tuple[bool, str]:
        """Evaluate source and expected at every point, and report the
        first point, in sample order, where they differ."""
        sig = hook.source.sig
        if sig not in self.samples:
            self.samples[sig] = [random_point(sig, self.rng, self.p)
                                 for _ in range(self.points)]
        got = self._value(hook.source, hook.maps)
        want = self._value(hook.expected, ())
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
    the same identity at ``points`` points drawn uniformly from F_p, for p
    the largest prime up to 2^61 - 1 that divides no coefficient's
    denominator and in which the d of the coefficients' field Q(sqrt(d)),
    if any, is a nonzero square; sqrt(d) maps to a root of d mod p.
    Returns the number of checks added.  A residual of total degree deg
    whose image in F_p is nonzero vanishes at one point with probability
    at most deg/p, so agreement at every point gives strong evidence,
    independent of the symbolic comparison, that the identity holds.  A
    residual whose coefficients all map to zero in F_p would pass; the
    exact symbolic check rules that out.  The points, the reduced
    coefficients and the transported points are shared by all checks of
    the call and dropped when it returns.  With ``points`` = 0 nothing is
    added; a negative count or one that is not an int raises
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
