"""Correctness checks computed apart from the program under test.

Nothing here imports ``stably_distinct``.  The map checker reads the
canonical text form of polynomials with its own reader and evaluates
identities modulo the prime 2^61 - 1; the decider checker redoes the
hypersurface-equivalence relations in its own Q(sqrt(d)) arithmetic and
searches for rational scalings mu by its own exact root extraction.
Every checker returns a list of error strings, empty when all is well.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

P = 2 ** 61 - 1

# -- polynomials in canonical text form -----------------------------------

_TERM_SPLIT = re.compile(r" ([+-]) ")


def read_poly(text: str, names) -> dict:
    """{exponent tuple: Fraction} from text such as 'x1^2*y - 3/2*z + 1'.

    Only rational coefficients are read; the stable maps have no others.
    Raises ValueError on anything else, and on a monomial printed twice.
    """
    index = {name: i for i, name in enumerate(names)}
    text = text.strip()
    terms: dict = {}
    if text == "0":
        return terms
    first = 1
    if text.startswith("-"):
        first, text = -1, text[1:]
    pieces = _TERM_SPLIT.split(text)
    signs = [first] + [1 if op == "+" else -1 for op in pieces[1::2]]
    for sign, body in zip(signs, pieces[0::2]):
        coeff = Fraction(sign)
        exps = [0] * len(names)
        for factor in body.split("*"):
            if factor[:1].isdigit():
                coeff *= Fraction(factor)
            else:
                name, _, power = factor.partition("^")
                if name not in index:
                    raise ValueError(f"unknown factor {factor!r} in {body!r}")
                exps[index[name]] += int(power or 1)
        key = tuple(exps)
        if key in terms or not coeff:
            raise ValueError(f"monomial {body!r} repeated or zero")
        terms[key] = coeff
    return terms


def to_mod_p(terms: dict) -> list:
    """[(coefficient mod P, exponents)] for fast evaluation mod P."""
    return [(c.numerator * pow(c.denominator, -1, P) % P, exps)
            for exps, c in terms.items()]


def eval_mod_p(mterms: list, point) -> int:
    powers = [{0: 1, 1: v % P} for v in point]
    total = 0
    for coeff, exps in mterms:
        value = coeff
        for i, e in enumerate(exps):
            if e:
                cache = powers[i]
                pw = cache.get(e)
                if pw is None:
                    pw = cache[e] = pow(point[i], e, P)
                value = value * pw % P
        total += value
    return total % P


def family_member(n: int, q, names) -> dict:
    """P_q = x^[2]*y + z^2 + x^[1]*q(z^2) as a term dict, q constant first."""
    nv = len(names)
    iy, iz = names.index("y"), names.index("z")

    def mono(x_power, y=0, z=0):
        exps = [x_power] * n + [0] * (nv - n)
        exps[iy], exps[iz] = y, z
        return tuple(exps)

    terms = {mono(2, y=1): Fraction(1), mono(0, z=2): Fraction(1)}
    for j, c in enumerate(q):
        if c:
            key = mono(1, z=2 * j)
            terms[key] = terms.get(key, 0) + Fraction(c)
    return {k: v for k, v in terms.items() if v}


def push(images: list, point) -> list:
    """The point's image under a map given by generator images mod P."""
    return [eval_mod_p(img, point) for img in images]


def check_stable_maps(n: int, q, maps: dict, map_sizes: dict,
                      seed: int, points: int = 4) -> list:
    """Check a printed cylinder pair (phi, psi) for P_q at random points.

    ``maps`` and ``map_sizes`` are the ``stable-equiv --show-maps`` JSON
    fields.  Confirms phi(P_q) = P_0, psi(P_0) = P_q, that the two maps
    invert each other on every generator, and that each printed term
    count matches the printed image.
    """
    names = [f"x{i}" for i in range(1, n + 1)] + ["y", "z", "w"]
    errors = []
    images = {}
    for side in ("phi", "psi"):
        if sorted(maps.get(side, {})) != sorted(names):
            return [f"{side} does not list exactly the generators {names}"]
        parsed = {v: read_poly(maps[side][v], names) for v in names}
        for v in names:
            if map_sizes[side][v] != len(parsed[v]):
                errors.append(f"map_sizes[{side}][{v}] = "
                              f"{map_sizes[side][v]}, printed image has "
                              f"{len(parsed[v])} terms")
        images[side] = [to_mod_p(parsed[v]) for v in names]
    p_q = to_mod_p(family_member(n, q, names))
    p_0 = to_mod_p(family_member(n, q[:1], names))
    rng = random.Random(seed)
    for _ in range(points):
        a = [rng.randrange(P) for _ in names]
        phi_a = push(images["phi"], a)
        psi_a = push(images["psi"], a)
        if eval_mod_p(p_q, phi_a) != eval_mod_p(p_0, a):
            errors.append(f"phi(P_q) != P_0 at {a}")
        if eval_mod_p(p_0, psi_a) != eval_mod_p(p_q, a):
            errors.append(f"psi(P_0) != P_q at {a}")
        # phi(psi(v))(a) = psi(v)(phi*(a)), and symmetrically
        for label, there_and_back in (
                ("phi(psi(v))", push(images["psi"], phi_a)),
                ("psi(phi(v))", push(images["phi"], psi_a))):
            for v, got, want in zip(names, there_and_back, a):
                if got != want:
                    errors.append(f"{label} != {v} at {a}")
        if errors:
            break
    return errors


# -- the hypersurface-equivalence decider ---------------------------------

_SCALAR = re.compile(r"^(?P<a>[+-]?\d+(?:/\d+)?)"
                     r"(?:(?P<sign>[+-])(?P<b>\d+(?:/\d+)?)"
                     r"\*sqrt\((?P<d>[+-]?\d+(?:/\d+)?)\))?$")


def read_scalar(text: str):
    """(a, b, d) for 'a+b*sqrt(d)', or (a, 0, None) for a rational."""
    m = _SCALAR.match(text.replace(" ", ""))
    if not m:
        raise ValueError(f"not a scalar: {text!r}")
    a = Fraction(m.group("a"))
    if m.group("b") is None:
        return a, Fraction(0), None
    b = Fraction(m.group("b")) * (-1 if m.group("sign") == "-" else 1)
    return a, b, Fraction(m.group("d"))


def _qmul(x, y, d):
    return (x[0] * y[0] + x[1] * y[1] * (d or 0), x[0] * y[1] + x[1] * y[0])


def _qpow(x, e, d):
    out = (Fraction(1), Fraction(0))
    for _ in range(e):
        out = _qmul(out, x, d)
    return out


def check_witness(q1, c1, q2, c2, witness: dict) -> list:
    """Relations q2(t) = lam*q1(mu*t), c2 = c1/mu, eps^2*mu = 1.

    ``witness`` holds the texts of 'lambda', 'mu' and 'epsilon'.
    """
    parsed = {k: read_scalar(witness[k]) for k in ("lambda", "mu", "epsilon")}
    fields = {d for _, _, d in parsed.values() if d is not None}
    if len(fields) > 1:
        return [f"witness mixes fields sqrt({sorted(fields)})"]
    d = fields.pop() if fields else None
    lam, mu, eps = ((a, b) for a, b, _ in
                    (parsed["lambda"], parsed["mu"], parsed["epsilon"]))
    zero = (Fraction(0), Fraction(0))
    errors = []
    if lam == zero or mu == zero:
        errors.append("lambda or mu is zero")
    for j in range(max(len(q1), len(q2))):
        a1 = Fraction(q1[j]) if j < len(q1) else Fraction(0)
        a2 = Fraction(q2[j]) if j < len(q2) else Fraction(0)
        rhs = _qmul(_qmul(lam, _qpow(mu, j, d), d), (a1, Fraction(0)), d)
        if rhs != (a2, Fraction(0)):
            errors.append(f"coefficient t^{j}: q2 has {a2}, "
                          f"lambda*mu^{j}*q1 gives {rhs}")
    if _qmul((Fraction(c2), Fraction(0)), mu, d) != (Fraction(c1), 0):
        errors.append("c2 * mu != c1")
    if _qmul(_qmul(eps, eps, d), mu, d) != (Fraction(1), Fraction(0)):
        errors.append("eps^2 * mu != 1")
    return errors


def _int_root(value: int, k: int):
    """Exact integer k-th root of value >= 0, or None."""
    lo, hi = 0, 1 << (value.bit_length() // k + 1)
    while lo <= hi:
        mid = (lo + hi) // 2
        p = mid ** k
        if p == value:
            return mid
        lo, hi = (mid + 1, hi) if p < value else (lo, mid - 1)
    return None


def _rational_roots(x: Fraction, k: int) -> list:
    """Every rational r with r^k = x (x nonzero)."""
    if x < 0 and k % 2 == 0:
        return []
    num = _int_root(abs(x.numerator), k)
    den = _int_root(x.denominator, k)
    if num is None or den is None:
        return []
    root = Fraction(num, den) * (-1 if x < 0 else 1)
    return [root, -root] if k % 2 == 0 else [root]


def rational_mu_witness(q1, c1, q2, c2):
    """A rational (lam, mu) with q2(t) = lam*q1(mu*t), c2 = c1/mu, or None."""
    q1 = [Fraction(v) for v in q1]
    q2 = [Fraction(v) for v in q2]
    c1, c2 = Fraction(c1), Fraction(c2)
    width = max(len(q1), len(q2))
    q1 += [Fraction(0)] * (width - len(q1))
    q2 += [Fraction(0)] * (width - len(q2))
    support = [j for j in range(width) if q1[j]]
    if support != [j for j in range(width) if q2[j]]:
        return None
    if (c1 == 0) != (c2 == 0):
        return None
    if c1:
        candidates = [c1 / c2]
    elif len(support) < 2:
        candidates = [Fraction(1)]
    else:
        i, j = support[0], support[1]
        candidates = _rational_roots(q2[j] * q1[i] / (q1[j] * q2[i]), j - i)
    for mu in candidates:
        lam = q2[support[0]] / (q1[support[0]] * mu ** support[0]) \
            if support else Fraction(1)
        if all(q2[j] == lam * mu ** j * q1[j] for j in range(width)):
            return lam, mu
    return None


def check_decision(q1, c1, q2, c2, outcome) -> list:
    """Check one decider result: a witness dict, 'none' or 'undecidable'."""
    if isinstance(outcome, dict):
        return check_witness(q1, c1, q2, c2, outcome)
    found = rational_mu_witness(q1, c1, q2, c2)
    if found is not None:
        return [f"decider said {outcome} but lambda={found[0]}, "
                f"mu={found[1]} is a rational witness"]
    return []
