"""Sparse multivariate polynomials over Q and canonical rational functions.

A variable is a :class:`Var`, whose tuple order is the variable order.  A
monomial is a tuple of ``(var, exp)`` pairs with positive exponents, sorted
by variable; :func:`_mono_mul` merges two such tuples, and lowering or
dropping an exponent keeps the order.  Terms stay in the order their
arithmetic made them; only the leading term and the printer order them, by
one key, :func:`_mono_key`: graded-lexicographically, highest first.

A coefficient is an ``int`` or a ``Fraction``, never a float; every
operation stores an integral value as ``int``, and every division is exact.
``int`` and ``Fraction`` compare, hash and print alike, so the choice shows
neither in ``==`` nor in the printed form.  No coefficient is zero: ``+``,
``-`` and ``*`` drop a zero as it arises, so the internal constructor
``_raw`` takes its terms as given.

The gcd is taken on the arguments with their denominators, integer and
monomial contents divided out.  The heuristic gcd (GCDHEU: Char, Geddes and
Gonnet, JSC 7, 1989) sets one variable at a time to an integer xi >= 2
min(|a|, |b|) + 2, down to one integer gcd, and reads a candidate from the
symmetric base-xi digits; by their theorem, one that divides both arguments
is the gcd.  Past 16,000 bits of image, or after three values of xi, Brown's
modular algorithm (JACM 18, 1971) runs: images mod primes near 2^61 are
univariate in the variable of largest degree, and stay sparse in it; the
other variables are evaluated and Newton-interpolated until one more image
changes nothing.  Images combine by CRT, a candidate that one more prime
leaves unchanged, or whose coefficients are small, is returned if it divides
both arguments exactly over Z, and an image of degree 0 proves them coprime.
Either way that trial division is the one exact division: :func:`poly_gcd`
returns its quotients, scaled back, as the cofactors f/h and g/h beside the
gcd h, so no caller divides again.

Rational functions are kept fully reduced, with a monic denominator, so two
equal rational functions have structurally identical fields and ``==`` is a
decision procedure for equality in the fraction field.  A sum, difference
or product of two quotients over 1 is over 1, with no gcd.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Mapping, NamedTuple

Monomial = tuple  # sorted tuple of (Var, positive int exponent) pairs


class Var(NamedTuple):
    """A variable: ``t`` or a parameter when not ``differential``, else a
    differential indeterminate with a derivative ``order``.  The tuple order
    puts the non-differential variables first, by name, then the
    differential ones by name and order."""

    differential: bool
    name: str
    order: int = 0

    def __str__(self) -> str:
        return self.name + "'" * self.order


class DivisionByZeroExpression(ZeroDivisionError):
    """Division by an expression that is identically zero."""


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """The product monomial: one merge of the two sorted tuples."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        va, vb = a[i][0], b[j][0]
        if va < vb:
            out.append(a[i])
            i += 1
        elif vb < va:
            out.append(b[j])
            j += 1
        else:
            out.append((a[i][0], a[i][1] + b[j][1]))
            i += 1
            j += 1
    return tuple(out) + a[i:] + b[j:]


def _mono_key(m: Monomial) -> tuple:
    """Ascending sort key for descending graded-lex order: higher total
    degree first, then the higher exponent of the earliest variable."""
    return (-sum(e for _, e in m), [(v, -e) for v, e in m])


def _coeff(value):
    """An exact rational value as a coefficient: an ``int`` when it is
    integral, else a ``Fraction``."""
    if value.__class__ is int:
        return value
    value = value if value.__class__ is Fraction else Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _quo(a, b):
    """The exact quotient a / b of two coefficients, as a coefficient."""
    if a.__class__ is int and b.__class__ is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return _coeff(Fraction(a, b))


class Polynomial:
    """Immutable sparse polynomial with ``int`` or ``Fraction`` coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, int | Fraction] | None = None):
        pruned = {}
        if terms:
            for m, c in terms.items():
                c = _coeff(c)
                if c:
                    pruned[m] = c
        object.__setattr__(self, "terms", pruned)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def constant(cls, value) -> "Polynomial":
        return cls({(): value})

    @classmethod
    def variable(cls, var) -> "Polynomial":
        return cls({((var, 1),): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(): 1}

    def variables(self) -> set:
        out = set()
        for m in self.terms:
            for var, _ in m:
                out.add(var)
        return out

    def degree_in(self, var) -> int:
        deg = 0
        for m in self.terms:
            for v, e in m:
                if v == var and e > deg:
                    deg = e
        return deg

    def leading(self) -> tuple[Monomial, int | Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = min(self.terms, key=_mono_key)
        return m, self.terms[m]

    def leading_coeff(self) -> int | Fraction:
        return self.leading()[1]

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return _settled(out)

    __radd__ = __add__

    def __neg__(self):
        return _raw({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = _mono_mul(ma, mb)
                s = out.get(m, 0) + ca * cb
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return _settled(out)

    __rmul__ = __mul__

    def __pow__(self, exp: int):
        if not isinstance(exp, int) or exp < 0:
            raise ValueError("polynomial powers take non-negative integer exponents")
        result, base = ONE, self
        while True:
            if exp & 1:
                result = result * base
            exp >>= 1
            if not exp:
                return result
            base = base * base

    def partial(self, var) -> "Polynomial":
        """Formal partial derivative with respect to one variable."""
        out: dict = {}
        for m, c in self.terms.items():
            for i, (v, e) in enumerate(m):
                if v == var:
                    lowered = ((v, e - 1),) if e > 1 else ()
                    out[m[:i] + lowered + m[i + 1:]] = c * e
                    break
        return _settled(out)

    def __str__(self) -> str:
        return poly_to_str(self)

    def __repr__(self) -> str:
        return f"Polynomial({poly_to_str(self)})"


def _raw(terms: dict) -> Polynomial:
    """A polynomial on ``terms`` as given: no zero, each a coefficient."""
    p = Polynomial.__new__(Polynomial)
    object.__setattr__(p, "terms", terms)
    return p


def _settled(terms: dict) -> Polynomial:
    """``_raw(terms)``, each ``Fraction`` stored by :func:`_coeff`."""
    for m, c in terms.items():
        if c.__class__ is not int:
            terms[m] = _coeff(c)
    return _raw(terms)


def _as_poly(value):
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial.constant(value)
    return NotImplemented


ZERO = Polynomial()
ONE = Polynomial.constant(1)


def _div_const(p: Polynomial, d) -> Polynomial:
    """p / d for a nonzero rational constant d."""
    return p if d == 1 else _raw({m: _quo(c, d) for m, c in p.terms.items()})


def poly_gcd(f: Polynomial, g: Polynomial) -> tuple[Polynomial, Polynomial, Polynomial]:
    """The monic greatest common divisor h, and the cofactors f/h and g/h.
    gcd(p, 0) is p made monic, and gcd(0, 0) is 0 with cofactors 0.  With
    no shared variable, or coprime arguments, h is 1 and the cofactors are
    f and g themselves.  Else each argument, its denominators cleared, loses
    its integer and monomial content, the least exponents of the two
    monomial contents are h's monomial part, and :func:`_brown` gives the
    rest and the quotients."""
    if f.is_zero() or g.is_zero():
        p = g if f.is_zero() else f
        if p.is_zero():
            return ZERO, ZERO, ZERO
        lc = p.leading_coeff()
        h, lc = _div_const(p, lc), Polynomial.constant(lc)
        return (h, ZERO, lc) if p is g else (h, lc, ZERO)
    fv, gv = f.variables(), g.variables()
    if not fv & gv:
        return ONE, f, g
    names = sorted(fv | gv)
    (a, low_a, *scale_a), (b, low_b, *scale_b) = _exponents(f, names), _exponents(g, names)
    deg_a, deg_b = (list(map(max, zip(*p))) for p in (a, b))
    core = unit = {(0,) * len(names): 1}
    if any(map(min, deg_a, deg_b)):
        # the variable of largest degree first: its images stay sparse
        order = sorted(range(len(names)), key=lambda i: -max(deg_a[i], deg_b[i]))
        found = _brown(*({tuple(m[i] for i in order): c for m, c in p.items()} for p in (a, b)))
        if found:
            back = sorted(range(len(order)), key=order.__getitem__)
            core, a, b = ({tuple(m[i] for i in back): c for m, c in p.items()} for p in found)
    low = list(map(min, low_a, low_b))
    if core is unit and not any(low):
        return ONE, f, g

    def lift(q: dict, shift, num, den) -> Polynomial:
        # q * x^shift * num / den, its terms in q's order
        return _raw({tuple((v, e + s) for v, e, s in zip(names, m, shift) if e + s):
                     _quo(c * num, den) for m, c in q.items()})
    h = lift(core, low, 1, 1)
    lc = h.leading_coeff()
    cofactors = (lift(q, [x - y for x, y in zip(low_q, low)], content * lc, lcm)
                 for q, low_q, content, lcm in ((a, low_a, *scale_a), (b, low_b, *scale_b)))
    return _div_const(h, lc), *cofactors


def _exponents(p: Polynomial, names: list) -> tuple[dict, tuple, int, int]:
    """p times the lcm of its denominators, over its integer content and its
    monomial content, as {exponent tuple over names: int}; the exponents of
    that monomial content, the integer content and the lcm."""
    index = {v: i for i, v in enumerate(names)}
    lcm = math.lcm(*(c.denominator for c in p.terms.values()))
    out = {}
    for m, c in p.terms.items():
        exps = [0] * len(names)
        for v, e in m:
            exps[index[v]] = e
        out[tuple(exps)] = c.numerator * (lcm // c.denominator)
    low = tuple(map(min, zip(*out)))
    content = math.gcd(*out.values())
    return ({tuple(e - k for e, k in zip(m, low)): c // content for m, c in out.items()},
            low, content, lcm)


# Brown's modular gcd (JACM 18, 1971) on {exponent tuple: int}, the first
# variable the main one.  Each image mod p is computed by evaluating the last
# variable and interpolating it back (_pgcd), images combine by CRT, and a
# candidate is accepted only when it divides both arguments over Z.

_PRIMES = [2 ** 61 - 1]
_UNIT = {0: 1}   # the univariate polynomial 1


def _primes():
    """The primes below 2^61, largest first, each found once."""
    for i in itertools.count():
        if i == len(_PRIMES):
            _PRIMES.append(next(n for n in range(_PRIMES[-1] - 2, 0, -2) if _is_prime(n)))
        yield _PRIMES[i]


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the first twelve prime bases: exact below 3.3e24."""
    s = ((n - 1) & (1 - n)).bit_length() - 1   # n - 1 = odd * 2^s
    odd = (n - 1) >> s
    return all(pow(a, odd, n) == 1 or any(pow(a, odd << r, n) == n - 1 for r in range(s))
               for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))


def _brown(a: dict, b: dict) -> tuple[dict, dict, dict] | None:
    """The primitive gcd over Z of a and b, which are primitive and share a
    variable, and a and b over it; or None when they are coprime.  The
    heuristic gcd tries first, with integer images at xi >= 2 min(|a|, |b|)
    + 2: a candidate that divides both is the gcd (Char, Geddes and Gonnet).
    Past _HEU_BITS, or after _HEU_TRIES values of xi, Brown's images run."""
    if found := _heuristic(a, b):
        return found if any(max(found[0])) else None
    lc_a, lc_b = a[max(a)], b[max(b)]
    gamma = math.gcd(lc_a, lc_b)   # the gcd's leading coefficient divides it
    level, modulus, lead, image, candidate = len(max(a)), 1, None, {}, None
    for p in _primes():
        if not (lc_a % p and lc_b % p):
            continue
        h = _pgcd({m: r for m, c in a.items() if (r := c % p)},
                  {m: r for m, c in b.items() if (r := c % p)}, p, level)
        m = max(h)
        if not any(m):
            return None   # the image bounds the gcd's degree: 0
        if lead is None or m < lead:
            # a lower degree: every earlier prime was unlucky
            modulus, lead, image, candidate = 1, m, {}, None
        elif m > lead:
            continue   # an unlucky prime
        inv = pow(modulus, -1, p)
        image = {k: (u := image.get(k, 0)) + modulus * ((h.get(k, 0) * gamma - u) * inv % p)
                 for k in image.keys() | h.keys()}
        modulus *= p
        last, candidate = candidate, {k: v - modulus if 2 * v > modulus else v
                                      for k, v in image.items() if v}
        # a wrong candidate has coefficients up to modulus / 2, and dividing by
        # it can step the main exponent down one at a time: it is tried once
        # one more prime leaves it unchanged, or when its coefficients are small
        if candidate != last and 2 * max(map(abs, candidate.values())) ** 2 > modulus:
            continue
        content = math.gcd(*candidate.values())
        found = {k: v // content for k, v in candidate.items()}
        if (qa := _divides(found, a)) and (qb := _divides(found, b)):
            return found, qa, qb


# From test-suite timing: over 12,304 gcds, 8,000 and 16,000 bits took the least
# time of 2,000 to 32,000, and none needed a fourth xi.  exact_ops needs two xi
# at most, far below the bits, so the benchmark cannot tell other bounds apart.
_HEU_BITS = 16000   # xi's bits * (degree + 1) past which Brown's images run
_HEU_TRIES = 3      # values of xi before Brown's images run


def _heuristic(a: dict, b: dict) -> tuple[dict, dict, dict] | None:
    """As :func:`_brown` (the gcd 1 for coprime a and b), or None on giving up:
    the images at last variable = xi give their contents' gcd times the gcd of
    their primitive parts, one variable down, read in symmetric base-xi digits."""
    top = max(m[-1] for p in (a, b) for m in p)
    xi = 2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 2
    for _ in range(_HEU_TRIES):
        if xi.bit_length() * (top + 1) > _HEU_BITS:
            return None
        powers, images = [xi ** e for e in range(top + 1)], ({}, {})
        for p, image in zip((a, b), images):
            for m, c in p.items():
                image[m[:-1]] = image.get(m[:-1], 0) + c * powers[m[-1]]
        ia, ib = ({m: c for m, c in image.items() if c} for image in images)
        if ia and ib:   # else xi is a root of each coefficient of a or of b
            ca, cb = math.gcd(*ia.values()), math.gcd(*ib.values())
            found = [{(): 1}] if len(max(a)) == 1 else _heuristic(
                {m: c // ca for m, c in ia.items()}, {m: c // cb for m, c in ib.items()})
            if not found:
                return None
            g, half = {}, xi // 2
            for m, c in found[0].items():
                c, e = c * math.gcd(ca, cb), 0
                while c:
                    if d := (c + half) % xi - half:
                        g[m + (e,)] = d
                    c, e = (c - d) // xi, e + 1
            content = math.gcd(*g.values()) if g[max(g)] > 0 else -math.gcd(*g.values())
            g = {m: c // content for m, c in g.items()}
            if not any(max(g)):
                return g, a, b
            if (qa := _divides(g, a)) and (qb := _divides(g, b)):
                return g, qa, qb
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _divides(g: dict, a: dict) -> dict | None:
    """a / g over Z, for a != 0, by division in lex order; or None, from the
    first monomial or coefficient that does not divide."""
    lead = max(g)
    r, out = dict(a), {}
    while r:
        m = max(r)
        shift = tuple(x - y for x, y in zip(m, lead))
        q, rem = divmod(r[m], g[lead])
        if rem or min(shift) < 0:
            return None
        out[shift] = q
        for k, c in g.items():
            k = tuple(x + y for x, y in zip(shift, k))
            if v := r.get(k, 0) - q * c:
                r[k] = v
            else:
                del r[k]
    return out


def _pgcd(a: dict, b: dict, p: int, level: int) -> dict:
    """The monic gcd (lex, first variable first) of nonzero a and b in
    Z_p[x1..x_level] (Brown's PGCD): the contents in x_level are split off,
    x_level is set to points where the leading coefficients' gcd s is not
    zero, and the images, scaled to s there, are Newton-interpolated until
    one more image leaves the interpolant unchanged, or deg(s) +
    min(degrees in x_level) + 1 of them agree in degree; when s is not
    constant, the monic images are interpolated alongside, and used if they
    stop changing first."""
    if level == 1:
        h = _ugcd({m[0]: c for m, c in a.items()}, {m[0]: c for m, c in b.items()}, p)
        return {(e,): c for e, c in h.items()}
    a, b = _split(a), _split(b)
    ca, cb = _content(a, p), _content(b, p)
    content = _ugcd(ca, cb, p)
    a, b = _divide(a, ca, p), _divide(b, cb, p)
    s = _ugcd(a[max(a)], b[max(b)], p)
    bound = min(max(map(max, a.values())), max(map(max, b.values()))) + max(s)
    lead = None
    # a point sequence per level, so that two variables are never set to
    # the same values, where x + t and x + y would meet
    step = 1 + 0x9E3779B97F4A7C15 * level % (p - 1)
    for j in range(1, p):
        x = j * step % p
        scale = _ueval(s, x, p)
        if not scale:
            continue
        image = _pgcd(_evaluate(a, x, p), _evaluate(b, x, p), p, level - 1)
        m = max(image)
        if not any(m):
            return {m + (e,): c for e, c in content.items()}
        if lead is None or m < lead:
            monic, h, lead, master = {}, {}, m, [1]
        elif m > lead:
            continue
        # the gcd's leading coefficient divides s, so the images scaled to s
        # lie on a polynomial in x_level; when s is not constant, the monic
        # images do too if that coefficient is free of x_level, and then on
        # one of lower degree
        if max(s) and not _newton(monic, master, image, x, p):
            h = monic
            break
        if not _newton(h, master, {k: v * scale % p for k, v in image.items()}, x, p):
            break
        # prod (x_level - x) over the points, lowest degree first
        master = [(lo - x * hi) % p for lo, hi in zip([0] + master, master + [0])]
        if len(master) > bound + 1:
            break
    h = _divide(h, _content(h, p), p)
    out = {m + (e,): c for m, u in h.items() for e, c in _umul(u, content, p).items()}
    inv = pow(out[max(out)], -1, p)
    return {m: c * inv % p for m, c in out.items()}


def _newton(h: dict, master: list, image: dict, x: int, p: int) -> bool:
    """Newton's step on the split polynomial h, in place: h += (image - h(x))
    / master(x) * master, where master vanishes at h's points; whether h
    changed."""
    powers = [1]   # x^e up to master's degree, which is above h's
    for _ in master[1:]:
        powers.append(powers[-1] * x % p)
    inv = pow(sum(c * w for c, w in zip(master, powers)), -1, p)
    change = {k: d for k in h.keys() | image.keys() if (d := (image.get(k, 0) - sum(
        c * powers[e] for e, c in h.get(k, {}).items())) * inv % p)}
    for k, d in change.items():
        u = h.pop(k, {})
        if u := {e: w for e, c in enumerate(master) if (w := (u.get(e, 0) + d * c) % p)}:
            h[k] = u
    return bool(change)


def _split(a: dict) -> dict:
    """{(e1..e_k): c} as {(e1..e_{k-1}): {e_k: c}}."""
    out: dict = {}
    for m, c in a.items():
        out.setdefault(m[:-1], {})[m[-1]] = c
    return out


def _divide(a: dict, c: dict, p: int) -> dict:
    """Each coefficient in x_k of the split polynomial over c, which divides
    them all."""
    return a if c == _UNIT else {m: _udivmod(u, c, p)[0] for m, u in a.items()}


def _evaluate(a: dict, x: int, p: int) -> dict:
    return {m: v for m, u in a.items() if (v := _ueval(u, x, p))}


def _content(a: dict, p: int) -> dict:
    """The monic gcd of the split polynomial's coefficients in x_k."""
    out: dict = {}
    for u in a.values():
        out = _ugcd(out, u, p)
        if out == _UNIT:
            break
    return out


# Univariate polynomials mod p, as {exponent: coefficient}: sparse, so a
# huge exponent costs one pow.

def _ueval(u: dict, x: int, p: int) -> int:
    return sum(c * pow(x, e, p) for e, c in u.items()) % p


def _umul(u: dict, v: dict, p: int) -> dict:
    out: dict = {}
    for e, c in u.items():
        for f, d in v.items():
            out[e + f] = (out.get(e + f, 0) + c * d) % p
    return {e: c for e, c in out.items() if c}


def _udivmod(u: dict, v: dict, p: int) -> tuple[dict, dict]:
    """Quotient and remainder of u by v != 0."""
    top = max(v)
    inv = pow(v[top], -1, p)
    q, r = {}, dict(u)
    while r and (e := max(r)) >= top:
        c = q[e - top] = r.pop(e) * inv % p
        for f, d in v.items():
            if f != top:
                k = e - top + f
                if w := (r.get(k, 0) - c * d) % p:
                    r[k] = w
                else:
                    del r[k]
    return q, r


def _urem(u: dict, v: dict, p: int) -> dict:
    """u mod v != 0: by long division, or, when u's degree is far above its
    count of terms, as the sum of its terms c*x^e mod v, each by repeated
    squaring, so that x^(10^999) mod v takes some 3,300 squarings."""
    top = max(v)
    if not u or max(u) - top <= 64 * len(u) * top:
        return _udivmod(u, v, p)[1]
    out: dict = {}
    for e, c in u.items():
        r = {0: 1}
        for bit in bin(e)[2:]:
            r = _udivmod(_umul(r, r, p), v, p)[1]
            if bit == "1":
                r = _udivmod({k + 1: d for k, d in r.items()}, v, p)[1]
        for k, d in r.items():
            out[k] = (out.get(k, 0) + c * d) % p
    return {k: d for k, d in out.items() if d}


def _ugcd(u: dict, v: dict, p: int) -> dict:
    """The monic gcd of u and v, not both zero."""
    while v:
        u, v = v, _urem(u, v, p)
    inv = pow(u[max(u)], -1, p)
    return {e: c * inv % p for e, c in u.items()}


class RationalFunction:
    """Quotient of polynomials in canonical form (reduced, monic denominator);
    ``reduced=True`` vouches that num and den already are, so no gcd is taken."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial = ONE, reduced: bool = False):
        num = _as_poly(num)
        den = _as_poly(den)
        if den.is_zero():
            raise DivisionByZeroExpression("denominator is identically zero")
        if num.is_zero():
            num, den = ZERO, ONE
        elif not reduced:
            _, num, den = poly_gcd(num, den)
            lc = den.leading_coeff()
            num = _div_const(num, lc)
            den = _div_const(den, lc)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def constant(cls, value) -> "RationalFunction":
        return cls(Polynomial.constant(value), reduced=True)

    @classmethod
    def variable(cls, var) -> "RationalFunction":
        return cls(Polynomial.variable(var), reduced=True)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def variables(self) -> set:
        return self.num.variables() | self.den.variables()

    def __eq__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den.is_one() and other.den.is_one():
            return RationalFunction(self.num + other.num, reduced=True)
        # a/b + c/d = t/(b'*d) for g = gcd(b, d), b' = b/g, t = a*(d/g) + c*b',
        # and h = gcd(t, b'*d) = gcd(t, g) (Henrici; Knuth, TAOCP 2, 4.5.1)
        g, b1, d1 = poly_gcd(self.den, other.den)
        h, t, g1 = poly_gcd(self.num * d1 + other.num * b1, g)
        dh = other.den if h.is_one() else d1 * g1
        return RationalFunction(t, b1 * dh, reduced=True)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den, reduced=True)

    def __sub__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den.is_one() and other.den.is_one():
            return RationalFunction(self.num * other.num, reduced=True)
        # cancelled crosswise, a/b * c/d is reduced already
        _, a, d = poly_gcd(self.num, other.den)
        _, c, b = poly_gcd(other.num, self.den)
        return RationalFunction(a * c, b * d, reduced=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other ** -1

    def __rtruediv__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, exp: int):
        if not isinstance(exp, int):
            raise ValueError("rational function powers take integer exponents")
        num, den = self.num, self.den
        if exp < 0:
            if self.is_zero():
                raise DivisionByZeroExpression("division by identically-zero expression")
            lc = num.leading_coeff()
            num, den = _div_const(den, lc), _div_const(num, lc)
        # a power of a reduced quotient is reduced, and of a monic polynomial
        # monic, since graded-lex is a monomial order
        return RationalFunction(num ** abs(exp), den ** abs(exp), reduced=True)

    def substitute(self, mapping: Mapping) -> "RationalFunction":
        """Replace variables by exact rational values or rational functions,
        all at once, composed as :func:`_compose` says and reduced by one gcd.
        A mapping in which no variable of self occurs returns self."""
        present = self.variables()
        values = {v: _coeff(x) for v, x in mapping.items()
                  if v in present and isinstance(x, (int, Fraction))}
        quotients = {v: _as_rf(x) for v, x in mapping.items() if v in present and v not in values}
        if not values and not quotients:
            return self
        # num and den over the same common denominator prod d^E, which cancels
        tops = {v: max(self.num.degree_in(v), self.den.degree_in(v)) for v in quotients}
        powers: dict = {}
        num, den = (_compose(p, values, quotients, tops, powers) for p in (self.num, self.den))
        if den.is_zero():
            raise DivisionByZeroExpression(
                f"factor {poly_to_str(self.den)} vanishes under substitution")
        return RationalFunction(num, den)

    def __str__(self) -> str:
        if self.den.is_one():
            return poly_to_str(self.num)
        num = poly_to_str(self.num)
        den = poly_to_str(self.den)
        return f"({num})/({den})"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"


def _as_rf(value):
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, (Polynomial, int, Fraction)):
        return RationalFunction(value, reduced=True)   # over 1: reduced
    return NotImplemented


def _compose(p: Polynomial, values: Mapping, quotients: Mapping, tops: Mapping,
             powers: dict) -> Polynomial:
    """p with values and quotients n/d put in, times the common denominator:
    the product of d^E, E = tops[v] at least p's degree in the quotient's v.
    A value multiplies into each term's coefficient; a term holding v^e takes
    n^e * d^(E - e), kept in ``powers`` per (v, e)."""
    buckets: dict = {}
    for m, c in p.terms.items():
        moved, rest = [], []
        for var, e in m:
            if var in values:
                c = c * values[var] ** e if e > 1 else c * values[var]
            elif var in quotients:
                moved.append((var, e))
            else:
                rest.append((var, e))
        bucket, mono = buckets.setdefault(tuple(moved), {}), tuple(rest)
        bucket[mono] = bucket.get(mono, 0) + c
    if not tops:
        return Polynomial(buckets.get(()))
    out: dict = {}
    for moved, bucket in buckets.items():
        term, exps = _raw({m: c for m, c in bucket.items() if c}), dict(moved)
        for var, top in tops.items():
            e = exps.get(var, 0)
            if (var, e) not in powers:
                powers[var, e] = quotients[var].num ** e * quotients[var].den ** (top - e)
            term = term * powers[var, e]
        for m, c in term.terms.items():
            out[m] = out.get(m, 0) + c
    return Polynomial(out)


def poly_to_str(p: Polynomial) -> str:
    """Canonical printer emitting the shared expression grammar."""
    if p.is_zero():
        return "0"
    monos = sorted(p.terms, key=_mono_key)
    pieces = []
    for i, m in enumerate(monos):
        c = p.terms[m]
        factors = ["*".join(f"{v}^{e}" if e > 1 else f"{v}" for v, e in m)] if m else []
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = factors[0]
        else:
            body = f"{mag}*{factors[0]}"
        if i == 0:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)
