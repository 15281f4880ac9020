"""Sparse multivariate polynomials over Q and canonical rational functions.

A variable is a :class:`Var`, whose tuple order is the variable order.  A
monomial is a tuple of ``(var, exp)`` pairs with positive exponents, sorted
by variable; :func:`_mono_mul` merges two such tuples, and lowering or
dropping an exponent keeps the order.  Terms are ordered
graded-lexicographically, highest first: higher total degree first, then
the higher exponent of the earliest variable.

A coefficient is an ``int`` or a ``Fraction``, never a float.  Construction,
substitution and every division store integral values as ``int``, integers
stay ``int`` through the ring operations, and every division is exact.
``int`` and ``Fraction`` compare, hash and print alike, so the choice shows
neither in ``==`` nor in the printed form.  The gcd is the primitive PRS
over Z, run on the arguments with their denominators cleared.

Rational functions are kept fully reduced, with a monic denominator, so two
equal rational functions have structurally identical fields and ``==`` is a
decision procedure for equality in the fraction field.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
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


def _mono_div(b: Monomial, a: Monomial) -> Monomial | None:
    """b / a, or None when a does not divide b."""
    exps = dict(a)
    out = []
    for var, e in b:
        k = e - exps.pop(var, 0)
        if k < 0:
            return None
        if k:
            out.append((var, k))
    return None if exps else tuple(out)


def _mono_key(m: Monomial) -> tuple:
    """Ascending sort key for the descending graded-lex order: the highest
    term has the smallest key."""
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

    def is_constant(self) -> bool:
        return all(m == () for m in self.terms)

    def is_one(self) -> bool:
        return self.terms == {(): 1}

    def constant_value(self) -> int | Fraction:
        if not self.terms:
            return 0
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms[()]

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
        return _raw(out)

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
        return _raw(out)

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
        return _raw(out)

    def as_univariate(self, var) -> dict[int, "Polynomial"]:
        """View as a univariate polynomial in ``var`` with Polynomial coefficients."""
        out: dict[int, dict] = {}
        for m, c in self.terms.items():
            e = next((k for v, k in m if v == var), 0)
            mono = tuple(p for p in m if p[0] != var) if e else m
            bucket = out.setdefault(e, {})
            bucket[mono] = bucket.get(mono, 0) + c
        return {e: _raw(bucket) for e, bucket in out.items() if any(bucket.values())}

    def __str__(self) -> str:
        return poly_to_str(self)

    def __repr__(self) -> str:
        return f"Polynomial({poly_to_str(self)})"


def _raw(terms: dict) -> Polynomial:
    p = Polynomial.__new__(Polynomial)
    object.__setattr__(p, "terms", {m: c for m, c in terms.items() if c})
    return p


def _as_poly(value):
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial.constant(value)
    return NotImplemented


ZERO = Polynomial()
ONE = Polynomial.constant(1)


def _from_univariate(var, coeffs: Mapping[int, Polynomial]) -> Polynomial:
    """Inverse of :meth:`Polynomial.as_univariate`; the coefficients do not
    involve ``var``, so no two terms share a monomial."""
    return _raw({_mono_mul(m, ((var, e),)) if e else m: c
                 for e, p in coeffs.items() for m, c in p.terms.items()})


def _div_const(p: Polynomial, d) -> Polynomial:
    """p / d for a nonzero rational constant d."""
    return p if d == 1 else _raw({m: _quo(c, d) for m, c in p.terms.items()})


def exact_div(f: Polynomial, g: Polynomial) -> Polynomial:
    """Exact polynomial quotient f / g; raises if g does not divide f."""
    if g.is_zero():
        raise DivisionByZeroExpression("exact division by zero polynomial")
    if f.is_zero():
        return ZERO
    if g.is_constant():
        return _div_const(f, g.constant_value())
    quot: dict = {}
    rem = f
    gm, gc = g.leading()
    while not rem.is_zero():
        rm, rc = rem.leading()
        m = _mono_div(rm, gm)
        if m is None:
            raise ValueError("exact_div: divisor does not divide dividend")
        quot[m] = c = _quo(rc, gc)   # leading monomials strictly decrease
        rem = rem - _raw({m: c}) * g
    return _raw(quot)


def _prem(u: dict[int, Polynomial], v: dict[int, Polynomial]) -> dict[int, Polynomial]:
    """Pseudo-remainder of univariate-view polynomials (coefficients may grow)."""
    dv = max(v)
    lv = v[dv]
    r = dict(u)
    while r and max(r) >= dv:
        dr = max(r)
        lr = r[dr]
        shift = dr - dv
        new: dict[int, Polynomial] = {}
        for e, c in r.items():
            new[e] = c * lv
        for e, c in v.items():
            ee = e + shift
            new[ee] = new.get(ee, ZERO) - lr * c
        r = {e: c for e, c in new.items() if not c.is_zero()}
    return r


def _primitive(uni: dict[int, Polynomial]) -> tuple[Polynomial, dict[int, Polynomial]]:
    """Content (over Z, so with the integer gcd) and primitive part of a
    univariate view with integer coefficients."""
    cont = reduce(_zgcd, uni.values())
    if cont.is_one():
        return cont, uni
    return cont, {e: exact_div(c, cont) for e, c in uni.items()}


def _zgcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """A greatest common divisor in Z[vars] of nonzero f and g with integer
    coefficients, by the primitive PRS in the shared variable of least
    combined degree."""
    common = f.variables() & g.variables()
    if not common:
        # a common divisor involves no variable: the integer gcd of all
        # the coefficients
        return Polynomial.constant(math.gcd(*f.terms.values(), *g.terms.values()))
    if len(f.terms) == 1 or len(g.terms) == 1:
        # a term's divisors are terms: the coefficients' gcd times least powers
        monos = [dict(m) for m in (*f.terms, *g.terms)]
        least = ((v, min(m.get(v, 0) for m in monos)) for v in sorted(common))
        return _raw({tuple((v, e) for v, e in least if e):
                     math.gcd(*f.terms.values(), *g.terms.values())})
    var = min(common, key=lambda v: (f.degree_in(v) + g.degree_in(v), v))
    cont_f, u = _primitive(f.as_univariate(var))
    cont_g, v = _primitive(g.as_univariate(var))
    c = _zgcd(cont_f, cont_g)
    if max(u) < max(v):
        u, v = v, u
    while True:
        r = _prem(u, v)
        if not r:
            return c * _from_univariate(var, v)
        if max(r) == 0:
            return c
        u, v = v, _primitive(r)[1]


def _clear(p: Polynomial) -> Polynomial:
    """p times the lcm of its coefficients' denominators, with int
    coefficients."""
    lcm = math.lcm(*(c.denominator for c in p.terms.values()))
    return _raw({m: c.numerator * (lcm // c.denominator) for m, c in p.terms.items()})


def _monic(p: Polynomial) -> Polynomial:
    return p if p.is_zero() else _div_const(p, p.leading_coeff())


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic greatest common divisor: the primitive PRS over Z on f and g
    with their denominators cleared."""
    if f.is_zero():
        return _monic(g)
    if g.is_zero():
        return _monic(f)
    if f.is_constant() or g.is_constant():
        return ONE
    return _monic(_zgcd(_clear(f), _clear(g)))


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
            g = poly_gcd(num, den)
            if not g.is_one():
                num = exact_div(num, g)
                den = exact_div(den, g)
            lc = den.leading_coeff()
            num = _div_const(num, lc)
            den = _div_const(den, lc)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def constant(cls, value) -> "RationalFunction":
        return cls(Polynomial.constant(value))

    @classmethod
    def variable(cls, var) -> "RationalFunction":
        return cls(Polynomial.variable(var))

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
        # a/b + c/d = t/(b'*d) for g = gcd(b, d), b' = b/g, t = a*(d/g) + c*b',
        # and gcd(t, b'*d) = gcd(t, g) (Henrici; Knuth, TAOCP 2, 4.5.1)
        g = poly_gcd(self.den, other.den)
        b = exact_div(self.den, g)
        t = self.num * exact_div(other.den, g) + other.num * b
        h = poly_gcd(t, g)
        return RationalFunction(exact_div(t, h), b * exact_div(other.den, h), reduced=True)

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
        # cancelled crosswise, a/b * c/d is reduced already
        g, k = poly_gcd(self.num, other.den), poly_gcd(other.num, self.den)
        return RationalFunction(exact_div(self.num, g) * exact_div(other.num, k),
                                exact_div(self.den, k) * exact_div(other.den, g), reduced=True)

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
        term, exps = _raw(bucket), dict(moved)
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
