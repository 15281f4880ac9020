"""Independent reference implementations used to pin expected values.

Everything here deliberately avoids the code paths it checks: the 24 roots
are enumerated here, inner products are summed part by part, stratum
membership is decided by enumerating root combinations with integer minors
(not by the package's signed-graph rank), the graded-lex term order is
decided on exponent vectors (not by the package's monomial key),
rational functions are evaluated in floats term by term (not by the
package's generated code), trajectories come from a plain stage loop
over the Dormand-Prince tableau written as fractions (not from the
package's generated step), the curve check raises primes and then
substitutes (not the package's derivation along the curve), substitution
rebuilds each term by rational products and sums (not the package's
composition over a common denominator), partial derivatives follow the
textbook quotient rule (not that derivation), the p3/p4 parameter
groups act in Q(i) arithmetic (not on the package's integer coordinates),
the wire parser, the printer and the lattice tests work on ``Fraction``
parts (not on the package's reduced integer parts), Q(i) arithmetic is
the ``QI`` type here (the package's ``ComplexRational`` has none), the
gcd is the primitive PRS over Z (not the package's modular gcd), exact
division is long division over Q (not the gcd's trial division over Z), and
the p2, p4 and p5 fields are written out (not derived from their Hamiltonians).
Random parameter vectors come from seeded generators so frozen expectations
stay stable.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction

from painstrata.exactnum import ComplexRational, ConstraintError, ParameterParseError
from painstrata.models import (
    MAX_REDUCTION_STEPS,
    MAX_WORD_LENGTH,
    BudgetExceededError,
    Family,
    GroupWord,
    P3Generator,
    P4Generator,
    Related,
    SpecialValue,
    Unknown,
)
from painstrata.ratfunc import DivisionByZeroExpression, Polynomial, RationalFunction, Var
from painstrata.symbolic import T


@dataclass(frozen=True, eq=False)
class QI:
    """A Q(i) value on ``Fraction`` parts with the field operations, for
    building expected values.  ``qi`` reads a package value (or an int or a
    ``Fraction``) into one, ``exact`` gives the package's value back, and a
    QI equals a ``ComplexRational`` of the same value."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def exact(self) -> ComplexRational:
        return ComplexRational(self.re, self.im)

    def __eq__(self, other):
        if not isinstance(other, (QI, ComplexRational, int, Fraction)):
            return NotImplemented
        other = qi(other)
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re or self.im)

    def __neg__(self):
        return QI(-self.re, -self.im)

    def __add__(self, other):
        other = qi(other)
        return QI(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -qi(other)

    def __rsub__(self, other):
        return qi(other) - self

    def __mul__(self, other):
        other = qi(other)
        return QI(self.re * other.re - self.im * other.im,
                  self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = qi(other)
        norm = other.re * other.re + other.im * other.im
        if not norm:
            raise ZeroDivisionError("division by zero in Q(i)")
        return self * QI(other.re / norm, -other.im / norm)

    def __rtruediv__(self, other):
        return qi(other) / self


def qi(z) -> QI:
    """A ``ComplexRational``, ``int``, ``Fraction`` or ``QI`` as a QI."""
    if isinstance(z, QI):
        return z
    if isinstance(z, ComplexRational):
        return QI(Fraction(z.rn, z.rd), Fraction(z.jn, z.jd))
    if isinstance(z, (int, Fraction)):
        return QI(Fraction(z))
    raise TypeError(f"not a Q(i) value: {z!r}")


# the vectors with exactly two nonzero entries, each +-1
ROOTS = tuple(r for r in itertools.product((-1, 0, 1), repeat=4)
              if sum(map(abs, r)) == 2)


def root_inner(v, root):
    """Exact inner product; None when a tagged coordinate meets the root."""
    if any(r and isinstance(c, SpecialValue) for c, r in zip(v, root)):
        return None
    return sum((r * qi(c) for c, r in zip(v, root) if r), QI())


def integral(z) -> bool:
    """z is a real integer; a generic inner product (None) never is."""
    return z is not None and z.im == 0 and z.re.denominator == 1


def det(rows) -> int:
    """Integer determinant by cofactor expansion (small matrices only)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if not rows[0][j]:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * det(minor)
    return total


def independent(vectors) -> bool:
    """Linear independence of 0..4 integer 4-vectors via maximal minors."""
    k = len(vectors)
    if k == 0:
        return True
    if k == 1:
        return any(vectors[0])
    if k == 2:
        a, b = vectors
        return not (a == b or all(x == -y for x, y in zip(a, b)))
    for cols in itertools.combinations(range(4), k):
        minor = [[v[c] for c in cols] for v in vectors]
        if det(minor):
            return True
    return False


def span_rank(vectors) -> int:
    """Dimension of the span of integer 4-vectors, by Gaussian elimination
    over the rationals."""
    rows = [list(map(Fraction, v)) for v in vectors]
    rank = 0
    for col in range(4):
        pivot = next((r for r in rows[rank:] if r[col]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rows = [[x - r[col] / pivot[col] * y for x, y in zip(r, pivot)] for r in rows]
        rows.insert(rank, pivot)
        rank += 1
    return rank


def integral_hits(v) -> list:
    """The roots, in ``ROOTS`` order, with integer inner product."""
    return [r for r in ROOTS if integral(root_inner(v, r))]


def brute_force_levels(v) -> dict[str, bool]:
    """Literal unions-of-intersections membership for each stratum letter.

    Enumerates all pairs/triples/quadruples of roots with integer inner
    product and asks for an independent combination of each size.
    """
    hits = integral_hits(v)
    levels = {"M": bool(hits), "P": False, "L": False, "D": False}
    for size, key in ((2, "P"), (3, "L"), (4, "D")):
        levels[key] = any(independent(list(combo))
                          for combo in itertools.combinations(hits, size))
    return levels


# the stratum letter of each rank of the integral root span
STRATUM_BY_RANK = ("generic", "M", "P", "L", "D")


def brute_force_stratum(v) -> str:
    levels = brute_force_levels(v)
    for key in ("D", "L", "P", "M"):
        if levels[key]:
            return key
    return "generic"


# --------------------------------------------------------------------------
# Seeded random parameter generators.
# --------------------------------------------------------------------------

def rational_coord(rng: random.Random) -> ComplexRational:
    """Mixed draw: integers, half-integers and small fractions."""
    den = rng.choice([1, 1, 1, 2, 2, 3, 4, 5, 7])
    return ComplexRational(Fraction(rng.randint(-6, 6), den))


def p6_sample(rng: random.Random) -> tuple[ComplexRational, ...]:
    return tuple(rational_coord(rng) for _ in range(4))


def large_part(rng: random.Random) -> Fraction:
    """A real part over a large denominator, one of three pairwise coprime
    ones, with a numerator of either sign."""
    return Fraction(rng.randint(-10**40, 10**40), rng.choice((10**30 + 57, 2**61 - 1, 3**41)))


def p6_tangled_sample(rng: random.Random, real_part=None) -> tuple:
    """Coordinates that land on many root hyperplanes at once: non-real
    Gaussian rationals, ``generic`` tags, and copies, negations and integer
    shifts of earlier coordinates.  A fresh coordinate's real part comes from
    ``real_part(rng)``, by default a ``rational_coord``."""
    out = []
    for _ in range(4):
        draw = rng.random()
        if draw < 0.15:
            out.append(SpecialValue.GENERIC)
        elif out and draw < 0.6:
            c = rng.choice(out)
            if not isinstance(c, SpecialValue):
                c = (rng.choice((1, -1)) * qi(c) + rng.randint(-2, 2)).exact()
            out.append(c)
        else:
            im = Fraction(rng.randint(-2, 2), rng.choice([1, 2, 3]))
            re_part = qi(rational_coord(rng)).re if real_part is None else real_part(rng)
            out.append(ComplexRational(re_part, im if rng.random() < 0.4 else Fraction(0)))
    return tuple(out)


def p3_sample(rng: random.Random) -> tuple[ComplexRational, ...]:
    return tuple(rational_coord(rng) for _ in range(2))


def p4_sum_zero_sample(rng: random.Random) -> tuple[ComplexRational, ...]:
    a = rational_coord(rng)
    b = rational_coord(rng)
    return (a, b, (-(qi(a) + b)).exact())


# --------------------------------------------------------------------------
# Coset tables of the second to fifth families and the planar field, decided
# part by part: each condition is "sum of w_i * v_i lies in offset + step*Z".
# --------------------------------------------------------------------------

Z, TWO_Z, HALF_Z = (0, 1), (0, 2), (Fraction(1, 2), 1)


def combo_in(v, weights, offset, step) -> bool:
    """The imaginary parts of sum w_i*v_i cancel and (re - offset)/step is
    an integer; a tagged coordinate with nonzero weight never lies in it."""
    if any(w and isinstance(c, SpecialValue) for c, w in zip(v, weights)):
        return False
    total = sum((w * qi(c) for c, w in zip(v, weights) if w), QI())
    return total.im == 0 and Fraction(total.re - offset, step).denominator == 1


def coset_stratum(family: str, v) -> str:
    """The stratum name the cited tables give to v (second to fifth family)."""
    if family == "p2":
        return "half_plus_integer" if combo_in(v, (1,), *HALF_Z) else "outside_paper_scope"
    if family == "p3":
        even_sum = combo_in(v, (1, 1), *TWO_Z)
        if even_sum and combo_in(v, (1, 0), *Z) and combo_in(v, (0, 1), *Z):
            return "D1"
        return "W1_minus_D1" if even_sum or combo_in(v, (1, -1), *TWO_Z) else "generic"
    n = len(v)
    hits = [combo_in(v, [(k == i) - (k == j) for k in range(n)], *Z)
            for i, j in itertools.combinations(range(n), 2)]
    if family == "p4":
        return "D" if all(hits) else "W_minus_D" if any(hits) else "generic"
    if family == "p5":
        return "W" if any(hits) else "generic"
    raise ValueError(f"no coset table for {family}")


def xc_report(c):
    """(c_kind, fiber Morley rank) of the planar field's fiber at c; the rank
    is None where the cited results do not cover it, and a non-real c is
    "constraint"."""
    if isinstance(c, SpecialValue):
        return ("non_rational_constant", 1)
    c = qi(c)
    if c.im != 0:
        return "constraint"
    return ("rational", None if c.re == -1 else 2)


def coset_coord(rng: random.Random, earlier):
    """A tag, a shifted copy or negation of an earlier coordinate (by an
    integer or a half-integer), a large-denominator or large rational, or
    a small Gaussian rational."""
    draw = rng.random()
    if draw < 0.1:
        return rng.choice(tuple(SpecialValue))
    concrete = [c for c in earlier if not isinstance(c, SpecialValue)]
    if concrete and draw < 0.5:
        shift = Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2)))
        return (rng.choice((1, -1)) * qi(rng.choice(concrete)) + shift).exact()
    if draw < 0.65:
        den = rng.choice((2, 10**6 + 3, 2**31 - 1, 10**12))
        return ComplexRational(Fraction(rng.randint(-10**15, 10**15), den))
    im = Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) if rng.random() < 0.3 else Fraction(0)
    return ComplexRational(qi(rational_coord(rng)).re, im)


def coset_sample(rng: random.Random, n: int, sum_zero: bool = False) -> tuple:
    out = []
    for _ in range(n):
        out.append(coset_coord(rng, out))
    if sum_zero and not any(isinstance(c, SpecialValue) for c in out):
        out[-1] = (-sum(out[:-1], QI())).exact()
    return tuple(out)


# --------------------------------------------------------------------------
# The p2, p4 and p5 right sides written out, as the package shipped them
# before it derived them from one Hamiltonian per family.
# --------------------------------------------------------------------------

HAMILTONIAN_FIELDS = {
    Family.PII: ("y1", "2*y^3 + t*y + a"),
    Family.PIV: ("2*p*q - q^2 - 2*t*q + 2*(v1 - v2)",
                 "2*p*q - p^2 + 2*t*p + 2*(v1 - v3)"),
    Family.PV: ("(2*q^2*p - 2*q*p + t*q^2 - t*q + (v1 - v2 - v3 + v4)*q + v2 - v1)/t",
                "(-2*q*p^2 + p^2 - 2*t*p*q + t*p - (v1 - v2 - v3 + v4)*p + (v3 - v1)*t)/t"),
}


# --------------------------------------------------------------------------
# Graded-lex order of monomials, given as tuples of (variable, exponent).
# --------------------------------------------------------------------------

def variable_rank(v) -> tuple:
    """Non-differential variables (t and parameters) come first, by name;
    differential variables follow, by name and then by derivative order."""
    if v.differential:
        return (1, v.name, v.order)
    return (0, v.name, 0)


def grlex_cmp(a, b) -> int:
    """-1, 0 or 1 as monomial a is below, equal to or above monomial b.

    Each monomial becomes its total degree followed by its exponent of every
    variable either one involves, in rank order; the larger list is the
    higher monomial.
    """
    variables = sorted({v for m in (a, b) for v, _ in m}, key=variable_rank)

    def vector(m):
        exps = dict(m)
        row = [exps.get(v, 0) for v in variables]
        return [sum(row)] + row

    va, vb = vector(a), vector(b)
    return (va > vb) - (va < vb)


# --------------------------------------------------------------------------
# Exact division, and the gcd by the primitive PRS over Z (Knuth, TAOCP 2,
# 4.6.1).
# --------------------------------------------------------------------------

def exact_div(f: Polynomial, g: Polynomial) -> Polynomial:
    """The exact quotient f / g by long division over Q, its terms highest
    first; over a constant, f's terms scaled in f's order, and f itself over
    1.  Raises ValueError when g does not divide f."""
    if g.is_zero():
        raise DivisionByZeroExpression("exact division by zero polynomial")
    if not g.variables():
        d = g.terms[()]
        return f if d == 1 else Polynomial({m: Fraction(c) / d for m, c in f.terms.items()})
    quot: dict = {}
    rem = f
    gm, gc = g.leading()
    while not rem.is_zero():
        rm, rc = rem.leading()
        exps = dict(rm)
        for v, e in gm:
            exps[v] = exps.get(v, 0) - e
        if min(exps.values()) < 0:
            raise ValueError("exact_div: divisor does not divide dividend")
        m = tuple((v, e) for v, e in sorted(exps.items()) if e)
        quot[m] = Fraction(rc) / gc
        rem = rem - Polynomial({m: quot[m]}) * g
    return Polynomial(quot)


def prs_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """The monic greatest common divisor of f and g: the primitive PRS over
    Z on the two with their denominators cleared and their monomial contents
    divided out, in the shared variable of least combined degree, with the
    contents taken recursively; times the two monomial contents' gcd.  (With
    monomials in four variables left in, the content recursion can run for
    minutes.)"""
    if f.is_zero() or g.is_zero():
        h = f + g
        return h if h.is_zero() else exact_div(h, Polynomial.constant(h.leading_coeff()))
    if not (f.variables() and g.variables()):
        return Polynomial.constant(1)
    (f, low_f), (g, low_g) = _over_monomial(f), _over_monomial(g)
    h = _zgcd(_cleared(f), _cleared(g)) * Polynomial(
        {tuple((v, e) for v in sorted(low_f) if (e := min(low_f[v], low_g.get(v, 0)))): 1})
    return exact_div(h, Polynomial.constant(h.leading_coeff()))


def _over_monomial(p: Polynomial) -> tuple:
    """p over its monomial content, and that content as {variable: exponent}."""
    low = {v: min(dict(m).get(v, 0) for m in p.terms) for v in p.variables()}
    return Polynomial({tuple((v, e - low[v]) for v, e in m if e > low[v]): c
                       for m, c in p.terms.items()}), low


def _cleared(p: Polynomial) -> Polynomial:
    lcm = math.lcm(*(Fraction(c).denominator for c in p.terms.values()))
    return Polynomial({m: int(c * lcm) for m, c in p.terms.items()})


def _univariate(p: Polynomial, var) -> dict:
    """p as {exponent of var: coefficient polynomial without var}."""
    out: dict = {}
    for m, c in p.terms.items():
        out.setdefault(dict(m).get(var, 0), {})[tuple(x for x in m if x[0] != var)] = c
    return {e: Polynomial(terms) for e, terms in out.items()}


def _multivariate(var, coeffs: dict) -> Polynomial:
    return Polynomial({tuple(sorted(m + (((var, e),) if e else ()))): c
                       for e, p in coeffs.items() for m, c in p.terms.items()})


def _prem(u: dict, v: dict) -> dict:
    """The pseudo-remainder of u by v, both {exponent: coefficient}."""
    dv = max(v)
    r = dict(u)
    while r and max(r) >= dv:
        dr = max(r)
        lr = r[dr]
        new = {e: c * v[dv] for e, c in r.items()}
        for e, c in v.items():
            new[e + dr - dv] = new.get(e + dr - dv, Polynomial()) - lr * c
        r = {e: c for e, c in new.items() if not c.is_zero()}
    return r


def _primitive(uni: dict) -> tuple:
    """Content over Z (a gcd of the coefficients) and primitive part."""
    content = functools.reduce(_zgcd, uni.values())
    return content, {e: exact_div(c, content) for e, c in uni.items()}


def _zgcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """A gcd in Z[vars] of nonzero f and g with integer coefficients."""
    common = f.variables() & g.variables()
    if not common:
        return Polynomial.constant(math.gcd(*f.terms.values(), *g.terms.values()))
    if len(f.terms) == 1 or len(g.terms) == 1:
        # a term's divisors are terms: the coefficients' gcd times least powers
        monos = [dict(m) for m in (*f.terms, *g.terms)]
        least = ((v, min(m.get(v, 0) for m in monos)) for v in sorted(common))
        return Polynomial({tuple((v, e) for v, e in least if e):
                           math.gcd(*f.terms.values(), *g.terms.values())})
    var = min(common, key=lambda v: (f.degree_in(v) + g.degree_in(v), v))
    cont_f, u = _primitive(_univariate(f, var))
    cont_g, v = _primitive(_univariate(g, var))
    c = _zgcd(cont_f, cont_g)
    if max(u) < max(v):
        u, v = v, u
    while True:
        r = _prem(u, v)
        if not r:
            return c * _multivariate(var, v)
        if max(r) == 0:
            return c
        u, v = v, _primitive(r)[1]


# --------------------------------------------------------------------------
# Float evaluation of rational functions, term by term.
# --------------------------------------------------------------------------

def evaluate_terms(rhs, variables, state, t) -> list:
    """Each rational function of ``rhs`` at (state, t), in floats.

    A polynomial is 0.0 plus its terms in dict order; a term is its
    coefficient as a float, multiplied by ``base ** exp`` for each of its
    factors in turn; each quotient is taken after its numerator and
    denominator, one function after the other.
    """
    index = {Var(True, name): i for i, name in enumerate(variables)}

    def poly(p):
        total = 0.0
        for mono, coeff in p.terms.items():
            c = float(coeff)
            for var, exp in mono:
                c *= (t if var == T else state[index[var]]) ** exp
            total += c
        return total
    return [poly(f.num) / poly(f.den) for f in rhs]


def random_polynomial(rng: random.Random, pool, n_terms: int) -> Polynomial:
    """Up to ``n_terms`` terms over the variables in ``pool``, exponents 1-5;
    coefficients are small integers or fractions of either sign, or now and
    then a large one that still fits a float."""
    terms = {}
    for _ in range(n_terms):
        chosen = sorted(rng.sample(pool, rng.randint(0, len(pool))), key=variable_rank)
        draw = rng.random()
        if draw < 0.5:
            coeff = rng.choice((-1, 1)) * rng.randint(1, 9)
        elif draw < 0.9:
            coeff = Fraction(rng.randint(-50, 50), rng.randint(2, 12))
        else:
            coeff = Fraction(rng.randint(1, 9) * 10 ** rng.randint(20, 300), rng.randint(1, 7))
        terms[tuple((v, rng.randint(1, 5)) for v in chosen)] = coeff
    return Polynomial(terms)


def raw_quotient(num: Polynomial, den: Polynomial) -> RationalFunction:
    """num/den as given, not reduced: a random pair's gcd can take minutes,
    and an evaluator reads only the two polynomials' terms."""
    f = RationalFunction.__new__(RationalFunction)
    object.__setattr__(f, "num", num)
    object.__setattr__(f, "den", den)
    return f


def random_field_case(rng: random.Random):
    """``(rhs, variables, points)``: one to three rational functions in t and
    one to three state variables, with points (state, t) to evaluate them at.

    The terms are in the order they were drawn, not graded-lex.  Some
    numerators are zero; some denominators are ``v - a`` for a state
    variable or t that a point sets to exactly ``a``; some points hold signed
    zeros, and some states large enough that a power overflows.
    """
    variables = ("x", "y", "z")[:rng.randint(1, 3)]
    pool = [T, *(Var(True, v) for v in variables)]
    roots = {v: Fraction(rng.randint(-8, 8), 4) for v in pool}
    rhs = []
    for _ in range(rng.randint(1, 3)):
        num = Polynomial() if rng.random() < 0.1 else \
            random_polynomial(rng, pool, rng.randint(1, 5))
        draw = rng.random()
        if draw < 0.3:
            den = Polynomial({(): 1})
        elif draw < 0.5:
            v = rng.choice(pool)
            den = Polynomial({((v, 1),): 1, (): -roots[v]})
        else:
            den = random_polynomial(rng, pool, rng.randint(1, 3))
            if den.is_zero():
                den = Polynomial({(): 1})
        rhs.append(raw_quotient(num, den))
    points = []
    for _ in range(3):
        values = []
        for v in pool:
            draw = rng.random()
            if draw < 0.2:
                values.append(float(roots[v]))
            elif draw < 0.3:
                values.append(rng.choice((0.0, -0.0)))
            elif draw < 0.34:
                values.append(rng.choice((-1, 1)) * 10.0 ** rng.randint(60, 300))
            else:
                values.append(rng.uniform(-3, 3))
        points.append((tuple(values[1:]), values[0]))
    return tuple(rhs), variables, points


# --------------------------------------------------------------------------
# Substitution term by term, by rational products and sums.
# --------------------------------------------------------------------------

def substitute(f: RationalFunction, mapping) -> RationalFunction:
    """f with the mapping's variables replaced at once by exact values or
    rational functions: each term of numerator and denominator is rebuilt as
    a product of rational powers, and the terms are summed."""
    def value(var) -> RationalFunction:
        if var not in mapping:
            return RationalFunction.variable(var)
        v = mapping[var]
        return v if isinstance(v, RationalFunction) else RationalFunction(Polynomial.constant(v))

    def compose(p: Polynomial) -> RationalFunction:
        total = RationalFunction(Polynomial())
        for mono, c in p.terms.items():
            term = RationalFunction(Polynomial.constant(c))
            for var, e in mono:
                term = term * value(var) ** e
            total = total + term
        return total
    den = compose(f.den)
    if den.is_zero():
        raise DivisionByZeroExpression("the denominator vanishes")
    return compose(f.num) / den


def random_substitution_case(rng: random.Random):
    """``(f, mapping)``: f a quotient of small polynomials in t, x and y; the
    mapping sends one or two of x, y and z (z never occurs in f) to exact
    values (0, negative, non-integer) or to quotients with nonconstant
    denominators.  About one case in eight makes f's denominator vanish: it
    is  d*v - n  and the mapping sends v to n/d.  The polynomials stay
    small, since a gcd of larger ones in three variables can take minutes."""
    x, y, z = Var(True, "x"), Var(True, "y"), Var(True, "z")
    pool = [T, x, y]

    def small(variables, n_terms) -> Polynomial:
        terms = {}
        for _ in range(n_terms):
            chosen = sorted(rng.sample(variables, rng.randint(0, len(variables))),
                            key=variable_rank)
            terms[tuple((v, rng.randint(1, 2)) for v in chosen)] = Fraction(
                rng.choice((-1, 1)) * rng.randint(1, 6), rng.choice((1, 1, 2, 3)))
        return Polynomial(terms)

    def nonconstant(variables) -> Polynomial:
        while not (p := small(variables, rng.randint(1, 2))).variables():
            pass
        return p

    def value(variables):
        draw = rng.random()
        if draw < 0.1:
            return 0
        if draw < 0.4:
            return Fraction(rng.randint(-7, 7), rng.randint(1, 4))
        return RationalFunction(small(variables, rng.randint(1, 2)), nonconstant(variables))

    chosen = rng.sample([x, y, z], rng.randint(1, 2))
    mapping = {v: value(rng.sample(pool, 2)) for v in chosen}
    num = small(pool, rng.randint(1, 3))
    if rng.random() < 0.125 and chosen[0] != z:
        v = chosen[0]
        mapping[v] = value([w for w in pool if w not in chosen])
        target = mapping[v] if isinstance(mapping[v], RationalFunction) else RationalFunction(
            Polynomial.constant(mapping[v]))
        den = target.den * Polynomial.variable(v) - target.num
    else:
        den = nonconstant(pool) if rng.random() < 0.7 else Polynomial.constant(1)
    return RationalFunction(num, den), mapping


# --------------------------------------------------------------------------
# The curve check in two steps: raise the primes, then eliminate y'.
# --------------------------------------------------------------------------

def partial(f: RationalFunction, var) -> RationalFunction:
    """The textbook quotient rule: (n'd - nd')/d^2 for f = n/d, with the
    derivatives taken in ``var``, reduced by one gcd against d^2."""
    n, d = f.num, f.den
    return RationalFunction(n.partial(var) * d - n * d.partial(var), d * d)


def raised_derivative(f: RationalFunction) -> RationalFunction:
    """The total derivative of f with each differential variable's prime
    raised (v -> v'), t' = 1 and parameters constant."""
    out = RationalFunction(Polynomial())
    for v in f.variables():
        if v.differential:
            out = out + partial(f, v) * RationalFunction.variable(
                Var(True, v.name, v.order + 1))
        elif v == T:
            out = out + partial(f, v)
    return out


def subvariety_residual(variable: str, rhs: RationalFunction,
                        target: RationalFunction) -> RationalFunction:
    """v'' - target on the curve v' = rhs: the raised derivative of rhs and
    the target, each with v' replaced by rhs."""
    on_curve = {Var(True, variable, 1): rhs}
    return substitute(raised_derivative(rhs), on_curve) - substitute(target, on_curve)


def random_curve_case(rng: random.Random):
    """``(rhs, target)``: a curve right side and a target in y, t and a
    parameter a.  The target is P0 + P1*y' + P2*y'^2 for random polynomials
    P_k, the shape of the Painleve targets, with y' in it about half the
    time.  Each is a polynomial or, about a third of the time, one over a
    polynomial of one to three terms, which for the target may hold y'."""
    pool = [T, Var(False, "a"), Var(True, "y")]
    y1 = RationalFunction.variable(Var(True, "y", 1))

    def over(f: RationalFunction, variables) -> RationalFunction:
        den = random_polynomial(rng, variables, rng.randint(1, 3)) \
            if rng.random() < 0.35 else Polynomial()
        return f / RationalFunction(den) if den.terms else f

    rhs = over(RationalFunction(random_polynomial(rng, pool, rng.randint(1, 3))), pool)
    target = RationalFunction(Polynomial())
    for k in range(rng.randint(1, 2) + 1 if rng.random() < 0.5 else 1):
        target = target + RationalFunction(random_polynomial(rng, pool, rng.randint(1, 2))) * y1 ** k
    return rhs, over(target, pool + [Var(True, "y", 1)])


# --------------------------------------------------------------------------
# Dormand-Prince 5(4), one plain loop (Dormand and Prince, J. Comput. Appl.
# Math. 6, 1980; Hairer, Norsett and Wanner, Solving ODEs I, Table II.5.2).
# --------------------------------------------------------------------------

DP_C = (0, Fraction(1, 5), Fraction(3, 10), Fraction(4, 5), Fraction(8, 9), 1, 1)
DP_A = (
    (),
    (Fraction(1, 5),),
    (Fraction(3, 40), Fraction(9, 40)),
    (Fraction(44, 45), Fraction(-56, 15), Fraction(32, 9)),
    (Fraction(19372, 6561), Fraction(-25360, 2187), Fraction(64448, 6561),
     Fraction(-212, 729)),
    (Fraction(9017, 3168), Fraction(-355, 33), Fraction(46732, 5247),
     Fraction(49, 176), Fraction(-5103, 18656)),
    (Fraction(35, 384), 0, Fraction(500, 1113), Fraction(125, 192),
     Fraction(-2187, 6784), Fraction(11, 84)),
)
DP_B4 = (Fraction(5179, 57600), 0, Fraction(7571, 16695), Fraction(393, 640),
         Fraction(-92097, 339200), Fraction(187, 2100), Fraction(1, 40))


def dormand_prince(field, t0, t1, y0, rel_tol, abs_tol, threshold, counts=None):
    """``(samples, events, error_estimate)`` of the adaptive integration of
    ``y' = field(y, t)`` from ``(t0, y0)`` to ``t1``; an event is a
    ``(kind, t)`` pair.  ``field`` may raise ``ZeroDivisionError`` or
    ``OverflowError`` at the initial state, which propagates, and a field
    that is not finite there raises ``ZeroDivisionError``.

    Every stage is evaluated afresh from the tableau above; the seventh
    stage f(t+h, y5) of an accepted step is reused as the next first stage.
    Each component of a stage state and of y4 is ``y + h * acc``, where
    ``acc`` starts at 0.0 and adds every product of the row, zero weights
    included, left to right: plain IEEE additions in a fixed order, which
    round the same on every Python.
    A stage state that is not finite, a field that raises or is not finite
    at a stage, and a y4 that is not finite each fail the step, which
    halves h; below ``1e-13 * (t1 - t0)`` that ends the integration with a
    BlowUp at t, preceded by a PoleProximity when the field had a pole (it
    divided by zero or was not finite) at a state below the threshold.
    Otherwise the step is accepted when its scaled error is at most 1, and
    h is scaled by
    ``0.9 * err ** -0.2`` clipped to [0.2, 5] (5 when err is 0); a
    rejection that takes h below the bound ends the integration the same
    way, with a PoleProximity whenever the state is below the threshold.  A
    state at or above the threshold ends it with a BlowUp at the new t, and
    a step too small to move t ends it with a BlowUp at t.  However it
    ends, the error estimate is the sum of the accepted steps' max|y5 - y4|.

    ``counts``, a dict, tallies each step's outcome: "accepted",
    "rejected", "y4 not finite", "stage overflow", "vanishing denominator",
    "power overflow" or "field not finite".
    """
    a = [[float(x) for x in row] for row in DP_A]
    b4 = [float(x) for x in DP_B4]
    c = [float(x) for x in DP_C]
    n = len(y0)
    counts = {} if counts is None else counts

    def finite(values):
        return all(math.isfinite(v) for v in values)

    def row(weights, ks, i):
        acc = 0.0
        for w, k in zip(weights, ks):
            acc += w * k[i]
        return acc

    t, y = t0, tuple(y0)
    k1 = list(field(y, t))
    if not finite(k1):
        raise ZeroDivisionError("the field is not finite at the initial state")
    h_min = 1e-13 * (t1 - t0)
    h = (t1 - t0) / 100.0
    samples, events, error = [(t, y)], [], 0.0
    while t < t1:
        h = min(h, t1 - t)
        if t + h == t:
            events.append(("BlowUp", t))
            break
        ks, failure = [k1], None
        for s in range(1, 7):
            ys = [y[i] + h * row(a[s], ks, i) for i in range(n)]
            if not finite(ys):
                failure = "stage overflow"
                break
            try:
                out = list(field(ys, t + c[s] * h))
            except ZeroDivisionError:
                failure = "vanishing denominator"
                break
            except OverflowError:
                failure = "power overflow"
                break
            if not finite(out):
                failure = "field not finite"
                break
            ks.append(out)
        else:
            y5 = ys
            y4 = [y[i] + h * row(b4, ks, i) for i in range(n)]
            if not finite(y4):
                failure = "y4 not finite"
        if failure is not None:
            counts[failure] = counts.get(failure, 0) + 1
            h *= 0.5
            if h < h_min:
                pole = failure in ("vanishing denominator", "field not finite")
                if pole and max(abs(v) for v in y) < threshold:
                    events.append(("PoleProximity", t))
                events.append(("BlowUp", t))
                break
            continue
        err = max(abs(y5[i] - y4[i]) / (abs_tol + rel_tol * max(abs(y[i]), abs(y5[i])))
                  for i in range(n))
        if err <= 1.0:
            counts["accepted"] = counts.get("accepted", 0) + 1
            t += h
            y, k1 = tuple(y5), ks[6]
            samples.append((t, y))
            error += max(abs(y5[i] - y4[i]) for i in range(n))
            if max(abs(v) for v in y) >= threshold:
                events.append(("BlowUp", t))
                break
            h *= 5.0 if err == 0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
        else:
            counts["rejected"] = counts.get("rejected", 0) + 1
            h *= max(0.2, 0.9 * err ** -0.2)
            if h < h_min:
                if max(abs(v) for v in y) < threshold:
                    events.append(("PoleProximity", t))
                events.append(("BlowUp", t))
                break
    return samples, events, error


def random_ivp_case(rng: random.Random):
    """``(rhs, variables, t0, t1, init, tol, threshold)``: a seeded curve
    y' = f(t, y) or plane system, its window, initial state, tolerance and
    blow-up threshold.

    A numerator is up to three terms of degree at most three in small
    coefficients, so that trajectories are not stiff; one in twenty also
    has a constant too large for a stage state to stay finite.  About half
    of the right sides have a denominator: 1 written out, ``t - a`` with
    ``a`` the time of the first step's last stage (it vanishes there
    exactly) or a time in the window, or, for the second component of a
    plane system whose first has none, ``x - a``.  A denominator never
    involves its own component, so a trajectory crosses a pole rather than
    creeping towards a fold, where the step size stalls above its lower
    bound.
    """
    variables = ("y",) if rng.random() < 0.5 else ("x", "y")
    states = [Var(True, v) for v in variables]
    pool = [T, *states]
    t0 = float(rng.randint(-1, 1))
    window = rng.choice((0.25, 0.5, 1.0))
    init = tuple(round(rng.uniform(-1.0, 1.0), 3) for _ in variables)
    rhs = []
    for i, _ in enumerate(variables):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            chosen = sorted(rng.sample(pool, rng.randint(0, 2)), key=variable_rank)
            mono = tuple((v, rng.randint(1, 3 - len(chosen))) for v in chosen)
            terms[mono] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 2))
        if rng.random() < 0.05:
            terms[()] = rng.randint(1, 17) * 10 ** 307
        draw = rng.random()
        if draw < 0.5:
            den = Polynomial({(): 1})
        elif draw < 0.65:
            den = Polynomial({((T, 1),): 1, (): -Fraction(t0 + window / 100.0)})
        elif draw < 0.8:
            a = Fraction(t0) + Fraction(rng.randint(1, 7), 8) * Fraction(window)
            den = Polynomial({((T, 1),): 1, (): -a})
        elif i == 1 and rhs[0].den.is_one():
            a = Fraction(init[0]) + Fraction(rng.choice((-1, 1)), rng.randint(2, 8))
            den = Polynomial({((states[0], 1),): 1, (): -a})
        else:
            den = Polynomial({(): 1})
        rhs.append(raw_quotient(Polynomial(terms), den))
    tol = rng.choice((1e-6, 1e-8, 1e-10))
    threshold = rng.choice((1e3, 1e8))
    return tuple(rhs), variables, t0, t0 + window, init, tol, threshold


# --------------------------------------------------------------------------
# The p3/p4 parameter groups on Q(i) values: each generator builds new
# ComplexRationals, the region walls are read through (Re, Im) pairs of
# Fractions, and the greedy descent and the breadth-first orbit search are
# written as they were before the package moved to integer coordinates over
# a common denominator.
# --------------------------------------------------------------------------

_THIRD = QI(Fraction(1, 3))
_TM_SHIFT = (-_THIRD, -_THIRD, 2 * _THIRD)


def fraction_generator(g, v: tuple) -> tuple:
    """The affine image of v under one generator, in ``QI`` arithmetic."""
    v = tuple(map(qi, v))
    if isinstance(g, P3Generator):
        v1, v2 = v
        if g is P3Generator.S1:
            return (v2, v1)
        if g is P3Generator.S2:
            return (-v2, -v1)
        if g is P3Generator.S3:
            return (v2 + 1, v1 - 1)
        return (-v2 + 1, -v1 + 1)
    if g is P4Generator.S1:
        return (v[1], v[0], v[2])
    if g is P4Generator.S2:
        return (v[2], v[1], v[0])
    if g is P4Generator.TMINUS:
        return tuple(c + s for c, s in zip(v, _TM_SHIFT))
    # s0 is the composite tminus^-1 s1 s2 s1 tminus (rightmost acts first)
    v1, v2, v3 = v
    return (v1, v3 + 1, v2 - 1)


def exact(v: tuple) -> tuple:
    """A vector of Q(i) values as the package's values."""
    return tuple(qi(c).exact() for c in v)


def fraction_word(word: GroupWord, v: tuple) -> tuple:
    v = tuple(v)
    for g in word.generators:
        v = fraction_generator(g, v)
    return exact(v)


_LEX_ZERO = (Fraction(0), Fraction(0))
_WALL_GENERATOR = (P4Generator.S1, P4Generator.S2, P4Generator.S0)


def _lex_key(w: QI) -> tuple:
    return (w.re, w.im)


def _wall_values(v: tuple) -> tuple:
    v1, v2, v3 = map(qi, v)
    return (v2 - v1, v1 - v3, v3 - v2 + 1)


def _require_sum_zero(v: tuple):
    if sum(v, QI()):
        raise ConstraintError("parameter vector must lie on the sum-zero plane")


def in_region_p4(v: tuple) -> bool:
    return all(_lex_key(w) >= _LEX_ZERO for w in _wall_values(v))


def greedy_reduce_p4(v: tuple, max_steps: int = 200) -> tuple:
    """Greedy wall-crossing descent: cross the first violated wall, in the
    order v2-v1, v1-v3, v3-v2+1, until none is."""
    if not 1 <= max_steps <= MAX_REDUCTION_STEPS:
        raise ConstraintError(f"max_steps must be between 1 and "
                              f"{MAX_REDUCTION_STEPS}, got {max_steps}")
    v = tuple(v)
    _require_sum_zero(v)
    word = []
    current = v
    for _ in range(max_steps):
        walls = _wall_values(current)
        violated = next((i for i, w in enumerate(walls)
                         if _lex_key(w) < _LEX_ZERO), None)
        if violated is None:
            return exact(current), GroupWord(Family.PIV, tuple(word))
        g = _WALL_GENERATOR[violated]
        word.append(g)
        current = fraction_generator(g, current)
    if in_region_p4(current):
        return exact(current), GroupWord(Family.PIV, tuple(word))
    raise BudgetExceededError(GroupWord(Family.PIV, tuple(word)))


def orbit_bfs(a: tuple, b: tuple, family: Family, max_word_length: int):
    """Breadth-first search over words, generators in their enum order; the
    first word found to reach b, or Unknown at the length bound."""
    if not 0 <= max_word_length <= MAX_WORD_LENGTH:
        raise ConstraintError(f"the maximum word length must be between 0 and "
                              f"{MAX_WORD_LENGTH}, got {max_word_length}")
    a, b = tuple(map(qi, a)), tuple(map(qi, b))
    if family is Family.PIV:
        _require_sum_zero(a)
        _require_sum_zero(b)
    gens = (tuple(P3Generator) if family is Family.PIII
            else (P4Generator.S0, P4Generator.S1, P4Generator.S2))
    if a == b:
        return Related(GroupWord(family))
    frontier = {a: ()}
    seen = {a}
    for _ in range(max_word_length):
        nxt = {}
        for value, path in frontier.items():
            for g in gens:
                image = fraction_generator(g, value)
                if image in seen:
                    continue
                word = path + (g,)
                if image == b:
                    return Related(GroupWord(family, word))
                seen.add(image)
                nxt[image] = word
        frontier = nxt
        if not frontier:
            break
    return Unknown()


# --------------------------------------------------------------------------
# The wire layer on Fraction parts: the parser, the printer and the p4/p5
# sum-zero check, as they were written before the package stored each part
# as reduced integers.
# --------------------------------------------------------------------------

_RAT = r"[+-]?[0-9]+(?:/[0-9]+)?"
_FULL = re.compile(rf"^(?P<re>{_RAT})(?:(?P<sign>[+-])(?P<im>[0-9]+(?:/[0-9]+)?)i)?$")
_IMAG = re.compile(rf"^(?P<im>{_RAT})i$")


def _fraction_int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:
        raise ParameterParseError(
            f"integer of {len(digits)} digits is too long to parse") from None


def _fraction_rational(token: str) -> Fraction:
    if "/" in token:
        num, den = token.split("/", 1)
        if _fraction_int(den) == 0:
            raise ParameterParseError(f"zero denominator in {token!r}")
        return Fraction(_fraction_int(num), _fraction_int(den))
    return Fraction(_fraction_int(token))


def fraction_parse(text: str) -> tuple[Fraction, Fraction]:
    """The (Re, Im) parts of a wire token, or its ParameterParseError."""
    token = text.strip()
    if not token:
        raise ParameterParseError("empty parameter string")
    m = _IMAG.match(token)
    if m:
        return Fraction(0), _fraction_rational(m.group("im"))
    m = _FULL.match(token)
    if m is None:
        raise ParameterParseError(f"malformed parameter {token!r}")
    re_part = _fraction_rational(m.group("re"))
    if m.group("im") is None:
        return re_part, Fraction(0)
    im_part = _fraction_rational(m.group("im"))
    return re_part, -im_part if m.group("sign") == "-" else im_part


def fraction_format(re_part: Fraction, im_part: Fraction) -> str:
    if im_part == 0:
        return str(re_part)
    if re_part == 0:
        return f"{im_part}i"
    sign = "+" if im_part > 0 else "-"
    return f"{re_part}{sign}{abs(im_part)}i"


def fraction_sum_zero_error(family: Family, params) -> str | None:
    """The message of the p4/p5 sum-zero check, or None when it passes."""
    if any(isinstance(p, SpecialValue) for p in params):
        return None
    total = sum(params, QI())
    re_part, im_part = total.re, total.im
    if re_part or im_part:
        return (f"{family.value} parameters must sum to zero exactly "
                f"(got {fraction_format(re_part, im_part)})")
    return None
