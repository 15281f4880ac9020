"""Independent reference implementations used to pin expected values.

Everything here deliberately avoids the code paths it checks: the 24 roots
are enumerated here, inner products are summed part by part, stratum
membership is decided by enumerating root combinations with integer minors
(not by the package's signed-graph rank), the graded-lex term order is
decided on exponent vectors (not by the package's monomial key), and
rational functions are evaluated in floats term by term (not by the
package's generated code).  Random
parameter vectors come from seeded generators so frozen expectations stay
stable.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from painstrata.exactnum import ComplexRational
from painstrata.models import SpecialValue
from painstrata.ratfunc import Polynomial, RationalFunction, Var
from painstrata.symbolic import T

# the vectors with exactly two nonzero entries, each +-1
ROOTS = tuple(r for r in itertools.product((-1, 0, 1), repeat=4)
              if sum(map(abs, r)) == 2)


def root_inner(v, root):
    """Exact inner product; None when a tagged coordinate meets the root."""
    if any(r and isinstance(c, SpecialValue) for c, r in zip(v, root)):
        return None
    re = sum(r * c.re for c, r in zip(v, root) if r)
    im = sum(r * c.im for c, r in zip(v, root) if r)
    return ComplexRational(re, im)


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


def brute_force_levels(v) -> dict[str, bool]:
    """Literal unions-of-intersections membership for each stratum letter.

    Enumerates all pairs/triples/quadruples of roots with integer inner
    product and asks for an independent combination of each size.
    """
    hits = [r for r in ROOTS if integral(root_inner(v, r))]
    levels = {"M": bool(hits), "P": False, "L": False, "D": False}
    for size, key in ((2, "P"), (3, "L"), (4, "D")):
        levels[key] = any(independent(list(combo))
                          for combo in itertools.combinations(hits, size))
    return levels


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


def p6_tangled_sample(rng: random.Random) -> tuple:
    """Coordinates that land on many root hyperplanes at once: non-real
    Gaussian rationals, ``generic`` tags, and copies, negations and integer
    shifts of earlier coordinates."""
    out = []
    for _ in range(4):
        draw = rng.random()
        if draw < 0.15:
            out.append(SpecialValue.GENERIC)
        elif out and draw < 0.6:
            c = rng.choice(out)
            if not isinstance(c, SpecialValue):
                c = rng.choice((1, -1)) * c + rng.randint(-2, 2)
            out.append(c)
        else:
            im = Fraction(rng.randint(-2, 2), rng.choice([1, 2, 3]))
            out.append(ComplexRational(rational_coord(rng).re,
                                       im if rng.random() < 0.4 else Fraction(0)))
    return tuple(out)


def p3_sample(rng: random.Random) -> tuple[ComplexRational, ...]:
    return tuple(rational_coord(rng) for _ in range(2))


def p4_sum_zero_sample(rng: random.Random) -> tuple[ComplexRational, ...]:
    a = rational_coord(rng)
    b = rational_coord(rng)
    return (a, b, -(a + b))


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
    im = sum(w * c.im for c, w in zip(v, weights) if w)
    re = sum(w * c.re for c, w in zip(v, weights) if w)
    return im == 0 and Fraction(re - offset, step).denominator == 1


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
        return rng.choice((1, -1)) * rng.choice(concrete) + shift
    if draw < 0.65:
        den = rng.choice((2, 10**6 + 3, 2**31 - 1, 10**12))
        return ComplexRational(Fraction(rng.randint(-10**15, 10**15), den))
    im = Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) if rng.random() < 0.3 else Fraction(0)
    return ComplexRational(rational_coord(rng).re, im)


def coset_sample(rng: random.Random, n: int, sum_zero: bool = False) -> tuple:
    out = []
    for _ in range(n):
        out.append(coset_coord(rng, out))
    if sum_zero and not any(isinstance(c, SpecialValue) for c in out):
        out[-1] = -sum(out[:-1], ComplexRational())
    return tuple(out)


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
