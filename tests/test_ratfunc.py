"""Polynomial arithmetic, gcd and the canonical form of rational functions."""

import collections
import contextlib
import itertools
import random
import re
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from painstrata import ratfunc
from painstrata.ratfunc import (
    DivisionByZeroExpression,
    Polynomial,
    RationalFunction,
    Var,
    poly_gcd,
    poly_to_str,
)
from painstrata.symbolic import T, derive, quotient_of_partials, rf

VX, VY, VZ = (Var(True, name) for name in "xyz")
X, Y, Z = map(Polynomial.variable, (VX, VY, VZ))


def unit_field(var) -> dict:
    """The field whose derivation is the partial in ``var`` on x and y."""
    return {v: RationalFunction.constant(int(v == var)) for v in (VX, VY)}


def gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """The gcd, its cofactors checked against long division on the way."""
    h, f_h, g_h = poly_gcd(f, g)
    assert_cofactor(f, h, f_h)
    assert_cofactor(g, h, g_h)
    return h


def assert_cofactor(f: Polynomial, h: Polynomial, q: Polynomial):
    """q is f / h, and equals the oracle's long division term for term,
    coefficient types included."""
    assert h * q == f, (f, h, q)
    if not h.is_zero():
        expected = oracles.exact_div(f, h)
        assert {m: (c, type(c)) for m, c in q.terms.items()} == \
            {m: (c, type(c)) for m, c in expected.terms.items()}, (f, h)


def small_polys(rng: random.Random, nvars=2, nterms=3, max_deg=2) -> Polynomial:
    vars_ = [X, Y, Z][:nvars]
    p = Polynomial()
    for _ in range(rng.randint(1, nterms)):
        term = Polynomial.constant(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        for v in vars_:
            term = term * v ** rng.randint(0, max_deg)
        p = p + term
    return p


class TestPolynomial:
    def test_expansion(self):
        assert (X + Y) ** 2 == X ** 2 + 2 * X * Y + Y ** 2

    def test_power_squares_only_while_bits_remain(self, monkeypatch):
        p = X + 2 * Y
        expected = {0: Polynomial.constant(1), 1: p, 4: p * p * p * p}
        calls = []
        mul = Polynomial.__mul__
        monkeypatch.setattr(Polynomial, "__mul__", lambda a, b: calls.append(b) or mul(a, b))
        # one multiplication per bit, plus one squaring per bit after the first
        for k, muls in ((0, 0), (1, 1), (4, 3)):
            calls.clear()
            assert p ** k == expected[k]
            assert len(calls) == muls, k

    def test_zero_and_constants(self):
        assert (X - X).is_zero()
        assert Polynomial.constant(Fraction(3, 2)).terms == {(): Fraction(3, 2)}
        assert (X * 0).is_zero()

    def test_partial(self):
        p = X ** 3 * Y + 2 * X
        assert p.partial(VX) == 3 * X ** 2 * Y + Polynomial.constant(2)
        assert p.partial(VY) == X ** 3
        assert Polynomial.constant(5).partial(VX).is_zero()

    def test_evaluate(self):
        p = RationalFunction(X ** 2 + Y)
        assert p.substitute({VX: Fraction(1, 2), VY: 3}).num.terms == {(): Fraction(13, 4)}
        assert p.substitute({VX: 1}).num == Y + 1

    def test_substitute_values_partial(self):
        p = RationalFunction(X ** 2 * Y + X)
        q = p.substitute({VX: Fraction(2)})
        assert q.num == 4 * Y + Polynomial.constant(2) and q.den.is_one()

    def test_pow_rejects_negative(self):
        with pytest.raises(ValueError):
            X ** -1


# t, two parameters, and differential variables of several names and orders
MIXED = [Polynomial.variable(v) for v in
         (T, Var(False, "a"), Var(False, "b"), VX, VY, Var(True, "y", 1),
          Var(True, "y", 2), Var(True, "z", 1))]


def mixed_poly(rng: random.Random) -> Polynomial:
    """Up to six terms, each of up to three variables with exponents 1-3."""
    p = Polynomial()
    for _ in range(rng.randint(1, 6)):
        term = Polynomial.constant(Fraction(rng.choice((-3, -1, 1, 2, 5)),
                                            rng.randint(1, 3)))
        for v in rng.sample(MIXED, rng.randint(0, 3)):
            term = term * v ** rng.randint(1, 3)
        p = p + term
    return p


def printed_monomials(text: str) -> list[str]:
    """The factors of each printed term, in printed order, without signs or
    coefficients ('' for the constant term)."""
    pieces = text.split(" ")
    bodies = [pieces[0].lstrip("-")] + pieces[2::2]
    return [re.sub(r"^\d+(/\d+)?\*?", "", body) for body in bodies]


def factor_text(m) -> str:
    pairs = sorted(m, key=lambda p: oracles.variable_rank(p[0]))
    return "*".join(f"{v}^{e}" if e > 1 else f"{v}" for v, e in pairs)


class TestTermOrder:
    def test_leading_and_printer_follow_oracle(self):
        rng = random.Random(43)
        oracle_key = cmp_to_key(oracles.grlex_cmp)
        checked = 0
        while checked < 2000:
            p = mixed_poly(rng)
            if p.is_zero():
                continue
            expected = sorted(p.terms, key=oracle_key, reverse=True)
            assert p.leading()[0] == expected[0]
            assert printed_monomials(poly_to_str(p)) == [factor_text(m) for m in expected]
            checked += 1


class TestGcd:
    def test_shared_factor(self, monkeypatch):
        f = (X + Y) * (X - Y)
        g = (X + Y) * X
        assert gcd(f, g) == X + Y
        assert poly_gcd(f, g)[1:] == (X - Y, X)
        # the heuristic's first candidate, (x + 1)(y - 1) from xi = 4, does not
        # divide f; xi = 10 gives x + 1
        f, g = (X + 1) * (Y + 2), -3 * X * Y * (X + 1) * (Y - 1)
        assert gcd(f, g) == X + 1 == oracles.prs_gcd(f, g)
        # with one xi the heuristic gives up, and Brown's images give the
        # same gcd and cofactors
        pgcd, images = ratfunc._pgcd, []
        monkeypatch.setattr(ratfunc, "_pgcd", lambda *a: images.append(a) or pgcd(*a))
        default = poly_gcd(f, g)
        assert not images
        monkeypatch.setattr(ratfunc, "_HEU_TRIES", 1)
        assert poly_gcd(f, g) == default
        assert images

    def test_coprime(self):
        assert gcd(X + 1, Y + 1).is_one()
        assert gcd(X ** 2 + 1, X).is_one()
        # the heuristic's first xi, 4, is a root of y - 4: a zero image
        f, g = (Y - 4) * (X + 1), X ** 2 - Y ** 2
        assert gcd(f, g).is_one() and oracles.prs_gcd(f, g).is_one()

    def test_monic_output(self):
        f = (2 * X + 2 * Y) * X
        g = (2 * X + 2 * Y) * Y
        assert gcd(f, g) == X + Y
        assert poly_gcd(f, g)[1:] == (2 * X, 2 * Y)
        # primitive norms 10^30 and 1: xi = 4 follows the smaller
        f, g = (2 * X + 2 * Y) * (X + 10 ** 30), (2 * X + 2 * Y) * (X - 1)
        assert gcd(f, g) == X + Y == oracles.prs_gcd(f, g)

    def test_univariate(self):
        f = (X + 1) ** 2 * (X - 2)
        g = (X + 1) * (X + 3)
        assert gcd(f, g) == X + 1
        # xi = 10 has 4 bits, and 4 * 6,003 passes the heuristic's size limit
        f = (X + 1) ** 2 * (X ** 6000 + 2)
        assert gcd(f, g) == X + 1 == oracles.prs_gcd(f, g)

    def test_zero_arguments(self):
        # gcd(p, 0) is p made monic, with cofactors 0 and p's leading
        # coefficient; gcd(0, 0) is 0, with cofactors 0
        f = 2 * X * Y + Fraction(1, 3)
        zero, lc = Polynomial(), Polynomial.constant(2)
        assert poly_gcd(zero, f) == (X * Y + Fraction(1, 6), zero, lc)
        assert poly_gcd(f, zero) == (X * Y + Fraction(1, 6), lc, zero)
        assert poly_gcd(zero, zero) == (zero, zero, zero)
        assert gcd(zero, f) == gcd(f, zero)

    def test_trivial_gcd_returns_the_arguments(self):
        # no shared variable, or coprime: the given objects, not copies
        for f, g in ((X + 1, Y + 2), (Polynomial.constant(3), X), (X * Y + 1, X + Y),
                     (X ** 2 + Y, X - Y ** 3)):
            h, f_h, g_h = poly_gcd(f, g)
            assert h.is_one() and f_h is f and g_h is g

    def test_monomial_gcd(self):
        # an exponent shift of each argument
        f = Y ** 3 * X + 3 * X ** 2 * Y ** 2 + Fraction(1, 2) * X * Y
        g = 4 * X ** 3 * Y ** 2 + 6 * X ** 2 * Y ** 4
        assert gcd(f, g) == X * Y
        assert poly_gcd(f, g)[1:] == (Y ** 2 + 3 * X * Y + Fraction(1, 2),
                                      4 * X ** 2 * Y + 6 * X * Y ** 3)

    def test_one_term_argument_matches_the_oracle(self):
        # seeded 3-variable pairs, the one-term argument first or second
        rng = random.Random(35)
        checked = 0
        for _ in range(60):
            f = small_polys(rng, 3, nterms=5, max_deg=3)
            term = small_polys(rng, 3, nterms=1, max_deg=3)
            if f.is_zero() or term.is_zero():
                continue
            for a, b in ((f, term), (term, f)):
                h = gcd(a, b)
                z = oracles._zgcd(oracles._cleared(a), oracles._cleared(b))
                assert h == oracles.exact_div(z, Polynomial.constant(z.leading_coeff()))
                checked += 1
        assert checked > 80

    def test_one_term_cofactors_keep_term_order(self):
        # each cofactor is its argument's monomials shifted, in its order
        f = X * Y ** 2 * Z + 3 * X ** 4 * Y + Fraction(2, 3) * X ** 2 * Y ** 5
        term = 6 * X ** 2 * Y ** 3
        h, f_h, term_h = poly_gcd(f, term)
        assert h == X * Y
        assert list(f_h.terms) == [((VY, 1), (VZ, 1)), ((VX, 3),), ((VX, 1), (VY, 4))]
        assert list(term_h.terms) == [((VX, 1), (VY, 2))]
        h, term_h, f_h = poly_gcd(term, f)
        assert h == X * Y and list(f_h.terms)[0] == ((VY, 1), (VZ, 1))
        assert_cofactor(f, h, f_h)
        assert_cofactor(term, h, term_h)

    def test_exact_div_roundtrip(self):
        rng = random.Random(7)
        for _ in range(25):
            f = small_polys(rng)
            g = small_polys(rng)
            if g.is_zero():
                continue
            assert oracles.exact_div(f * g, g) == f
            h, fg_h, g_h = poly_gcd(f * g, g)
            assert fg_h == f * g_h and h * g_h == g
            gcd(f * g, g)

    def test_random_common_factor(self):
        rng = random.Random(11)
        for _ in range(25):
            p, q, r = (small_polys(rng) for _ in range(3))
            if not r.variables():
                continue
            g = gcd(p * r, q * r)
            if (p * r).is_zero() or (q * r).is_zero():
                continue
            # r divides the gcd, and the gcd divides both products
            oracles.exact_div(g, gcd(g, r))
            assert gcd(g, r) == gcd(r, r)
            oracles.exact_div(p * r, g)
            oracles.exact_div(q * r, g)

    def test_exact_div_rejects_nondivisor(self):
        with pytest.raises(ValueError):
            oracles.exact_div(X ** 2 + 1, X + 1)

    def test_exact_div_keeps_fractions_exact(self):
        h, q, r = poly_gcd(X ** 2 + Fraction(1, 2) * X, 2 * X)
        assert (h, q, r) == (X, X + Fraction(1, 2), Polynomial.constant(2))
        # == cannot tell 0.5 from 1/2, so the types are checked too
        assert {m: type(c) for m, c in q.terms.items()} == {((VX, 1),): int, (): Fraction}
        assert [type(c) for c in r.terms.values()] == [int]

    def test_dense_bivariate_quotient_returns(self, within):
        # the rational scalars the PRS once kept grew like Euclid's over Q:
        # this 3-term over 15-term quotient ran past 100 s
        with within(5):
            f = rf("(x^8+y^8+1)/((x+y+1)^4)")
        assert str(f.num) == "x^8 + y^8 + 1"
        assert f.den == rf("(x+y+1)^4").num

    def test_sparse_three_variable_pair(self, within):
        # coprime, yet the primitive PRS took 24 s over it
        f = rf("-135/8*x^3*y^5 + 405/8*x^2*y^5 + 3*x^6 + 45/8*x^2*y^4 - 135/8*x*y^4"
               " - 15/2*x^4 - 15/32*x*y^3 + 45/32*y^3").num
        g = rf("t^2*x^5*y^4 - 6*t^2*x^4*y^4 - 27/16*x^4*y^6 - 1/6*t^2*x^4*y^3"
               " + 9*t^2*x^3*y^4 + 81/8*x^3*y^6 + t^2*x^3*y^3 + 9/16*x^3*y^5"
               " - 243/16*x^2*y^6 - 3/2*t^2*x^2*y^3 - 27/8*x^2*y^5 - 3/64*x^2*y^4"
               " + 81/16*x*y^5 + 9/32*x*y^4 - 27/64*y^4").num
        h = X + Polynomial.variable(T)
        with within(2):
            assert gcd(f, g).is_one()
            assert gcd(f * h, g * h) == h

    def test_sparse_exponent_past_any_interpolation(self, within):
        # long division by x + y would take 10^999 steps
        n = 10 ** 999
        with within(2):
            assert poly_gcd(Y ** n * X + 1, Y + X)[0].is_one()
            assert poly_gcd(Y ** n + 1, Y ** n + Y)[0].is_one()
            assert poly_gcd((Y ** n * X + 1) * (X + Y), (X + Y) * (X - Y)) == \
                (X + Y, Y ** n * X + 1, X - Y)
            # the first prime's candidate y + (10^20 mod p) divides neither,
            # and dividing by it would step down from y^(10^999) one by one
            c = 10 ** 20
            assert poly_gcd((Y + c) * (Y ** n + 1), (Y + c) * (Y + 2)) == \
                (Y + c, Y ** n + 1, Y + 2)

    def test_interpolation_stops_at_the_gcds_degree(self, within):
        # the leading coefficients' gcd x^199 would call for 400 images of
        # degree 200 in x; the monic images of x + y stop changing after two
        n = 200
        f = (X ** n * Y ** n + X + 1) * (X + Y)
        g = (X ** (n - 1) * Y ** (n + 1) + Y + 1) * (X + Y)
        with within(2):
            assert gcd(f, g) == X + Y
            assert gcd(f * (X - 1), g * (X - 1)) == (X + Y) * (X - 1)

    def test_early_stops_are_checked(self, monkeypatch, within):
        # with primes near 100, one more image can leave a wrong interpolant
        # unchanged; kept unchecked, it stayed in Brown's CRT and the gcd
        # never returned
        f = -92 * X ** 4 * Y ** 3 - 575 * X ** 3 * Y * Z ** 2 - 345 * X ** 4 * Y \
            - 644 * X ** 3 * Y * Z
        g = -84 * X ** 2 * Y ** 4 * Z ** 2 - 525 * X * Y ** 2 * Z ** 4 \
            - 84 * X ** 3 * Y ** 2 * Z - 315 * X ** 2 * Y ** 2 * Z ** 2 \
            - 588 * X * Y ** 2 * Z ** 3 - 525 * X ** 2 * Z ** 3 - 315 * X ** 3 * Z \
            - 588 * X ** 2 * Z ** 2 - 96 * X * Y ** 2 - 600 * Z ** 2 - 360 * X - 672 * Z
        small = [n for n in range(101, 400) if all(n % d for d in range(2, 20))][:40]
        shipped = ratfunc._primes
        monkeypatch.setattr(ratfunc, "_primes", lambda: itertools.chain(small, shipped()))
        monkeypatch.setattr(ratfunc, "_HEU_TRIES", 0)
        with within(1):
            h = gcd(f, g)
        assert 4 * h == 4 * X * Y ** 2 + 25 * Z ** 2 + 15 * X + 28 * Z

    def test_single_term_argument(self, within):
        # the PRS on a 9-term polynomial against a^15*t^16 took 3 s
        a = Polynomial.variable(Var(False, "a"))
        t = Polynomial.variable(T)
        f = 12 * a ** 15 * t ** 12 * Y ** 5 + 4 * a ** 15 * t ** 13 * Y ** 3 \
            + Fraction(80, 3) * a ** 13 * t ** 10 * Y ** 7 + 6 * a ** 11 * t ** 11 * X
        with within(1):
            assert gcd(f, 6 * a ** 15 * t ** 16) == a ** 11 * t ** 10
            assert gcd(4 * X ** 2 * Y, 6 * X * Y ** 3 * Z) == X * Y
            assert gcd(X * Y + X ** 2, Y ** 2).is_one()
        rng = random.Random(5)
        for _ in range(40):
            f, term = small_polys(rng, 3), small_polys(rng, 3, nterms=1)
            if f.is_zero() or term.is_zero():
                continue
            # a monic term dividing both, and no greater term does
            g = gcd(f, term)
            assert len(g.terms) == 1 and g.leading_coeff() == 1
            for v in (X, Y, Z):
                with pytest.raises(ValueError):
                    oracles.exact_div(f, g * v), oracles.exact_div(term, g * v)


# t, two parameters and three differential variables, for the sympy oracle
ORACLE_VARS = (T, Var(False, "a"), Var(False, "b"), VX, VY, Var(True, "y", 1))


def oracle_poly(rng: random.Random, variables, nterms: int) -> Polynomial:
    """Up to ``nterms`` terms of degree at most 2 in each variable, with
    non-integral and non-monic coefficients mixed in."""
    p = Polynomial()
    for _ in range(rng.randint(1, nterms)):
        c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3, 5)), rng.choice((1, 1, 2, 3)))
        term = Polynomial.constant(c)
        for v in variables:
            term = term * Polynomial.variable(v) ** rng.randint(0, 2)
        p = p + term
    return p


def oracle_pairs(seed: int, count: int):
    """Seeded (f, g, kinds, variables): f = p*r and g = q*r over one to four
    variables, for a common factor r: in turn ``planted``, ``unplanted`` (r
    a constant, so f and g are often coprime) and ``divides`` (q a constant,
    so g divides f).  Mixed in at random, with the kind recorded:

    - ``digits40``: r's coefficients have 40 to 50 digits, so the gcd's do,
      and no one prime carries them;
    - ``prime``: p's top term, the highest in every variable, carries a
      multiple of 2^61 - 1, the first prime, so f's leading coefficient is
      divisible by it in every variable order;
    - ``unlucky`` (not divides): q = p plus a multiple of 2^61 - 1, so the
      first prime's image of the gcd is p*r, with small coefficients;
    - ``monomial``: f and g times monomials;
    - ``huge`` (planted or divides): r in one variable, with an exponent
      past 10^6;
    - ``collision`` (planted): p = (u + c*v + d)^i and q = (u + c*w + d)^j with r in u,
      whose images coincide wherever v and w take the same value.

    After every fifth pair that is not huge comes one more, of kind
    ``steep`` alone and not counted in ``count``: that pair with u^6000 put
    for u (see :func:`steep`), which maps its gcd to its image and passes
    the heuristic gcd's size limit, so the modular images take it.  No
    random draw decides it, so the counted pairs stay as they were.
    """
    rng = random.Random(seed)
    made = 0
    while made < count:
        variables = rng.sample(ORACLE_VARS, rng.randint(1, 4))
        kind = ("planted", "unplanted", "divides")[made % 3]
        kinds = {kind, "vars3"} if len(variables) >= 3 else {kind}
        p, q = oracle_poly(rng, variables, 3), oracle_poly(rng, variables, 3)
        r = oracle_poly(rng, variables, 2)
        if kind == "unplanted":
            r = Polynomial.constant(Fraction(rng.randint(1, 6), rng.randint(1, 6)))
        elif kind == "divides":
            q = Polynomial.constant(Fraction(rng.choice((-2, 1, 3)), rng.randint(1, 3)))
        draw = rng.random()
        if kind != "unplanted" and draw < 0.15:
            kinds.add("huge")
            u = variables[0]
            r = oracle_poly(rng, [u], 2) + Polynomial({((u, 10 ** 6 + rng.randint(0, 5)),): 3})
        elif kind == "planted" and draw < 0.65 and len(variables) >= 3:
            kinds.add("collision")
            u, v, w = map(Polynomial.variable, variables[:3])
            c, d = rng.choice((1, 2, -3)), rng.randint(-2, 2)
            p, q = (u + c * v + d) ** rng.randint(1, 2), (u + c * w + d) ** rng.randint(1, 2)
            r = oracle_poly(rng, variables[:1], 2) * u + rng.randint(1, 3)
        if kind != "divides" and rng.random() < 0.12:
            kinds.add("unlucky")
            q = p + (2 ** 61 - 1) * rng.randint(1, 3)
        if rng.random() < 0.25:
            kinds.add("digits40")
            r = Polynomial({m: c * rng.randint(10 ** 40, 10 ** 50) for m, c in r.terms.items()})
        if rng.random() < 0.2:
            kinds.add("prime")
            top = tuple((v, p.degree_in(v) + 1) for v in sorted(variables))
            p = p + Polynomial({top: (2 ** 61 - 1) * rng.randint(1, 5)})
        f, g = p * r, q * r
        if rng.random() < 0.2:
            kinds.add("monomial")
            f, g = (h * Polynomial({tuple((v, rng.randint(1, 3)) for v in sorted(variables)
                                          if rng.random() < 0.7): 1}) for h in (f, g))
        if f.is_zero() or g.is_zero():
            continue
        yield f, g, kinds, variables
        if made % 5 == 1 and "huge" not in kinds:
            yield steep(f, variables[0]), steep(g, variables[0]), {"steep"}, variables
        made += 1


def steep(p: Polynomial, u) -> Polynomial:
    """p with u^6000 put for u."""
    return Polynomial({tuple((v, e * 6000 if v == u else e) for v, e in m): c
                       for m, c in p.terms.items()})


class TestSympyOracle:
    """``poly_gcd`` against the primitive PRS and sympy's ``gcd``, and the
    canonical form against sympy's ``cancel``, on 2,100 seeded pairs; their
    ``steep`` copies against the PRS and the images of those results."""

    def test_gcd_and_canonical_form(self, within, monkeypatch):
        sympy = pytest.importorskip("sympy")
        # whether the heuristic answered each outermost call, or left it to
        # the modular images
        heuristic, depth, answers = ratfunc._heuristic, [0], []

        def counted(a, b):
            depth[0] += 1
            try:
                found = heuristic(a, b)
            finally:
                depth[0] -= 1
            if not depth[0]:
                answers.append(found is not None)
            return found
        monkeypatch.setattr(ratfunc, "_heuristic", counted)
        symbols = {v: sympy.Symbol(str(v)) for v in ORACLE_VARS}

        def to_sympy(p: Polynomial, variables):
            rep = {}
            for m, c in p.terms.items():
                exps = dict(m)
                rep[tuple(exps.get(v, 0) for v in variables)] = \
                    sympy.Rational(c.numerator, c.denominator)
            return sympy.Poly.from_dict(rep, *(symbols[v] for v in variables),
                                        domain="QQ")

        seen, paths = collections.Counter(), collections.Counter()
        with within(120):
            for f, g, kinds, variables in oracle_pairs(53, 2100):
                answers.clear()
                h = gcd(f, g)
                paths.update(("heuristic" if answer else "modular") for answer in answers)
                assert h == oracles.prs_gcd(f, g), (f, g)
                seen.update(kinds)
                if kinds == {"steep"}:
                    # the pair before with u^6000 for u: its gcd and its reduced
                    # quotient are the images of that pair's, which sympy
                    # checked, made monic again
                    u, canon = variables[0], RationalFunction(f, g)
                    gcd_image, num, den = (steep(p, u) for p in before)
                    lc = Fraction(den.leading_coeff())
                    assert h == gcd_image * (1 / Fraction(gcd_image.leading_coeff())), (f, g)
                    assert (canon.num, canon.den) == (num * (1 / lc), den * (1 / lc)), (f, g)
                    continue
                seen["coprime"] += h.is_one()
                seen["digits40"] -= "digits40" in kinds and max(map(len, map(str, _coefficients(h)))) < 40
                if "huge" in kinds:
                    continue   # sympy's dense form cannot hold the exponent
                canon = RationalFunction(f, g)
                before = h, canon.num, canon.den
                sf, sg = to_sympy(f, variables), to_sympy(g, variables)
                # equal to sympy's gcd up to a constant
                assert to_sympy(h, variables).monic() == sympy.gcd(sf, sg).monic(), (f, g)
                # the canonical quotient is sympy's cancelled quotient
                p, q = sf.cancel(sg, include=True)
                assert to_sympy(canon.den, variables).monic() == q.monic(), (f, g)
                assert to_sympy(canon.num, variables) * q == p * to_sympy(canon.den, variables)
        assert min(seen[k] for k in ("planted", "unplanted", "divides", "coprime")) >= 400, seen
        assert min(seen.values()) >= 100 and len(seen) == 12, seen
        assert paths["heuristic"] >= 800 and paths["modular"] >= 300, paths


def _coefficients(value):
    polys = [value.num, value.den] if isinstance(value, RationalFunction) else [value]
    return [c for p in polys for c in p.terms.values()]


coefficients = st.one_of(st.integers(-6, 6), st.fractions(max_denominator=6))
plane_polys = st.lists(
    st.tuples(coefficients, st.integers(0, 2), st.integers(0, 2)),
    min_size=1, max_size=4,
).map(lambda terms: sum((Polynomial.constant(c) * X ** i * Y ** j for c, i, j in terms),
                        Polynomial()))
steps = st.lists(
    st.tuples(st.sampled_from(["+", "-", "*", "/", "**", "partial", "values", "div"]),
              plane_polys, st.integers(-2, 3), st.sampled_from([VX, VY]), coefficients),
    min_size=1, max_size=6,
)


class TestCoefficientTypes:
    @given(plane_polys, steps)
    def test_int_or_fraction_never_float(self, start, ops):
        value = RationalFunction(start)
        poly = start
        for op, p, k, var, c in ops:
            other = RationalFunction(p)
            if op == "+":
                value = value + other
            elif op == "-":
                value = value - other
            elif op == "*":
                value = value * other
            elif op == "/" and not p.is_zero():
                value = value / other
            elif op == "**" and not (k < 0 and value.is_zero()):
                value = value ** k
            elif op == "partial":
                value = derive(value, unit_field(var))
                poly = poly.partial(var)
            elif op == "values":
                with contextlib.suppress(DivisionByZeroExpression):
                    value = value.substitute({var: c})
                poly = RationalFunction(poly).substitute({var: c}).num
            elif op == "div" and not p.is_zero():
                h, quotient, p_h = poly_gcd(poly * p, p)
                assert quotient == poly * p_h
                poly = quotient
                for coeff in _coefficients(h) + _coefficients(p_h):
                    assert type(coeff) in (int, Fraction), (op, coeff)
            for coeff in _coefficients(value) + _coefficients(poly):
                assert type(coeff) in (int, Fraction), (op, coeff)

    def test_integers_stay_int(self):
        f = RationalFunction(6 * X ** 2 + 4 * X, 2 * X * Y)
        assert f == RationalFunction(3 * X + 2, Y)
        assert all(type(c) is int for c in _coefficients(f))
        assert all(type(c) is int for p in poly_gcd(4 * X ** 2 - 4, 6 * X + 6)
                   for c in _coefficients(p))
        # integral sums, products and derivatives of fractions
        half, third = Fraction(1, 2), Fraction(1, 3)
        for p in (rf("x/2*2").num, (half * X + Y) * 2, (third * X) * (3 * Y),
                  half * X + half * X, (half * X ** 2 + Y).partial(VX)):
            assert all(type(c) is int for c in p.terms.values()), p


class TestRationalFunction:
    def test_reduction(self):
        f = RationalFunction((X + Y) * X, (X + Y) * Y)
        assert f == RationalFunction(X, Y)

    def test_monic_denominator(self):
        f = RationalFunction(X, 2 * Y)
        assert f.den == Y
        assert f.num == Polynomial.constant(Fraction(1, 2)) * X

    def test_zero_canonical(self):
        f = RationalFunction(X - X, Y)
        assert f.is_zero()
        assert f.den.is_one()

    def test_zero_denominator_rejected(self):
        with pytest.raises(DivisionByZeroExpression):
            RationalFunction(X, Y - Y)

    def test_division_by_zero_expression(self):
        with pytest.raises(DivisionByZeroExpression):
            RationalFunction(X) / RationalFunction(Y - Y, Y)

    def test_sum_denominator_keeps_term_order(self):
        # the numerator of the sum shares x + y with the denominators' gcd,
        # so the sum's denominator is built as d/h = (d/g)*(g/h)
        a = rf("1/((x+y)*(x^2+y+1))")
        c = rf("((x+y)*x - (y^2+x+2))/((x+y)*(x^2+y+1)*(y^2+x+2))")
        total = a + c
        assert total == rf("x/((x^2+y+1)*(y^2+x+2))")
        assert total.den == oracles.exact_div(c.den, X + Y)

    def test_field_ops(self):
        a = RationalFunction(X, Y)
        b = RationalFunction(Y, X)
        assert a * b == RationalFunction(Polynomial.constant(1))
        assert a / a == RationalFunction(Polynomial.constant(1))
        s = a + b
        assert s == RationalFunction(X ** 2 + Y ** 2, X * Y)
        assert s - b == a

    def test_negative_power(self):
        a = RationalFunction(X, Y)
        assert a ** -2 == RationalFunction(Y ** 2, X ** 2)
        assert RationalFunction(2 * X, Y) ** -1 == RationalFunction(Y, 2 * X)
        with pytest.raises(DivisionByZeroExpression):
            RationalFunction(X - X) ** -1

    def test_partial_quotient_rule(self):
        f = RationalFunction(X ** 2, Y)
        assert derive(f, unit_field(VX)) == RationalFunction(2 * X, Y)
        assert derive(f, unit_field(VY)) == RationalFunction(-(X ** 2), Y ** 2)

    def test_quotients_powers_and_slopes_match_the_general_constructor(self, within):
        # / cancels crosswise against the reciprocal and ** takes no gcd, so
        # each must land on the quotient the general constructor reduces;
        # the slope must match the textbook -f_x/f_y of the oracle
        # (two-term parts: the general constructor's gcd of two cubes of
        # three-term parts takes most of a second)
        rng = random.Random(43)
        pairs = slopes = 0
        with within(20):
            while pairs < 1000:
                n1, d1, n2, d2 = (small_polys(rng, nterms=2) for _ in range(4))
                if d1.is_zero() or d2.is_zero() or n2.is_zero():
                    continue
                a, b = RationalFunction(n1, d1), RationalFunction(n2, d2)
                checks = [(a / b, RationalFunction(a.num * b.den, a.den * b.num))]
                for k in range(-3, 4):
                    if k >= 0:
                        checks.append((a ** k, RationalFunction(a.num ** k, a.den ** k)))
                    elif not a.is_zero():
                        checks.append((a ** k, RationalFunction(a.den ** -k, a.num ** -k)))
                if a.variables() == {VX, VY}:
                    fx, fy = oracles.partial(a, VX), oracles.partial(a, VY)
                    checks.append((quotient_of_partials(a),
                                   RationalFunction(-fx.num * fy.den, fx.den * fy.num)))
                    slopes += 1
                for result, general in checks:
                    assert result == general == RationalFunction(result.num, result.den)
                pairs += 1
        assert slopes > 300

    def test_substitute(self):
        f = RationalFunction(X ** 2 + Y, Y)
        g = f.substitute({VX: RationalFunction(Y, X)})
        assert g == RationalFunction(Y ** 2 + Y * X ** 2, X ** 2 * Y)

    def test_evaluate(self):
        f = RationalFunction(X + 1, Y)
        assert f.substitute({VX: 1, VY: 4}) == RationalFunction.constant(Fraction(1, 2))
        with pytest.raises(DivisionByZeroExpression, match="vanishes"):
            f.substitute({VX: 1, VY: 0})

    def test_equality_matches_cross_multiplication(self):
        # independent equality oracle: n1/d1 == n2/d2 iff n1*d2 == n2*d1
        rng = random.Random(31)
        pairs = 0
        for _ in range(60):
            n1, d1, n2, d2 = (small_polys(rng) for _ in range(4))
            if d1.is_zero() or d2.is_zero():
                continue
            a = RationalFunction(n1, d1)
            b = RationalFunction(n2, d2)
            assert (a == b) == (n1 * d2 == n2 * d1)
            pairs += 1
        assert pairs > 40

    def test_common_factor_cancels_to_same_canonical_form(self):
        rng = random.Random(37)
        for _ in range(40):
            p, q, s = (small_polys(rng) for _ in range(3))
            if q.is_zero() or s.is_zero():
                continue
            assert RationalFunction(p * s, q * s) == RationalFunction(p, q)

    def test_sum_and_product_cancel_only_through_shared_factors(self, within):
        # a/b + c/d reduces by gcd(b, d) and a/b * c/d crosswise, so
        # coprime denominators take no gcd against their product; reducing
        # the plain quotients of this sum and this product each ran past 15 s
        a = rf("(-4*t^3*y'' + 8*t^2*y*y'' - 2*t^2*y'^2 + 6*t^2*y'*y'' - 4*t*y^2*y''"
               " + 2*t*y*y'^2 - 12*t*y*y'*y'' + 2*t*y'^3 + 6*y^2*y'*y'' - 2*y*y'^3"
               " + 2*t*y*y' - 2*t*y'^2 - 2*y^2*y' + 2*y*y'^2)"
               "/(t^3*y'^5 - 3*t^2*y'^6 + 3*t*y'^7 - y'^8)")
        b = rf("(-2*x^4*y'*y'' + 4*x^3*x'*y'^2 + 4*t*x^3*x' + x^4*y'' - 4*x^3*x'*y' - x^4)"
               "/(y'^2 + t - y')^2")
        with within(5):
            total, product = a + b, a * b
        assert total * (a.den * b.den) == a.num * b.den + b.num * a.den
        assert product * (a.den * b.den) == a.num * b.num
        shared = rf("(x + t)/(y - 1)")
        assert (shared + shared - shared * 2).is_zero()
        assert a / a == 1 and str(-a) == str(RationalFunction(-a.num, a.den))

    def test_normalize_idempotent_random(self):
        rng = random.Random(23)
        for _ in range(30):
            num = small_polys(rng)
            den = small_polys(rng)
            if den.is_zero():
                continue
            f = RationalFunction(num, den)
            again = RationalFunction(f.num, f.den)
            assert again.num == f.num and again.den == f.den

    @given(st.fractions(max_denominator=20), st.fractions(max_denominator=20))
    def test_constants_embed(self, a, b):
        fa = RationalFunction(Polynomial.constant(a))
        fb = RationalFunction(Polynomial.constant(b))
        assert fa + fb == RationalFunction(Polynomial.constant(a + b))
        assert fa * fb == RationalFunction(Polynomial.constant(a * b))

    def test_printer_reparse(self):
        plane = RationalFunction(X ** 2 - Y, 2 * X * Y + Y)
        t, a, b, y, y1, y2 = map(Polynomial.variable, (
            T, Var(False, "a"), Var(False, "b"),
            Var(True, "y"), Var(True, "y", 1), Var(True, "y", 2)))
        mixed = RationalFunction(a * y2 - t * y1 ** 2 + Fraction(1, 3) * b * y ** 3,
                                 2 * t * y1 - a * b * y + b)
        for f, params in ((plane, ()), (mixed, ("a", "b"))):
            assert rf(str(f), params=params) == f


class TestSubstitution:
    """One substitution for exact values and rational functions, checked
    against the term-by-term oracle, with one gcd per call."""

    def test_matches_term_by_term_oracle(self, within):
        seen = collections.Counter()
        with within(60):
            # the oracle's own gcds stalled at seed 29 under the primitive PRS
            for rng in map(random.Random, (1, 29)):
                for _ in range(1200):
                    f, mapping = oracles.random_substitution_case(rng)
                    try:
                        expected = oracles.substitute(f, mapping)
                    except DivisionByZeroExpression:
                        with pytest.raises(DivisionByZeroExpression, match="vanishes"):
                            f.substitute(mapping)
                        seen["vanishing"] += 1
                        continue
                    result = f.substitute(mapping)
                    assert result == expected, (f, mapping)
                    assert result == RationalFunction(result.num, result.den)
                    assert all(type(c) is int for c in _coefficients(result)
                               if c.denominator == 1), result
                    for var, value in mapping.items():
                        seen[f"map{len(mapping)}"] += 1
                        seen["absent"] += var not in f.variables()
                        if isinstance(value, RationalFunction):
                            seen[f"quotient{len(mapping)}"] += bool(value.den.variables())
                        else:
                            seen["zero"] += value == 0
                            seen["negative"] += value < 0
                            seen["non-integer"] += Fraction(value).denominator != 1
        for kind in ("vanishing", "absent", "quotient1", "quotient2",
                     "zero", "negative", "non-integer"):
            assert seen[kind] >= 50, seen

    def test_composed_gcd_returns(self, within):
        # one composed gcd of this draw took 0.4 s under the primitive PRS
        rng = random.Random(23)
        for _ in range(864):
            f, mapping = oracles.random_substitution_case(rng)
        with within(2):
            assert f.substitute(mapping) == oracles.substitute(f, mapping)

    @staticmethod
    def count_gcds(monkeypatch) -> list:
        calls = []
        gcd = ratfunc.poly_gcd
        monkeypatch.setattr(ratfunc, "poly_gcd", lambda f, g: calls.append(1) or gcd(f, g))
        return calls

    @pytest.mark.parametrize("value", ["y^2 + t/2", "1/(y - t)"])
    @pytest.mark.parametrize("text", ["y1^3 + t*y1 + 1/2", "(y1^2 + 1)/(y1 - t)"])
    def test_one_gcd(self, monkeypatch, text, value):
        f, y1 = rf(text), Var(True, "y1")
        expected = oracles.substitute(f, {y1: rf(value)})
        mapping = {y1: rf(value)}
        calls = self.count_gcds(monkeypatch)
        result = f.substitute(mapping)
        assert len(calls) == 1
        assert result == expected

    def test_absent_variable_takes_no_gcd(self, monkeypatch):
        f = rf("(y1^2 + 1)/(y1 - t)")
        mapping = {Var(True, "y"): rf("y^2 + t/2"), Var(True, "z"): 3}
        calls = self.count_gcds(monkeypatch)
        assert f.substitute(mapping) is f
        assert not calls
