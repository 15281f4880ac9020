"""Rational differential expressions and their derivative along a field.

The one derivation, :func:`derive`, treats ``t`` as the element with
derivative 1, declared parameters as constants and each differential variable
as having the derivative its field assigns, so the invariant-curve and
first-integral checks below are exact identities over Q(parameter symbols).
"""

from __future__ import annotations

import math
import operator
import string
from typing import Callable, Mapping, Sequence

from .exactnum import ConstraintError
from . import ratfunc
from .ratfunc import ONE, Polynomial, RationalFunction, Var

T = Var(False, "t")


class ExprSyntaxError(ValueError):
    """Malformed expression text, with the offending position attached."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (position {pos})")
        self.pos = pos


class UnsupportedExponentError(ExprSyntaxError):
    """Exponent is not an integer literal.

    Symbolic exponents are outside the scope of exact canonical forms; the
    corresponding identities must be checked by the numeric log-relation
    route instead.
    """


# --------------------------------------------------------------------------
# Parsing.  Grammar (EBNF); explicit '*' is required, juxtaposition is not
# multiplication:
#
#   expr    = term , { ("+" | "-") , term } ;
#   term    = unary , { ("*" | "/") , unary } ;
#   unary   = { "+" | "-" } , power ;
#   power   = atom , [ "^" , integer ] ;
#   atom    = integer | name , { "'" } | "(" , expr , ")" ;
#   name    = letter , { letter | digit | "_" } ;
#
# Letters and digits are ASCII.  Names resolve to t, a declared parameter, or
# a differential variable; primes raise the derivative order.
# --------------------------------------------------------------------------

_SPACE = frozenset(" \t\n\r\f\v")
_DIGITS = frozenset(string.digits)
_NAME_START = frozenset(string.ascii_letters + "_")
_NAME_CHARS = _NAME_START | _DIGITS

Builder = Callable[[], RationalFunction]


def _leaf(value) -> Builder:
    return lambda: RationalFunction.variable(value)


# Bounds on the predicted size of each power and each polynomial product an
# expression asks for, so that it cannot ask for an unbounded expansion:
# terms, and decimal digits per coefficient.
_MAX_TERMS = 500
_MAX_DIGITS = 1000
_TOO_LARGE = (f"too large to expand (more than {_MAX_TERMS} terms "
              f"or {_MAX_DIGITS} digits per coefficient)")


def _height(p: Polynomial) -> int:
    """The height A*L of p = (sum a_i*m_i)/L, for integers a_i, A = sum |a_i|.

    A product's coefficients have numerators at most the product of the
    factors' A and denominators dividing the product of their L, so at most
    log10 of the product of the heights as digits; so has a power's.
    """
    coeffs = p.terms.values()
    lcm = math.lcm(*(c.denominator for c in coeffs))
    return lcm * sum(abs(c.numerator) * (lcm // c.denominator) for c in coeffs)


def _power_fits(p: Polynomial, exp: int) -> bool:
    """Whether ``p ** exp`` stays within the size bounds: an n-term p has at
    most comb(n-1+exp, n-1) terms in ``p ** exp``."""
    n = len(p.terms)
    if n > 1 and (exp > _MAX_TERMS or math.comb(n - 1 + exp, exp) > _MAX_TERMS):
        return False
    height = _height(p)
    return height < 2 or exp <= _MAX_DIGITS / math.log10(height)


def _product_fits(p: Polynomial, q: Polynomial) -> bool:
    """Whether ``p * q`` stays within the size bounds.

    The product has at most len(p)*len(q) terms, and at most comb(d+k, k),
    the number of monomials of degree d or less in its k variables, where d
    is the sum of the factors' total degrees.  A factor of one term adds no
    terms, and one of height 1 no digits.
    """
    if len(p.terms) > len(q.terms):
        p, q = q, p
    if len(p.terms) > 1:
        k = len(p.variables() | q.variables())
        d = sum(max(sum(e for _, e in m) for m in f.terms) for f in (p, q))
        if min(len(p.terms) * len(q.terms), math.comb(d + k, k)) > _MAX_TERMS:
            return False
    hp = _height(p)   # the shorter factor, often the denominator 1
    if hp < 2:
        return True
    hq = _height(q)
    return hq < 2 or math.log10(hp) + math.log10(hq) <= _MAX_DIGITS


_BINARY = {"+": operator.add, "-": operator.sub,
           "*": operator.mul, "/": operator.truediv}

# The polynomial products each operation forms, as (left, right) parts:
# a/b +- c/d = (a*d +- c*b)/(b*d),  a/b * c/d = a*c/(b*d),  (a/b)/(c/d) = a*d/(b*c)
_SUM_PRODUCTS = (("num", "den"), ("den", "num"), ("den", "den"))
_PRODUCTS = {"+": _SUM_PRODUCTS, "-": _SUM_PRODUCTS,
             "*": (("num", "num"), ("den", "den")),
             "/": (("num", "den"), ("den", "num"))}


def _chain(first: Builder, rest: list) -> Builder:
    """A left-associative run of binary operations ``(pos, op, operand)``,
    built in source order by a loop, so a long sum or product does not
    deepen the call stack.  Each operation is checked before it is computed:
    a divisor must not be identically zero, and every product it forms must
    stay within the size bounds."""
    if not rest:
        return first

    def build():
        acc = first()
        for pos, op, right in rest:
            value = right()
            if op == "/" and value.is_zero():
                raise ExprSyntaxError("division by an identically-zero expression", pos)
            if not all(_product_fits(getattr(acc, a), getattr(value, b))
                       for a, b in _PRODUCTS[op]):
                raise ExprSyntaxError(f"'{op}' forms a product {_TOO_LARGE}", pos)
            acc = _BINARY[op](acc, value)
        return acc
    return build


def _power_at(pos: int, base: Builder, exp: int) -> Builder:
    def build():
        value = base()
        if exp > 1 and not (_power_fits(value.num, exp) and _power_fits(value.den, exp)):
            raise ExprSyntaxError(f"power {_TOO_LARGE}", pos)
        return value ** exp
    return build


class _Parser:
    """Recursive descent that yields canonical forms.

    Each rule returns a zero-argument builder rather than a value, and
    :meth:`parse` runs the root builder only once the whole text has been
    read, so a syntax error is reported before any polynomial arithmetic.
    """

    def __init__(self, text: str, params: Sequence[str], variables):
        self.text = text
        self.pos = 0
        self.params = set(params)
        self.variables = None if variables is None else set(variables)
        if T.name in self.params:
            raise ExprSyntaxError("'t' cannot be declared as a parameter", 0)

    def error(self, message: str, pos: int | None = None):
        raise ExprSyntaxError(message, self.pos if pos is None else pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in _SPACE:
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def parse(self) -> RationalFunction:
        build = self.expr()
        if self.peek():
            self.error(f"unexpected {self.peek()!r}")
        return build()

    def expr(self) -> Builder:
        return self.operations(self.term, ("+", "-"))

    def term(self) -> Builder:
        return self.operations(self.unary, ("*", "/"))

    def operations(self, operand, ops) -> Builder:
        first, rest = operand(), []
        while (ch := self.peek()) in ops:
            pos = self.pos
            self.pos += 1
            rest.append((pos, ch, operand()))
        return _chain(first, rest)

    def unary(self) -> Builder:
        negate = False
        while (ch := self.peek()) in ("+", "-"):
            negate ^= ch == "-"
            self.pos += 1
        build = self.power()
        return (lambda: -build()) if negate else build

    def power(self) -> Builder:
        base = self.atom()
        if self.peek() == "^":
            self.pos += 1
            exp_pos = self.pos
            ch = self.peek()
            if ch == "-":
                self.error("negative exponents must be written with division", exp_pos)
            if ch in _NAME_START:
                raise UnsupportedExponentError(
                    "exponent must be an integer literal; for non-integer "
                    "exponents use the numeric log-relation check", exp_pos)
            if ch not in _DIGITS:
                self.error("expected an integer exponent", exp_pos)
            return _power_at(exp_pos, base, self.integer())
        return base

    def integer(self) -> int:
        """The digits at pos, where peek() has just seen one."""
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _DIGITS:
            self.pos += 1
        digits = self.text[start:self.pos]
        try:
            return int(digits)
        except ValueError:   # past the interpreter's integer-string length limit
            self.error(f"integer of {len(digits)} digits is too long to parse", start)

    def atom(self) -> Builder:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            build = self.expr()
            self.expect(")")
            return build
        if ch in _DIGITS:
            value = self.integer()
            return lambda: RationalFunction.constant(value)
        if ch in _NAME_START:
            return self.name()
        self.error("expected a number, a name or '('")

    def name(self) -> Builder:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _NAME_CHARS:
            self.pos += 1
        ident = self.text[start:self.pos]
        order = 0
        while self.pos < len(self.text) and self.text[self.pos] == "'":
            order += 1
            self.pos += 1
        if ident == T.name:
            if order:
                self.error("the time element does not take primes", start)
            return _leaf(T)
        if ident in self.params:
            if order:
                self.error(f"parameter {ident!r} is a constant and takes no primes",
                           start)
            return _leaf(Var(False, ident))
        if self.variables is not None and ident not in self.variables:
            self.error(f"unknown symbol {ident!r}", start)
        return _leaf(Var(True, ident, order))


def rf(text: str, params: Sequence[str] = (),
       variables: Sequence[str] | None = None) -> RationalFunction:
    """Parse the documented grammar straight to canonical form.

    ``t`` and the declared ``params`` stay symbolic; other names become
    differential variables unless an explicit ``variables`` whitelist is
    given.  Every malformed input, division by an identically-zero
    expression included, raises :class:`ExprSyntaxError`.
    """
    parser = _Parser(text, params, variables)
    try:
        return parser.parse()
    except RecursionError:
        raise ExprSyntaxError("expression nests too deeply", parser.pos) from None


def derive(f: RationalFunction,
           field: Mapping[Var, RationalFunction]) -> RationalFunction:
    """The derivative of f along a vector field: the sum of df/dv * field[v]
    over f's differential variables v, in ``Var`` order, plus df/dt;
    parameters are constants.  For b the product of the field's denominators,
    along(p) = b*derive(p) is a polynomial and n/d derives to
    (along(n)*d - n*along(d))/(b*d^2).  Over d/g, for g = gcd(d, along(d)),
    that numerator is prime to d/g, so its only gcd taken is the one with b*g."""
    moving = [v for v in sorted(f.variables()) if v.differential]
    for v in moving:
        if v not in field:
            raise ConstraintError(f"no field component supplied for {v}")
    dens = dict.fromkeys(field[v].den for v in moving)
    b = math.prod(dens, start=ONE)
    # b / field[v].den, the product of the other denominators
    rest = {v: math.prod((d for d in dens if d != field[v].den), start=ONE) for v in moving}

    def along(p: Polynomial) -> Polynomial:
        out = b * p.partial(T)
        for v in moving:
            out = out + p.partial(v) * field[v].num * rest[v]
        return out

    n, d = f.num, f.den
    g, d1, e1 = ratfunc.poly_gcd(d, along(d))
    _, num, den = ratfunc.poly_gcd(along(n) * d1 - n * e1, b * g)
    return RationalFunction(num, den * d1 * d1, reduced=True)


# --------------------------------------------------------------------------
# The verification operations.
# --------------------------------------------------------------------------

def verify_subvariety(field_rhs: Mapping, variable: str,
                      g: RationalFunction) -> RationalFunction:
    """The residual of the curve  variable = g  under a first-order field:
    derive(g) minus the field's ``variable`` component, both restricted to
    the curve.  Zero iff the curve is invariant.

    ``field_rhs`` maps variable names to rational functions.  The components
    g moves along are restricted to the curve before g is derived along
    them, so no derivative holds the eliminated variable.
    """
    v, moving = Var(True, variable), g.variables()
    if variable not in field_rhs:
        raise ConstraintError(f"the field has no component for {v}")
    if v in moving:
        raise ConstraintError(f"the curve {v} = {g} involves {v} itself")
    restricted = {w: rhs.substitute({v: g}) for name, rhs in field_rhs.items()
                  if (w := Var(True, name)) in moving}
    return derive(g, restricted) - field_rhs[variable].substitute({v: g})


def _plane(f: RationalFunction, check: str) -> list:
    """f's differential variables by name; a candidate that holds t is refused."""
    if T in f.variables():
        raise ConstraintError(f"{check} check expects an autonomous candidate")
    return sorted((v for v in f.variables() if v.differential), key=lambda v: v.name)


def verify_first_integral(f: RationalFunction,
                          field_rhs: Mapping) -> RationalFunction:
    """The derivative of f along the flow of an autonomous field: zero iff
    f is a first integral.

    ``field_rhs`` maps variable names to rational functions.
    """
    if not _plane(f, "first-integral"):
        raise ConstraintError("first-integral check expects a nonconstant candidate")
    return derive(f, {Var(True, name): rhs for name, rhs in field_rhs.items()})


def quotient_of_partials(f: RationalFunction) -> RationalFunction:
    """Return -(df/dx)/(df/dy) for a candidate in two plane variables.

    The two order-zero variables are taken in name order, so the usual
    (x, y) naming gives the slope field dy/dx implied by level sets of f.
    """
    plane = _plane(f, "quotient-of-partials")
    if len(plane) != 2 or any(v.order != 0 for v in plane):
        raise ConstraintError("expected exactly two order-zero plane variables")
    xv, yv = plane
    # for f = n/d the d^2 of both partials cancels; f_y is not zero, since a
    # variable of a reduced quotient has a nonzero partial in characteristic 0
    n, d = f.num, f.den
    return RationalFunction(n * d.partial(xv) - n.partial(xv) * d,
                            n.partial(yv) * d - n * d.partial(yv))
