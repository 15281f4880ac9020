"""Exact arithmetic over the Gaussian rationals Q(i).

Every parameter that enters a classification decision is a
:class:`ComplexRational`; all lattice/coset membership tests reduce to exact
predicates on these values, so there is no floating tolerance anywhere in the
classification path.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from fractions import Fraction


class ParameterParseError(ValueError):
    """Raised when a parameter string does not match the wire grammar."""


class ConstraintError(ValueError):
    """Input that parses but violates a constraint (dimension, plane, domain)."""


_new, _set = object.__new__, object.__setattr__   # how a frozen dataclass sets fields


@dataclass(frozen=True, slots=True, init=False)
class ComplexRational:
    """An element of Q(i): real part rn/rd and imaginary part jn/jd, each in
    lowest terms with a positive denominator, so equality and hashing are
    exact and canonical.

    The constructor takes the parts as ``int``s or ``Fraction``s, which are
    already in that form; ``re`` and ``im`` read them back as ``Fraction``s.
    """

    rn: int
    rd: int
    jn: int
    jd: int

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        _set(self, "rn", re.numerator)
        _set(self, "rd", re.denominator)
        _set(self, "jn", im.numerator)
        _set(self, "jd", im.denominator)

    @property
    def re(self) -> Fraction:
        return Fraction(self.rn, self.rd)

    @property
    def im(self) -> Fraction:
        return Fraction(self.jn, self.jd)

    @staticmethod
    def _coerce(value) -> "ComplexRational":
        if isinstance(value, ComplexRational):
            return value
        if isinstance(value, (int, Fraction)):
            return ComplexRational(value)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ComplexRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ComplexRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return ComplexRational(-self.re, -self.im)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ComplexRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return ComplexRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __bool__(self):
        return bool(self.rn or self.jn)

    @property
    def is_real(self) -> bool:
        return not self.jn

    def as_fraction(self) -> Fraction:
        """The real value, for contexts that require im = 0."""
        if self.jn:
            raise ValueError(f"{self} has a nonzero imaginary part")
        return self.re

    def __str__(self) -> str:
        return format_cgauss(self)


def gaussian(rn: int, rd: int, jn: int, jd: int) -> ComplexRational:
    """The value rn/rd + (jn/jd)i for rd, jd > 0, each part reduced with one gcd."""
    g, h = math.gcd(rn, rd), math.gcd(jn, jd)
    z = _new(ComplexRational)
    _set(z, "rn", rn // g)
    _set(z, "rd", rd // g)
    _set(z, "jn", jn // h)
    _set(z, "jd", jd // h)
    return z


class Lattice(enum.Enum):
    """The three coset/lattice conditions used by the classifiers."""

    INTEGERS = "Z"
    TWO_INTEGERS = "2Z"
    HALF_PLUS_INTEGERS = "1/2+Z"


def lattice_member(z: ComplexRational, lattice: Lattice) -> bool:
    """True iff im(z) = 0 and re(z) lies in the given lattice or coset."""
    return not z.jn and rational_member(z.rn, z.rd, lattice)


def rational_member(s: int, d: int, lattice: Lattice) -> bool:
    """True iff s/d, for d > 0 and in any terms, lies in the given lattice or
    coset; each is a divisibility test."""
    if lattice is Lattice.INTEGERS:
        return s % d == 0
    if lattice is Lattice.TWO_INTEGERS:
        return s % (2 * d) == 0
    if lattice is Lattice.HALF_PLUS_INTEGERS:
        return 2 * s % d == 0 and s % d != 0
    raise TypeError(f"unknown lattice {lattice!r}")


# Wire grammar: rational ('+'|'-') rational 'i' | rational 'i' | rational,
# with rational = optional sign, integer, optional '/' positive-integer, and
# integers spelled in ASCII digits.
_RAT = r"[+-]?[0-9]+(?:/[0-9]+)?"
_FULL = re.compile(rf"^(?P<re>{_RAT})(?:(?P<sign>[+-])(?P<im>[0-9]+(?:/[0-9]+)?)i)?$")
_IMAG = re.compile(rf"^(?P<im>{_RAT})i$")


def _parse_int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:   # past the interpreter's integer-string length limit
        raise ParameterParseError(
            f"integer of {len(digits)} digits is too long to parse") from None


def _parse_rational(token: str) -> tuple[int, int]:
    """The token as a numerator and a positive denominator, in any terms."""
    if "/" in token:
        num, den = token.split("/", 1)
        d = _parse_int(den)
        if d == 0:
            raise ParameterParseError(f"zero denominator in {token!r}")
        return _parse_int(num), d
    return _parse_int(token), 1


def parse_cgauss(text: str) -> ComplexRational:
    """Parse an exact Q(i) value such as ``1/2``, ``-2i`` or ``3/2+1/3i``."""
    token = text.strip()
    if not token:
        raise ParameterParseError("empty parameter string")
    m = _IMAG.match(token)
    if m:
        return gaussian(0, 1, *_parse_rational(m.group("im")))
    m = _FULL.match(token)
    if m is None:
        raise ParameterParseError(f"malformed parameter {token!r}")
    rn, rd = _parse_rational(m.group("re"))
    if m.group("im") is None:
        return gaussian(rn, rd, 0, 1)
    jn, jd = _parse_rational(m.group("im"))
    return gaussian(rn, rd, -jn if m.group("sign") == "-" else jn, jd)


def _ratio(n: int, d: int) -> str:
    return str(n) if d == 1 else f"{n}/{d}"


def format_cgauss(z: ComplexRational) -> str:
    """Canonical printer; ``parse_cgauss(format_cgauss(z)) == z`` always."""
    if not z.jn:
        return _ratio(z.rn, z.rd)
    if not z.rn:
        return f"{_ratio(z.jn, z.jd)}i"
    sign = "+" if z.jn > 0 else "-"
    return f"{_ratio(z.rn, z.rd)}{sign}{_ratio(abs(z.jn), z.jd)}i"
