"""Exact arithmetic over the Gaussian rationals Q(i).

Every parameter that enters a classification decision is a
:class:`ComplexRational`; all lattice/coset membership tests reduce to exact
predicates on these values, so there is no floating tolerance anywhere in the
classification path.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from fractions import Fraction


class ParameterParseError(ValueError):
    """Raised when a parameter string does not match the wire grammar."""


class ConstraintError(ValueError):
    """Input that parses but violates a constraint (dimension, plane, domain)."""


@dataclass(frozen=True)
class ComplexRational:
    """An element of Q(i), stored as a pair of reduced fractions.

    Both parts are ``Fraction``s on construction: the wire parser and every
    operator build them so, and int operands are promoted by ``_coerce``.
    ``Fraction`` keeps each in lowest terms with positive denominator, so
    equality and hashing are exact and canonical.
    """

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def _coerce(value) -> "ComplexRational":
        if isinstance(value, ComplexRational):
            return value
        if isinstance(value, (int, Fraction)):
            return ComplexRational(Fraction(value))
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
        return bool(self.re) or bool(self.im)

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def as_fraction(self) -> Fraction:
        """The real value, for contexts that require im = 0."""
        if self.im != 0:
            raise ValueError(f"{self} has a nonzero imaginary part")
        return self.re

    def __str__(self) -> str:
        return format_cgauss(self)


class Lattice(enum.Enum):
    """The three coset/lattice conditions used by the classifiers."""

    INTEGERS = "Z"
    TWO_INTEGERS = "2Z"
    HALF_PLUS_INTEGERS = "1/2+Z"


def lattice_member(z: ComplexRational, lattice: Lattice) -> bool:
    """True iff im(z) = 0 and re(z) lies in the given lattice or coset."""
    return z.im == 0 and rational_member(z.re, lattice)


def rational_member(r: Fraction, lattice: Lattice) -> bool:
    """True iff the rational r lies in the given lattice or coset."""
    if lattice is Lattice.INTEGERS:
        return r.denominator == 1
    if lattice is Lattice.TWO_INTEGERS:
        return r.denominator == 1 and r.numerator % 2 == 0
    if lattice is Lattice.HALF_PLUS_INTEGERS:
        return r.denominator == 2
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


def _parse_rational(token: str) -> Fraction:
    if "/" in token:
        num, den = token.split("/", 1)
        if _parse_int(den) == 0:
            raise ParameterParseError(f"zero denominator in {token!r}")
        return Fraction(_parse_int(num), _parse_int(den))
    return Fraction(_parse_int(token))


def parse_cgauss(text: str) -> ComplexRational:
    """Parse an exact Q(i) value such as ``1/2``, ``-2i`` or ``3/2+1/3i``."""
    token = text.strip()
    if not token:
        raise ParameterParseError("empty parameter string")
    m = _IMAG.match(token)
    if m:
        return ComplexRational(Fraction(0), _parse_rational(m.group("im")))
    m = _FULL.match(token)
    if m is None:
        raise ParameterParseError(f"malformed parameter {token!r}")
    re_part = _parse_rational(m.group("re"))
    if m.group("im") is None:
        return ComplexRational(re_part)
    im_part = _parse_rational(m.group("im"))
    if m.group("sign") == "-":
        im_part = -im_part
    return ComplexRational(re_part, im_part)


def format_cgauss(z: ComplexRational) -> str:
    """Canonical printer; ``parse_cgauss(format_cgauss(z)) == z`` always."""
    if z.im == 0:
        return str(z.re)
    if z.re == 0:
        return f"{z.im}i"
    sign = "+" if z.im > 0 else "-"
    return f"{z.re}{sign}{abs(z.im)}i"
