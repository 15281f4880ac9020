"""Exact arithmetic over the Gaussian rationals Q(i).

Every parameter that enters a classification decision is a
:class:`ComplexRational` of four ints, read and printed without building a
``Fraction``, so there is no floating tolerance anywhere in the
classification path.  Every error class a user's input can raise is here too.
"""

from __future__ import annotations

import math
import operator
import re
import sys


class ParameterParseError(ValueError):
    """Raised when a parameter string does not match the wire grammar."""


class ConstraintError(ValueError):
    """Input that parses but violates a constraint (dimension, plane, domain)."""


class ExprSyntaxError(ValueError):
    """Malformed expression text, with the offending position attached."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (position {pos})")
        self.pos = pos


class SingularInitialState(ValueError):
    """The right-hand side cannot be evaluated at the initial state."""


class PoleOnTrajectory(ValueError):
    """A candidate function hits a pole at a trajectory sample."""


class RegionViolation(ValueError):
    """A sample leaves the region where every logarithm is real."""


class _Record:
    """An immutable record: a subclass names its fields in ``__slots__`` and
    sets each once, through its slot's own setter in ``_set``.  A record
    equals and hashes as its class and its fields."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._key = operator.attrgetter("__class__", *cls.__slots__)   # one C call
        cls._set = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return f"{self.__class__.__name__}{tuple(map(self.__getattribute__, self.__slots__))}"


class ComplexRational(_Record):
    """An element of Q(i): real part rn/rd and imaginary part jn/jd, each in
    lowest terms with a positive denominator, so equality and hashing are
    exact and canonical.

    The constructor takes the parts as ``int``s or ``Fraction``s, which are
    already in that form.
    """

    __slots__ = ("rn", "rd", "jn", "jd")

    def __init__(self, re=0, im=0):
        _set_rn(self, re.numerator)
        _set_rd(self, re.denominator)
        _set_jn(self, im.numerator)
        _set_jd(self, im.denominator)

    def __bool__(self):
        return bool(self.rn or self.jn)

    @property
    def is_real(self) -> bool:
        return not self.jn

    def __str__(self) -> str:
        return format_cgauss(self)


# gaussian builds a value without __init__, through the slots' own setters
_set_rn, _set_rd, _set_jn, _set_jd = ComplexRational._set
_new = object.__new__


def gaussian(rn: int, rd: int, jn: int, jd: int) -> ComplexRational:
    """The value rn/rd + (jn/jd)i for rd, jd > 0, each part reduced with one gcd."""
    g, h = math.gcd(rn, rd), math.gcd(jn, jd)
    z = _new(ComplexRational)
    _set_rn(z, rn // g)
    _set_rd(z, rd // g)
    _set_jn(z, jn // h)
    _set_jd(z, jd // h)
    return z


# Wire grammar: rational ('+'|'-') rational 'i' | rational 'i' | rational,
# with rational = optional sign, integer, optional '/' positive-integer, and
# integers spelled in ASCII digits.  One match reads every form: the first
# rational (with its sign), then either the sign and the unsigned rational of
# an imaginary part or a bare 'i' making the first rational imaginary.
_WIRE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?(?:([+-])([0-9]+)(?:/([0-9]+))?i|(i))?")


def _parse_int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:   # past the interpreter's integer-string length limit
        raise ParameterParseError(
            f"integer of {len(digits)} digits is too long to parse") from None


def _parse_rational(num: str, den: str | None) -> tuple[int, int]:
    """A numerator and a positive denominator, in any terms; the denominator
    is read, and refused when zero, before the numerator."""
    if den is None:
        return _parse_int(num), 1
    d = _parse_int(den)
    if not d:
        raise ParameterParseError(f"zero denominator in {num + '/' + den!r}")
    return _parse_int(num), d


def parse_cgauss(text: str) -> ComplexRational:
    """Parse an exact Q(i) value such as ``1/2``, ``-2i`` or ``3/2+1/3i``."""
    token = text.strip()
    m = _WIRE.fullmatch(token)
    if m is None:
        raise ParameterParseError(f"malformed parameter {token!r}" if token
                                  else "empty parameter string")
    num, den, sign, jnum, jden, imag = m.groups()
    rn, rd = _parse_rational(num, den)
    if jnum is None:
        return gaussian(0, 1, rn, rd) if imag else gaussian(rn, rd, 0, 1)
    jn, jd = _parse_rational(jnum, jden)
    return gaussian(rn, rd, -jn if sign == "-" else jn, jd)


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


def printable(value) -> str:
    """``str(value)`` for an error message; a value holding an integer past
    the interpreter's int-to-str digit limit reads as a fixed placeholder
    that names the limit."""
    try:
        return str(value)
    except ValueError:
        return f"<a number of more than {sys.get_int_max_str_digits()} digits>"
