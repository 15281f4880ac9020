"""The dynamical systems and their parameter groups.

Families are identified by their CLI tags: ``p2 p3 p4 p5 p6 xc``.  The second
family is stored as the first-order pair (y, y1), the third through fifth as
(q, p) pairs with any 1/t factor moved to the right-hand side (t = 0 is a
fixed singularity).  The p2, p4 and p5 fields are Hamiltonian; the shipped p3
field is not (divergence -2*v1/t).  ``xc`` is x' = c*y + y - c, y' = y*(y-1)/x.
"""

from __future__ import annotations

import enum
import functools
import importlib
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Sequence, Union

from .exactnum import (ComplexRational, ConstraintError, ParameterParseError, gaussian,
                       parse_cgauss, printable)

if TYPE_CHECKING:
    from .ratfunc import RationalFunction, Var


class Family(enum.Enum):
    PII = "p2"
    PIII = "p3"
    PIV = "p4"
    PV = "p5"
    PVI = "p6"
    XC = "xc"


PARAM_COUNT = {
    Family.PII: 1,
    Family.PIII: 2,
    Family.PIV: 3,
    Family.PV: 4,
    Family.PVI: 4,
    Family.XC: 1,
}


class SpecialValue(enum.Enum):
    """Non-Q(i) parameter tags accepted on the wire."""

    GENERIC = "generic"
    NON_RATIONAL = "nonrational"


Coord = Union[ComplexRational, SpecialValue]


_TAGS = {tag.value: tag for tag in SpecialValue}
_FAMILIES = {family.value: family for family in Family}


def parse_coord(token: str) -> Coord:
    token = token.strip().lower()
    return _TAGS[token] if token in _TAGS else parse_cgauss(token)


def coord_to_str(c: Coord) -> str:
    return c.value if isinstance(c, SpecialValue) else str(c)


@dataclass(frozen=True)
class FamilyInstance:
    """A family tag plus its exact parameter vector."""

    family: Family
    params: tuple[Coord, ...]

    def __post_init__(self):
        expected = PARAM_COUNT[self.family]
        if len(self.params) != expected:
            raise ConstraintError(
                f"{self.family.value} takes {expected} parameter(s), "
                f"got {len(self.params)}")
        if (self.family in (Family.PIV, Family.PV)
                and not any(isinstance(p, SpecialValue) for p in self.params)):
            dr = math.lcm(*(p.rd for p in self.params))
            di = math.lcm(*(p.jd for p in self.params))
            re = sum(p.rn * (dr // p.rd) for p in self.params)
            im = sum(p.jn * (di // p.jd) for p in self.params)
            if re or im:
                raise ConstraintError(
                    f"{self.family.value} parameters must sum to zero exactly "
                    f"(got {printable(gaussian(re, dr, im, di))})")
        if self.family is Family.XC:
            c = self.params[0]
            if isinstance(c, ComplexRational) and not c.is_real:
                raise ConstraintError("the coupling constant must be a real "
                                      "rational or tagged nonrational")

    @classmethod
    def from_strings(cls, family: Family | str, tokens: Iterable[str]) -> "FamilyInstance":
        if isinstance(family, str):
            tag, family = family, _FAMILIES.get(family)
            if family is None:
                raise ParameterParseError(f"unknown family {tag!r}")
        return cls(family, tuple(parse_coord(tok) for tok in tokens))


# --------------------------------------------------------------------------
# Affine transformation groups for the third and fourth families.
# --------------------------------------------------------------------------

class P3Generator(enum.Enum):
    S1 = "s1"
    S2 = "s2"
    S3 = "s3"
    S4 = "s4"


class P4Generator(enum.Enum):
    S0 = "s0"
    S1 = "s1"
    S2 = "s2"
    TMINUS = "tminus"


Generator = Union[P3Generator, P4Generator]


def _generator_family(g: Generator) -> Family:
    return Family.PIII if isinstance(g, P3Generator) else Family.PIV


@dataclass(frozen=True)
class GroupWord:
    """An ordered list of generators, applied left to right."""

    family: Family
    generators: tuple[Generator, ...] = ()

    def __post_init__(self):
        for g in self.generators:
            if _generator_family(g) is not self.family:
                raise ConstraintError(f"generator {g.value} does not act on "
                                      f"{self.family.value}")

    def names(self) -> list[str]:
        return [g.value for g in self.generators]

    def __len__(self) -> int:
        return len(self.generators)


def _integer_coords(family: Family, *vectors: Sequence[ComplexRational],
                    base: int = 1, plane: bool = False) -> tuple:
    """Common denominators dr (a multiple of ``base``) of the real parts and di
    of the imaginary parts, and each vector as the pairs (Re c*dr, Im c*di):
    tuple order on pairs is the (Re, Im) lexicographic order of the values,
    and "+1" is "+dr" on the real part.  With ``plane``, each must sum to zero."""
    for v in vectors:
        if len(v) != PARAM_COUNT[family]:
            raise ConstraintError(f"{family.value} parameter vector has "
                                  f"{PARAM_COUNT[family]} coordinates, got {len(v)}")
        if any(isinstance(c, SpecialValue) for c in v):
            raise ConstraintError("transformations require concrete Q(i) values")
    dr = math.lcm(base, *(c.rd for v in vectors for c in v))
    di = math.lcm(*(c.jd for v in vectors for c in v))
    ws = tuple(tuple((c.rn * (dr // c.rd), c.jn * (di // c.jd)) for c in v)
               for v in vectors)
    if plane and any(any(map(sum, zip(*w))) for w in ws):
        raise ConstraintError("parameter vector must lie on the sum-zero plane")
    return (dr, di, *ws)


def _values(w: tuple, dr: int, di: int) -> tuple:
    return tuple(gaussian(a, dr, b, di) for a, b in w)


def _act(g: Generator, w: tuple, d: int) -> tuple:
    """One generator on integer coordinates, real parts over d (3 | d for tminus)."""
    if isinstance(g, P3Generator):
        (a1, b1), (a2, b2) = w
        if g is P3Generator.S1:
            return ((a2, b2), (a1, b1))
        if g is P3Generator.S2:
            return ((-a2, -b2), (-a1, -b1))
        if g is P3Generator.S3:
            return ((a2 + d, b2), (a1 - d, b1))
        return ((d - a2, -b2), (d - a1, -b1))
    x1, x2, x3 = w
    if g is P4Generator.S1:
        return (x2, x1, x3)
    if g is P4Generator.S2:
        return (x3, x2, x1)
    if g is P4Generator.TMINUS:   # the shift (-1/3, -1/3, 2/3)
        t = d // 3
        return ((x1[0] - t, x1[1]), (x2[0] - t, x2[1]), (x3[0] + 2 * t, x3[1]))
    # s0 is the composite tminus^-1 s1 s2 s1 tminus (rightmost acts first)
    return (x1, (x3[0] + d, x3[1]), (x2[0] - d, x2[1]))


def apply_word(word: GroupWord, v: Sequence[ComplexRational]) -> tuple:
    """The exact affine image of a parameter vector under a word."""
    base = 3 if P4Generator.TMINUS in word.generators else 1
    dr, di, w = _integer_coords(word.family, v, base=base)
    for g in word.generators:
        w = _act(g, w, dr)
    return _values(w, dr, di)


def generators_for(family: Family) -> tuple[Generator, ...]:
    if family is Family.PIII:
        return tuple(P3Generator)
    if family is Family.PIV:
        return (P4Generator.S0, P4Generator.S1, P4Generator.S2)
    raise ConstraintError(f"no transformation group is shipped for {family.value}")


# --------------------------------------------------------------------------
# Fundamental region for the fourth family.
# --------------------------------------------------------------------------

class BudgetExceededError(RuntimeError):
    """Reduction step budget ran out; carries the partial word for debugging."""

    def __init__(self, partial_word: GroupWord):
        super().__init__(f"reduction did not reach the fundamental region "
                         f"within {len(partial_word)} steps; partial word "
                         f"{partial_word.names()}")
        self.partial_word = partial_word


def _violated_wall(w: tuple, d: int) -> Generator | None:
    """The generator of the first wall w violates, in the order v2-v1, v1-v3,
    v3-v2+1, each read as (Re, Im) >= (0, 0) in lexicographic order."""
    x1, x2, x3 = w
    if x2 < x1:
        return P4Generator.S1
    if x1 < x3:
        return P4Generator.S2
    if (x3[0] + d, x3[1]) < x2:
        return P4Generator.S0
    return None


def in_fundamental_region_p4(v: Sequence[ComplexRational]) -> bool:
    """The three region conditions, each read as (Re, Im) >= (0, 0) in
    lexicographic order, applied to v2-v1, v1-v3 and v3-v2+1."""
    dr, _, w = _integer_coords(Family.PIV, v, plane=True)
    return _violated_wall(w, dr) is None


MAX_REDUCTION_STEPS = 10_000   # the partial word is held and printed in full


def reduce_to_fundamental_region_p4(v: Sequence[ComplexRational],
                                    max_steps: int = 200) -> tuple[tuple, GroupWord]:
    """Greedy wall-crossing descent into the fundamental region: the
    representative and the witnessing word (replaying the word on the input
    reproduces the output exactly), or :class:`BudgetExceededError` rather
    than a point outside the region."""
    if not 1 <= max_steps <= MAX_REDUCTION_STEPS:
        raise ConstraintError(f"max_steps must be between 1 and "
                              f"{MAX_REDUCTION_STEPS}, got {max_steps}")
    dr, di, w = _integer_coords(Family.PIV, v, plane=True)
    word: list[Generator] = []
    while (g := _violated_wall(w, dr)) is not None:
        if len(word) == max_steps:
            raise BudgetExceededError(GroupWord(Family.PIV, tuple(word)))
        word.append(g)
        w = _act(g, w, dr)
    return _values(w, dr, di), GroupWord(Family.PIV, tuple(word))


# --------------------------------------------------------------------------
# Orbit search (breadth-first over words; the groups are infinite, so a
# negative certificate is never produced).
# --------------------------------------------------------------------------

MAX_WORD_LENGTH = 100   # the search holds about 2n^2 values at word length n;
                        # a p3 search takes about 0.2 s at 100 and 5 s at 400


@dataclass(frozen=True)
class Related:
    word: GroupWord


@dataclass(frozen=True)
class Unknown:
    """No word up to the searched length reaches the target."""


def orbit_search(a: Sequence[ComplexRational], b: Sequence[ComplexRational],
                 family: Family, max_word_length: int) -> Related | Unknown:
    if not 0 <= max_word_length <= MAX_WORD_LENGTH:
        raise ConstraintError(f"the maximum word length must be between 0 and "
                              f"{MAX_WORD_LENGTH}, got {max_word_length}")
    dr, di, a, b = _integer_coords(family, a, b, plane=family is Family.PIV)
    gens = generators_for(family)
    if a == b:
        return Related(GroupWord(family))
    # every image of a keeps a's denominators, so its real parts are
    # multiples of dr / lcm(a's real denominators), the first gcd below, and
    # likewise its imaginary parts; b's are not when either exceeds 1
    if math.gcd(dr, *(x for x, _ in a)) > 1 or math.gcd(di, *(y for _, y in a)) > 1:
        return Unknown()
    frontier = {a: ()}
    seen = {a}
    for _ in range(max_word_length):
        nxt: dict[tuple, tuple] = {}
        for value, path in frontier.items():
            for g in gens:
                image = _act(g, value, dr)
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
# Right-hand sides.
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SystemRHS:
    """First-order system with exact rational right-hand sides."""

    family: Family
    variables: tuple[str, ...]
    rhs: tuple[RationalFunction, ...]
    t_singularities: tuple[Fraction, ...] = ()

    def as_map(self) -> dict[str, RationalFunction]:
        return dict(zip(self.variables, self.rhs))

    def free_parameters(self) -> set[str]:
        return {v.name for f in self.rhs for v in f.variables()
                if not v.differential and v.name != "t"}


DEFAULT_TOL = 1e-10   # the step tolerance, relative and absolute alike
DEFAULT_BLOWUP_THRESHOLD = 1e8

_SYSTEM_TEMPLATES = {
    Family.PII: (
        ("y", "y1"),
        ("a",),
        ("y1", "2*y^3 + t*y + a"),
        (),
    ),
    Family.PIII: (
        ("q", "p"),
        ("v1", "v2"),
        ("(2*q^2*p - q^2 - v1*q + t)/t",
         "(-2*q*p^2 + 2*q*p - v1*p + (v1 + v2)/2)/t"),
        (Fraction(0),),
    ),
    Family.PIV: (
        ("q", "p"),
        ("v1", "v2", "v3"),
        ("2*p*q - q^2 - 2*t*q + 2*(v1 - v2)",
         "2*p*q - p^2 + 2*t*p + 2*(v1 - v3)"),
        (),
    ),
    Family.PV: (
        ("q", "p"),
        ("v1", "v2", "v3", "v4"),
        ("(2*q^2*p - 2*q*p + t*q^2 - t*q + (v1 - v2 - v3 + v4)*q + v2 - v1)/t",
         "(-2*q*p^2 + p^2 - 2*t*p*q + t*p - (v1 - v2 - v3 + v4)*p + (v3 - v1)*t)/t"),
        (Fraction(0),),
    ),
    Family.XC: (
        ("x", "y"),
        ("c",),
        ("c*y + y - c", "y*(y-1)/x"),
        (),
    ),
}


def _deferred(module: str, name: str):
    """A stand-in for the callable ``name`` of the package module ``module``:
    its first call imports the module, and it keeps what it found.  It never
    rebinds the name it is bound to, so a hook wrapped around it stays."""
    @functools.cache
    def loaded():
        return getattr(importlib.import_module(f"{__package__}.{module}"), name)
    return lambda *args, **kwargs: loaded()(*args, **kwargs)


rf = _deferred("symbolic", "rf")
_parsed = functools.cache(rf)   # the one parse of each text above, on first use
_symbol = functools.cache(_deferred("ratfunc", "Var"))   # each parameter's Var, made once


def system_rhs(inst: FamilyInstance) -> SystemRHS:
    """Exact right-hand sides with concrete parameters substituted in.

    Coordinates tagged generic/nonrational stay as parameter symbols; the
    numeric layer refuses systems with free symbols left over.
    """
    if inst.family is Family.PVI:
        raise ConstraintError(
            "no explicit first-order system is shipped for the sixth family; "
            "only classification is available")
    variables, param_names, texts, sing = _SYSTEM_TEMPLATES[inst.family]
    env: dict[Var, Fraction] = {}
    for name, value in zip(param_names, inst.params):
        if isinstance(value, SpecialValue):
            continue
        if not value.is_real:
            raise ConstraintError(
                "system right-hand sides are built over the rationals; "
                f"coordinate {name}={value} has a nonzero imaginary part")
        env[_symbol(False, name)] = Fraction(value.rn, value.rd)
    rhs = tuple(_parsed(text, params=param_names, variables=variables)
                .substitute(env) for text in texts)
    return SystemRHS(inst.family, variables, rhs, sing)


def riccati_curve(sign: str) -> RationalFunction:
    """The right side g of the two signed Riccati curves  y1 = g  of the
    second family's (y, y1) system at half-integer alpha.

    ``plus`` is  g = y^2 + t/2, invariant at alpha = +1/2, and ``minus`` is
    its negation, invariant at alpha = -1/2; the crossed pairings leave the
    constant residuals 1 and -1.
    """
    if sign not in ("plus", "minus"):
        raise ValueError("sign must be 'plus' or 'minus'")
    g = _parsed("y^2 + t/2", variables=("y",))
    return g if sign == "plus" else -g


def xc_first_integral(c: int, convention: str = "y_minus_one") -> RationalFunction:
    """The conserved quantity of the planar field, y^c*(y-1)/x by default.

    The ``one_minus_y`` convention differs by an overall sign, which does not
    affect constancy; reports should name the convention used.
    """
    if not isinstance(c, int) or c < 0:
        raise ConstraintError("the exact first integral is shipped for integer c >= 0")
    if convention not in ("y_minus_one", "one_minus_y"):
        raise ValueError("convention must be 'y_minus_one' or 'one_minus_y'")
    from .ratfunc import RationalFunction, Var
    x, y = (RationalFunction.variable(Var(True, name)) for name in ("x", "y"))
    integral = y ** c * (y - 1) / x
    return -integral if convention == "one_minus_y" else integral
