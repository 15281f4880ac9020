"""Independent reference implementations used to pin expected values.

Everything here deliberately avoids the code paths it checks: the 24 roots
are enumerated here, inner products are summed part by part, and stratum
membership is decided by enumerating root combinations with integer minors
(not by the package's signed-graph rank).  Random parameter vectors come
from seeded generators so frozen expectations stay stable.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from painstrata.exactnum import ComplexRational
from painstrata.models import SpecialValue

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
                                       im if rng.random() < 0.4 else 0))
    return tuple(out)


def p3_sample(rng: random.Random) -> tuple[ComplexRational, ...]:
    return tuple(rational_coord(rng) for _ in range(2))


def p4_sum_zero_sample(rng: random.Random) -> tuple[ComplexRational, ...]:
    a = rational_coord(rng)
    b = rational_coord(rng)
    return (a, b, -(a + b))
