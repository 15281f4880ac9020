"""Parameter-locus classification tables, with per-branch literature citations.

Morley rank and degree values are transcribed from the cited classification
results, never computed from first principles; parameters the cited results
do not cover are reported as outside scope rather than guessed.  Where the
sources disagree (the third-level stratum of the sixth family), both values
are reported as a conflict.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .exactnum import ComplexRational, _Record
from .models import (
    ConstraintError,
    Coord,
    Family,
    FamilyInstance,
    SpecialValue,
    coord_to_str,
)


OUT_OF_SCOPE = "outside_paper_scope"


class Classification(_Record):
    """One table entry, its rank and degree in the form the document prints.

    The degree is ``{"exact": n}``, ``{"range": [lo, hi]}``,
    ``{"conflict": [a, b, ...]}`` or ``OUT_OF_SCOPE``.
    """

    __slots__ = ("family", "params", "stratum", "morley_rank", "morley_degree",
                 "citation", "notes")

    def __init__(self, family: Family, params: tuple[Coord, ...], stratum: str,
                 morley_rank: int | str, morley_degree: dict | str, citation: str,
                 notes: tuple[str, ...] = ()):
        (set_family, set_params, set_stratum, set_morley_rank, set_morley_degree,
         set_citation, set_notes) = self._set
        set_family(self, family)
        set_params(self, params)
        set_stratum(self, stratum)
        set_morley_rank(self, morley_rank)
        set_morley_degree(self, morley_degree)
        set_citation(self, citation)
        set_notes(self, notes)

    def to_json_dict(self) -> dict:
        return {
            "family": self.family.value,
            "params": [coord_to_str(p) for p in self.params],
            "stratum": self.stratum,
            "morley_rank": self.morley_rank,
            "morley_degree": self.morley_degree,
            "citation": self.citation,
            "notes": list(self.notes),
        }


CITATIONS = {
    "p2_half": "Umemura-Watanabe 1997, 2.7-2.9 (pp. 169-170)",
    "p3_D1": "Umemura-Watanabe 1998, Lemma 3.2",
    "p3_W1": "Umemura-Watanabe 1998, Lemma 3.1",
    "p3_generic": "Umemura-Watanabe 1998, Theorem 1.2(iii)",
    "p4_D": "Umemura-Watanabe 1997, Lemma 3.11",
    "p4_W": "Umemura-Watanabe 1997, Lemma 3.10",
    "p4_generic": "Umemura-Watanabe 1997, Corollaries 3.5 & 3.9 (Condition J)",
    "p5_W": "Watanabe 1995, Lemmas 3.1-3.4",
    "p5_generic": "Watanabe 1995, Corollary 2.6",
    "p6_generic": "Watanabe 1998, Theorem 2.1(v)",
    "p6_M": "Watanabe 1998, Props. 4.1, 4.4 & 4.9",
    "p6_P": "Watanabe 1998, Props. 4.2 & 4.5",
    "p6_L_three": "Watanabe 1998, Props. 4.3 & 4.6 (degree three)",
    "p6_L_four": "Watanabe 1998, Prop. 4.4 (degree four)",
    "p6_D": "Watanabe 1998, Prop. 4.7",
}

_SM_NOTE = "strongly minimal"


# --------------------------------------------------------------------------
# The sixth family: roots +-e_i +- e_j, integer-offset hyperplanes, rank strata.
# --------------------------------------------------------------------------

Root4 = tuple[int, int, int, int]


def _root(i: int, j: int, a: int, b: int) -> Root4:
    """a*e_i + b*e_j."""
    return tuple(a * (k == i) + b * (k == j) for k in range(4))


_PAIRS = tuple(itertools.combinations(range(4), 2))
# per pair i < j: i, j, then e_i - e_j and e_i + e_j, each with its negative
_PAIR_ROOTS = tuple((i, j, (_root(i, j, 1, -1), _root(i, j, -1, 1)),
                     (_root(i, j, 1, 1), _root(i, j, -1, -1))) for i, j in _PAIRS)
# the ends i < j of e_i -+ e_j
_ENDS = {_root(i, j, 1, b): (i, j) for i, j in _PAIRS for b in (-1, 1)}


def _keys(v: Sequence[Coord], m: int = 1) -> list[tuple]:
    """Per coordinate, its class key mod mZ and the class key of its negative.

    v_i - v_j lies in mZ iff v_i and v_j have one key, and v_i + v_j does
    iff v_i's key is -v_j's (reduced parts that differ by an integer share
    their denominators).  A concrete coordinate's key is (Re mod m, its
    denominator, Im), as the ints (rn mod m*rd, rd, jn, jd); a tagged
    coordinate's keys, its index and -1 minus it, equal no other key.
    """
    return [(i, -1 - i) if isinstance(c, SpecialValue) else
            ((c.rn % (m * c.rd), c.rd, c.jn, c.jd), (-c.rn % (m * c.rd), c.rd, -c.jn, c.jd))
            for i, c in enumerate(v)]


def integral_roots(v: Sequence[Coord]) -> list[Root4]:
    """Roots +-e_i +- e_j whose inner product with v is a (real) integer:
    pair by pair for i < j, e_i - e_j before e_i + e_j, each root followed
    by its negative, read off the class keys mod Z.
    """
    keys = _keys(v)
    roots = []
    for i, j, minus, plus in _PAIR_ROOTS:
        key, (same, negated) = keys[i][0], keys[j]
        if key == same:
            roots += minus
        if key == negated:
            roots += plus
    return roots


def p6_stratum(v: Sequence[Coord]) -> tuple[Root4, ...]:
    """Independent integral roots spanning all of them: their number is the
    rank, 1 through 4 for the strata M/P/L/D (the hyperplane offsets range
    over all integers, so this matches the unions-of-intersections picture
    with 2, 3 or 4 independent hyperplanes).

    An integral root joins two coordinates of one class {c, -c} mod Z, so
    the rank is a sum over classes (Zaslavsky, *Signed graphs*, Discrete
    Appl. Math. 4, 1982, with e_i - e_j a positive edge and e_i + e_j a
    negative one).  A class of n concrete coordinates spans n - 1
    dimensions, and one more when c = -c mod Z: then both roots of each of
    its pairs are integral and close a negative cycle.  The roots come pair
    by pair for i < j, so the first to reach j comes from the least member
    of j's class, its leader, and is j's witness; a later root of a pair
    from the leader is that pair's e_i + e_j, and the leader's first such
    root is the class's negative-cycle witness.  A root's negative is the
    same edge, so every other root is read.
    """
    if len(v) != 4:
        raise ConstraintError("expected four coordinates")
    leader, closed, witnesses = {}, set(), []
    for root in integral_roots(v)[::2]:
        i, j = _ENDS[root]
        if j not in leader:
            leader[j] = i
            witnesses.append(root)
        elif leader[j] == i and i not in closed:
            closed.add(i)
            witnesses.append(root)
    return tuple(witnesses)


# --------------------------------------------------------------------------
# classify
# --------------------------------------------------------------------------

def _out_of_scope(inst: FamilyInstance, note: str) -> Classification:
    return Classification(inst.family, inst.params, "outside_paper_scope",
                          OUT_OF_SCOPE, OUT_OF_SCOPE, "", (note,))


def _in_scope(inst: FamilyInstance, stratum: str, degree: dict,
              citation: str, notes: tuple[str, ...] = ()) -> Classification:
    if degree == {"exact": 1}:
        notes = notes + (_SM_NOTE,)
    return Classification(inst.family, inst.params, stratum, 1, degree,
                          citation, notes)


def _classify_p2(inst: FamilyInstance) -> Classification:
    alpha = inst.params[0]
    if isinstance(alpha, ComplexRational) and alpha.rd == 2 and not alpha.jn:
        return _in_scope(
            inst, "half_plus_integer", {"exact": 2}, CITATIONS["p2_half"],
            ("the fiber splits as an order-one curve plus its strongly "
             "minimal complement",))
    return _out_of_scope(
        inst, "only parameters in 1/2 + Z are covered by the cited results")


def _classify_p3(inst: FamilyInstance) -> Classification:
    # classes mod 2Z: v1 + v2 in 2Z iff v1's key is -v2's, v1 - v2 iff equal
    (k1, _), (k2, negated2) = _keys(inst.params, 2)
    if k1 == negated2 and k1[1:3] == (1, 0):   # (rd, jn): v1, so v2, in Z
        return _in_scope(inst, "D1", {"exact": 3}, CITATIONS["p3_D1"])
    if k1 in (k2, negated2):
        return _in_scope(inst, "W1_minus_D1", {"exact": 2}, CITATIONS["p3_W1"])
    return _in_scope(inst, "generic", {"exact": 1}, CITATIONS["p3_generic"])


def _classify_p4(inst: FamilyInstance) -> Classification:
    # v_i - v_j in Z iff v_i and v_j share a class mod Z
    classes = len({key for key, _ in _keys(inst.params)})
    if classes == 1:
        return _in_scope(inst, "D", {"exact": 3}, CITATIONS["p4_D"])
    if classes == 2:
        return _in_scope(inst, "W_minus_D", {"exact": 2}, CITATIONS["p4_W"])
    return _in_scope(inst, "generic", {"exact": 1}, CITATIONS["p4_generic"])


def _classify_p5(inst: FamilyInstance) -> Classification:
    if len({key for key, _ in _keys(inst.params)}) < 4:
        return _in_scope(
            inst, "W", {"range": [2, 4]}, CITATIONS["p5_W"],
            ("the cited lemmas bound the degree without spelling out the "
             "exact locus for each value",))
    return _in_scope(inst, "generic", {"exact": 1}, CITATIONS["p5_generic"])


_E3_MINUS_E4 = _root(2, 3, 1, -1)


def _classify_p6(inst: FamilyInstance) -> Classification:
    witnesses = p6_stratum(inst.params)
    rank = len(witnesses)
    if rank == 0:
        return _in_scope(inst, "generic", {"exact": 1}, CITATIONS["p6_generic"])
    if rank == 1:
        # at rank one, v3 - v4 lies in Z iff e3 - e4 is the one integral root
        v1, v2, _, _ = inst.params
        if (witnesses == (_E3_MINUS_E4,) and not isinstance(v1, SpecialValue)
                and not isinstance(v2, SpecialValue) and (v1.jn, v1.jd) == (v2.jn, v2.jd)
                # and v1 - v2 = s/d lies in 1/2 + Z iff s mod d is d/2
                and 2 * ((v1.rn * v2.rd - v2.rn * v1.rd) % (d := v1.rd * v2.rd)) == d):
            return _in_scope(
                inst, "M_minus_P", {"exact": 4}, CITATIONS["p6_M"],
                ("degree-four subcase: v1 - v2 in 1/2 + Z and v3 - v4 in Z",))
        return _in_scope(inst, "M_minus_P", {"exact": 2}, CITATIONS["p6_M"])
    if rank == 2:
        return _in_scope(inst, "P_minus_L", {"exact": 3}, CITATIONS["p6_P"])
    if rank == 3:
        citation = f"{CITATIONS['p6_L_three']}; {CITATIONS['p6_L_four']}"
        return _in_scope(
            inst, "L_minus_D", {"conflict": [3, 4]}, citation,
            ("the cited propositions assign both degree three and degree "
             "four to this stratum; the conflict is reported, not resolved",))
    return _in_scope(inst, "D", {"exact": 5}, CITATIONS["p6_D"])


_CLASSIFIERS = {
    Family.PII: _classify_p2,
    Family.PIII: _classify_p3,
    Family.PIV: _classify_p4,
    Family.PV: _classify_p5,
    Family.PVI: _classify_p6,
}


def classify(inst: FamilyInstance) -> Classification:
    """Stratum, Morley rank and Morley degree for one parameter vector."""
    handler = _CLASSIFIERS.get(inst.family)
    if handler is None:
        raise TypeError("the planar field family is classified by classify_xc")
    return handler(inst)


# --------------------------------------------------------------------------
# The planar field family: rank table per coupling constant.
# --------------------------------------------------------------------------

class XcReport(_Record):
    """Fiber and family ranks for the planar field  x' = c*y + y - c,
    y' = y*(y-1)/x.

    The family totals are fixed: Lascar rank two, Morley rank three; the gap
    comes from the rational-c fibers having rank two while a generic constant
    gives a strongly minimal fiber.
    """

    __slots__ = ("c", "c_kind", "fiber_lascar", "fiber_morley", "notes")

    def __init__(self, c: Coord, c_kind: str, fiber_lascar: int | str,
                 fiber_morley: int | str, notes: tuple[str, ...] = ()):
        set_c, set_c_kind, set_fiber_lascar, set_fiber_morley, set_notes = self._set
        set_c(self, c)
        set_c_kind(self, c_kind)
        set_fiber_lascar(self, fiber_lascar)
        set_fiber_morley(self, fiber_morley)
        set_notes(self, notes)

    def to_json_dict(self) -> dict:
        return {
            "family": Family.XC.value,
            "c": coord_to_str(self.c),
            "c_kind": self.c_kind,
            "fiber_lascar": self.fiber_lascar,
            "fiber_morley": self.fiber_morley,
            "family_lascar": 2,
            "family_morley": 3,
            "notes": list(self.notes),
        }


_MINUS_ONE = ComplexRational(-1)


def classify_xc(c: Coord) -> XcReport:
    """Rank table for one fiber of the planar field family."""
    if isinstance(c, ComplexRational):
        if not c.is_real:
            raise ConstraintError("the coupling constant must be real rational "
                                  "or tagged nonrational")
        if c == _MINUS_ONE:
            return XcReport(
                c, "rational", OUT_OF_SCOPE, OUT_OF_SCOPE,
                notes=("the dichotomy argument assumes c != -1; fiber ranks "
                       "are not covered for this value",))
        return XcReport(
            c, "rational", 2, 2,
            notes=("rational coupling: the exact first integral descends to "
                   "a definable map to the constants, so the fiber has rank "
                   "two",))
    if isinstance(c, SpecialValue):
        return XcReport(
            c, "non_rational_constant", 1, 1,
            notes=("non-rational coupling: no algebraic relation links the "
                   "two coordinates over a constant extension, so the fiber "
                   "is strongly minimal",))
    raise TypeError(f"cannot classify coupling constant {c!r}")
