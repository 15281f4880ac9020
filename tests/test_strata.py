"""Classification tables, the root-hyperplane strata and the rank reports."""

import importlib.resources
import json
import random
from collections import Counter
from fractions import Fraction

import jsonschema
import pytest

from painstrata.exactnum import ComplexRational, parse_cgauss
from painstrata.models import (
    PARAM_COUNT,
    ConstraintError,
    Family,
    FamilyInstance,
    GroupWord,
    SpecialValue,
    apply_word,
    generators_for,
)
from painstrata.strata import (
    CITATIONS,
    Classification,
    OUT_OF_SCOPE,
    classify,
    classify_xc,
    integral_roots,
    p6_stratum,
)

import oracles
from oracles import QI, qi

CR = ComplexRational


def crs(*values) -> tuple:
    return tuple(CR(Fraction(v)) for v in values)


def classify_strings(family: str, tokens) -> Classification:
    return classify(FamilyInstance.from_strings(family, tokens))


def signature(c: Classification):
    return (c.stratum, c.morley_rank, c.morley_degree)


class TestRoots:
    """The oracle's root table and inner product, which the brute force
    stands on."""

    def test_count_and_shape(self):
        assert len(oracles.ROOTS) == 24
        assert len(set(oracles.ROOTS)) == 24
        for r in oracles.ROOTS:
            assert sorted(map(abs, r)) == [0, 0, 1, 1]

    def test_inner_product(self):
        v = crs(Fraction(1, 2), Fraction(1, 3), 0, 0)
        assert oracles.root_inner(v, (1, 1, 0, 0)) == CR(Fraction(5, 6))
        assert oracles.root_inner(v, (0, 0, 1, -1)) == CR()
        w = (CR(Fraction(1, 2), Fraction(1)), CR(Fraction(1, 2), Fraction(-1)), CR(), CR())
        assert oracles.root_inner(w, (1, 1, 0, 0)) == CR(Fraction(1))
        assert oracles.root_inner(w, (1, -1, 0, 0)) == CR(Fraction(0), Fraction(2))

    def test_generic_coordinate_blocks_root(self):
        v = (SpecialValue.GENERIC, CR(), CR(), CR())
        assert oracles.root_inner(v, (1, 1, 0, 0)) is None
        assert oracles.root_inner(v, (0, 0, 1, 1)) == CR()
        assert not oracles.integral(None)

    def test_integral_roots_match_enumeration(self):
        rng = random.Random(102)
        for _ in range(300):
            v = oracles.p6_tangled_sample(rng)
            assert sorted(integral_roots(v)) == sorted(oracles.integral_hits(v)), v

    def test_class_keys_match_enumeration(self):
        # the class keys (Re mod 1, its denominator, Im) against the 24
        # enumerated inner products, in the documented order (each root then
        # its negative), on small and on large coprime denominators
        rng = random.Random(104)
        kinds = Counter()
        for n in range(6000):
            v = oracles.p6_tangled_sample(rng, oracles.large_part if n % 2 else None)
            expected = set(oracles.integral_hits(v))
            roots = integral_roots(v)
            assert len(roots) == len(expected) and set(roots) == expected, v
            assert all(r == tuple(-x for x in s) for r, s in zip(roots[::2], roots[1::2])), v
            witnesses = p6_stratum(v)
            assert set(witnesses) <= expected, v
            assert oracles.independent(list(witnesses)), v
            assert len(witnesses) == oracles.span_rank(expected), v
            concrete = [qi(c) for c in v if isinstance(c, CR)]
            kinds["tag"] += len(concrete) < 4 and bool(roots)
            kinds["non-real"] += any(c.im for c in concrete) and bool(roots)
            kinds["half"] += any(c.re.denominator == 2 for c in concrete) and bool(roots)
            kinds["negative"] += any(c.re.numerator < 0 for c in concrete) and bool(roots)
            kinds["large"] += any(c.re.denominator > 10**12 for c in concrete) and bool(roots)
            kinds[f"rank-{len(witnesses)}-{'large' if n % 2 else 'small'}"] += 1
        # every rank on small denominators; ranks 0-3 on large ones, whose
        # classes never hold their own negative and so close no negative cycle
        assert min(kinds.values()) >= 50 and len(kinds) == 5 + 5 + 4, kinds


def p6_letter(witnesses) -> str:
    return oracles.STRATUM_BY_RANK[len(witnesses)]


class TestP6Stratum:
    def test_origin(self):
        witnesses = p6_stratum(crs(0, 0, 0, 0))
        assert p6_letter(witnesses) == "D" and len(witnesses) == 4
        assert oracles.independent(list(witnesses))

    def test_generic_fractions(self):
        witnesses = p6_stratum(crs(Fraction(1, 5), Fraction(1, 7),
                                   Fraction(1, 11), Fraction(1, 13)))
        assert p6_letter(witnesses) == "generic" and witnesses == ()

    def test_rank_two_sample(self):
        # a class {c, -c} mod Z of n coordinates spans n - 1 dimensions, and
        # n when c = -c mod Z (the negative cycle of e_i - e_j and e_i + e_j)
        half, third = Fraction(1, 2), Fraction(1, 3)
        for v, rank, letter in (
            (crs(half, -half, Fraction(1, 7), Fraction(1, 11)), 2, "P"),
            (crs(half, half, half, half), 4, "D"),
            (crs(half, -half, third, third), 3, "L"),
            ((*crs(third, -third, third), SpecialValue.GENERIC), 2, "P"),
        ):
            witnesses = p6_stratum(v)
            assert p6_letter(witnesses) == letter and len(witnesses) == rank, v
            assert set(witnesses) <= set(oracles.integral_hits(v)), v
            assert oracles.independent(list(witnesses)), v
            assert oracles.brute_force_stratum(v) == letter, v

    def test_generic_tags_partial(self):
        v = (SpecialValue.GENERIC, CR(), CR(), CR())
        witnesses = p6_stratum(v)
        # roots supported away from the tagged coordinate still count
        assert len(witnesses) == 3 and p6_letter(witnesses) == "L"

    def test_oracle_equivalence(self):
        rng = random.Random(101)
        for _ in range(60):
            v = oracles.p6_sample(rng)
            assert p6_letter(p6_stratum(v)) == oracles.brute_force_stratum(v)

    def test_oracle_equivalence_tangled(self):
        # non-real and generic coordinates, and coordinates tied to earlier
        # ones, so that every rank and both kinds of component occur
        rng = random.Random(103)
        ranks = set()
        for _ in range(2000):
            v = oracles.p6_tangled_sample(rng)
            witnesses, hits = p6_stratum(v), oracles.integral_hits(v)
            assert p6_letter(witnesses) == oracles.brute_force_stratum(v), v
            assert set(witnesses) <= set(hits), v
            assert oracles.independent(list(witnesses)), v
            assert len(witnesses) == oracles.span_rank(hits), v
            ranks.add(len(witnesses))
        assert ranks == {0, 1, 2, 3, 4}

    def test_nesting_by_levels(self):
        rng = random.Random(7)
        for _ in range(1000):
            v = oracles.p6_sample(rng)
            levels = oracles.brute_force_levels(v)
            # D implies L implies P implies M, as set containments
            assert not (levels["D"] and not levels["L"])
            assert not (levels["L"] and not levels["P"])
            assert not (levels["P"] and not levels["M"])


def rank_one_p6(rng: random.Random) -> tuple:
    """A p6 vector that is often of rank one: v1 - v2 on or near 1/2 + Z,
    over equal or different real denominators (1/3 - 1/2 = -1/6), with
    imaginary parts that cancel in v1 - v2 or now and then do not, and
    v3 - v4 or v3 + v4 in Z; now and then a tag on v1 or v2, or the
    coordinates shuffled so that another root is the integral one."""
    im = Fraction(rng.randint(-2, 2), rng.choice((1, 3))) if rng.random() < 0.4 else Fraction(0)
    re1 = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6)))
    shift = rng.randint(-3, 3) + rng.choice((Fraction(1, 2), Fraction(1, 2), Fraction(1, 3)))
    im2 = im if rng.random() < 0.8 else im + Fraction(1, 2)
    v3 = CR(Fraction(rng.randint(-20, 20), rng.choice((5, 7, 11))),
            Fraction(rng.randint(-2, 2), 5) if rng.random() < 0.3 else Fraction(0))
    v4 = (rng.choice((1, 1, -1)) * qi(v3) + rng.randint(-3, 3)).exact()
    v = [CR(re1, im), CR(re1 - shift, im2), v3, v4]
    if rng.random() < 0.1:
        v[rng.randrange(2)] = rng.choice(tuple(SpecialValue))
    if rng.random() < 0.1:
        rng.shuffle(v)
    return tuple(v)


class TestP6DegreeFour:
    def test_degree_matches_oracle(self):
        """The M_minus_P degree against the fixed-position reading: 4 iff
        v1 - v2 lies in 1/2 + Z and v3 - v4 in Z."""
        rng = random.Random(104)
        kinds, seen = Counter(), 0
        while seen < 2000:
            v = rank_one_p6(rng)
            if oracles.span_rank(oracles.integral_hits(v)) != 1:
                continue
            seen += 1
            c = classify(FamilyInstance(Family.PVI, v))
            half = oracles.combo_in(v, (1, -1, 0, 0), *oracles.HALF_Z)
            four = half and oracles.combo_in(v, (0, 0, 1, -1), *oracles.Z)
            assert c.stratum == "M_minus_P", v
            assert c.morley_degree == {"exact": 4 if four else 2}, v
            v1, v2 = v[:2]
            if isinstance(v1, SpecialValue) or isinstance(v2, SpecialValue):
                kinds["tag on v1 or v2"] += 1
                continue
            if four:
                kinds["4, real denominators differ"] += v1.rd != v2.rd
                kinds["4, imaginary parts cancel"] += v1.jn != 0
            elif half:
                kinds["2, v3 + v4 in Z"] += oracles.combo_in(v, (0, 0, 1, 1), *oracles.Z)
            elif ((qi(v1) - v2).re - Fraction(1, 2)).denominator == 1:
                kinds["2, imaginary parts differ"] += oracles.combo_in(
                    v, (0, 0, 1, -1), *oracles.Z)
        assert len(kinds) == 5 and all(kinds.values()), kinds


class TestGoldenTable:
    @pytest.mark.parametrize("family,tokens,stratum,degree", [
        ("p2", ["-1/2"], "half_plus_integer", {"exact": 2}),
        ("p2", ["7/2"], "half_plus_integer", {"exact": 2}),
        ("p3", ["1", "1"], "D1", {"exact": 3}),
        ("p3", ["1/2", "3/2"], "W1_minus_D1", {"exact": 2}),
        ("p3", ["1", "0"], "generic", {"exact": 1}),
        ("p4", ["0", "0", "0"], "D", {"exact": 3}),
        ("p4", ["1/3", "-1/3", "0"], "generic", {"exact": 1}),
        ("p5", ["0", "0", "0", "0"], "W", {"range": [2, 4]}),
        ("p6", ["0", "0", "0", "0"], "D", {"exact": 5}),
        ("p6", ["1/5", "1/7", "1/11", "1/13"], "generic", {"exact": 1}),
        ("p6", ["1/2", "-1/2", "1/7", "1/11"], "P_minus_L", {"exact": 3}),
        ("p6", ["1/2", "0", "1/7", "1/7"], "M_minus_P", {"exact": 4}),
        ("p6", ["1/4", "3/4", "1/7", "1/9"], "M_minus_P", {"exact": 2}),
    ])
    def test_in_scope(self, family, tokens, stratum, degree):
        c = classify_strings(family, tokens)
        assert c.stratum == stratum
        assert c.morley_rank == 1
        assert c.morley_degree == degree
        assert c.citation

    def test_p2_outside_scope(self):
        c = classify_strings("p2", ["1/3"])
        assert c.morley_degree == OUT_OF_SCOPE
        assert c.morley_rank == OUT_OF_SCOPE
        assert c.notes
        c = classify_strings("p2", ["2"])
        assert c.morley_degree == OUT_OF_SCOPE

    def test_p6_conflict_with_both_citations(self):
        c = classify_strings("p6", ["0", "0", "0", "1/7"])
        assert c.stratum == "L_minus_D"
        assert c.morley_degree == {"conflict": [3, 4]}
        assert CITATIONS["p6_L_three"] in c.citation
        assert CITATIONS["p6_L_four"] in c.citation

    def test_strongly_minimal_note(self):
        c = classify_strings("p3", ["1", "0"])
        assert "strongly minimal" in c.notes

    def test_generic_tags(self):
        c = classify_strings("p2", ["generic"])
        assert c.morley_degree == OUT_OF_SCOPE
        c = classify_strings("p3", ["generic", "1"])
        assert signature(c) == ("generic", 1, {"exact": 1})
        c = classify_strings("p6", ["generic", "0", "0", "0"])
        assert signature(c) == ("L_minus_D", 1, {"conflict": [3, 4]})

    def test_complex_parameters_fall_outside_loci(self):
        c = classify(FamilyInstance(Family.PIII,
                                    (CR(Fraction(1), Fraction(1)), CR(Fraction(1)))))
        assert c.stratum == "generic"

    def test_xc_routed_elsewhere(self):
        with pytest.raises(TypeError):
            classify(FamilyInstance(Family.XC, crs(2)))


class TestInvariance:
    def ball(self, family, v, length):
        gens = generators_for(family)
        seen = {v}
        frontier = {v}
        for _ in range(length):
            nxt = set()
            for u in frontier:
                for g in gens:
                    w = apply_word(GroupWord(family, (g,)), u)
                    if w not in seen:
                        seen.add(w)
                        nxt.add(w)
            frontier = nxt
        return seen

    def test_p3_classification_invariant(self):
        rng = random.Random(55)
        for _ in range(40):
            v = oracles.p3_sample(rng)
            sig = signature(classify(FamilyInstance(Family.PIII, v)))
            for u in self.ball(Family.PIII, v, 4):
                assert signature(classify(FamilyInstance(Family.PIII, u))) == sig

    def test_p4_classification_invariant(self):
        rng = random.Random(56)
        for _ in range(40):
            v = oracles.p4_sum_zero_sample(rng)
            sig = signature(classify(FamilyInstance(Family.PIV, v)))
            for u in self.ball(Family.PIV, v, 4):
                assert signature(classify(FamilyInstance(Family.PIV, u))) == sig

    @pytest.mark.xfail(strict=True, reason=(
        "the M_minus_P degree-four test reads v1 - v2 and v3 - v4 at fixed "
        "positions, so swapping v2 and v3 moves the degree from 4 to 2 "
        "(ROADMAP item 14)"))
    def test_p6_degree_invariant_under_swap(self):
        a = classify_strings("p6", ["1/2", "0", "1/3", "1/3"])
        b = classify_strings("p6", ["1/2", "1/3", "0", "1/3"])
        assert signature(a) == signature(b), (a.morley_degree, b.morley_degree)

    def test_d1_contained_in_w1(self):
        rng = random.Random(57)
        for _ in range(100):
            a = rng.randint(-8, 8)
            b = a + 2 * rng.randint(-4, 4)  # even sum guaranteed: a+b = 2a+2k
            v = crs(a, b)
            c = classify(FamilyInstance(Family.PIII, v))
            assert c.stratum == "D1"
            # the defining sum condition is also the first W1 disjunct
            assert oracles.combo_in(v, (1, 1), *oracles.TWO_Z)

    def test_all_in_scope_ranks_are_one(self):
        rng = random.Random(58)
        for _ in range(60):
            for family, sample in (
                (Family.PIII, oracles.p3_sample(rng)),
                (Family.PIV, oracles.p4_sum_zero_sample(rng)),
                (Family.PVI, oracles.p6_sample(rng)),
            ):
                c = classify(FamilyInstance(family, sample))
                assert c.morley_rank == 1


class TestP5:
    def test_integer_difference_locus(self):
        c = classify_strings("p5", ["1/2", "-1/2", "3/2", "-3/2"])
        assert c.stratum == "W"
        assert c.morley_degree == {"range": [2, 4]}
        assert any("locus" in n for n in c.notes)

    def test_generic(self):
        # fourth coordinate closes the sum to zero; no pairwise difference
        # is an integer
        c = classify_strings("p5", ["1/3", "1/7", "1/11", "-131/231"])
        assert signature(c) == ("generic", 1, {"exact": 1})


class TestCosetOracle:
    """The second to fifth families and the planar field against the
    part-wise coset oracle, on tagged, non-real, shifted and
    large-denominator coordinates."""

    @pytest.mark.parametrize("family,n,sum_zero", [
        ("p2", 1, False), ("p3", 2, False), ("p4", 3, True), ("p5", 4, True),
    ])
    def test_classify_matches_oracle(self, family, n, sum_zero):
        rng = random.Random(f"coset:{family}")
        seen = set()
        for _ in range(1000):
            v = oracles.coset_sample(rng, n, sum_zero)
            stratum = classify(FamilyInstance.from_strings(
                family, [c.value if isinstance(c, SpecialValue) else str(c) for c in v])
            ).stratum
            assert stratum == oracles.coset_stratum(family, v), v
            assert classify(FamilyInstance(Family(family), v)).stratum == stratum
            nonreal = any(isinstance(c, CR) and c.jn for c in v)
            seen.add((stratum, nonreal))
        strata = {s for s, _ in seen}
        assert len(strata) == {"p2": 2, "p3": 3, "p4": 3, "p5": 2}[family], seen
        if family != "p2":   # a non-real vector also lands on a locus
            assert any(nonreal and s != "generic" for s, nonreal in seen), seen

    def test_xc_matches_oracle(self):
        rng = random.Random("coset:xc")
        seen = set()
        for _ in range(1000):
            c = oracles.coset_coord(rng, [CR(Fraction(-1))])
            want = oracles.xc_report(c)
            seen.add(want)
            if want == "constraint":
                with pytest.raises(ConstraintError):
                    classify_xc(c)
                continue
            report = classify_xc(c)
            rank = None if report.fiber_morley == OUT_OF_SCOPE else report.fiber_morley
            assert (report.c_kind, rank) == want, c
        assert seen == {"constraint", ("rational", 2), ("rational", None),
                        ("non_rational_constant", 1)}


def oracle_part(rng: random.Random) -> Fraction:
    den = rng.choice((1, 1, 2, 3, 4, 6, 12, 10 ** 30 + 57))
    return Fraction(rng.randint(-3 * den, 3 * den), den)


def spelled(re_part: Fraction, im_part: Fraction, rng: random.Random) -> CR:
    """The value parsed from a spelling whose imaginary part is unreduced,
    as in ``2/4i`` for ``1/2i``."""
    k = rng.randint(1, 5)
    im = f"{abs(im_part.numerator) * k}/{im_part.denominator * k}i"
    return parse_cgauss(f"{re_part}{'-' if im_part < 0 else '+'}{im}")


def member_pair(rng: random.Random) -> tuple:
    """a and b such that a + s*b is often on or near a lattice for s = +-1:
    b's real part is s*(t - Re a) for t in Z, 2Z, 1/2 + Z or 1/3 + Z, and
    its imaginary part cancels a's (spelled unreduced now and then), or
    else b is drawn on its own; a tag stands in for either now and then."""
    a = CR(oracle_part(rng), oracle_part(rng) if rng.random() < 0.4 else Fraction(0))
    if rng.random() < 0.7:
        s = rng.choice((1, -1))
        t = Fraction(rng.randint(-4, 4), 1) + rng.choice((0, 0, Fraction(1, 2), Fraction(1, 3)))
        im = -s * qi(a).im if rng.random() < 0.8 else oracle_part(rng)
        b = spelled(s * (t - qi(a).re), im, rng) if im and rng.random() < 0.5 \
            else CR(s * (t - qi(a).re), im)
    else:
        b = CR(oracle_part(rng), oracle_part(rng) if rng.random() < 0.4 else Fraction(0))
    if rng.random() < 0.05:
        a, b = rng.choice(((SpecialValue.GENERIC, b), (a, SpecialValue.NON_RATIONAL)))
    return a, b


class TestMemberPairs:
    """Pairs on or near a lattice through the p3 and p4 tables, against the
    part-wise coset oracle."""

    def test_examples(self):
        for family, tokens, stratum, degree in (
            # v1 - v2 = 1/2 over different real denominators, v3 - v4 in Z
            ("p6", ["1/3", "-1/6", "1/5", "1/5"], "M_minus_P", {"exact": 4}),
            ("p6", ["1/3", "1/6", "1/5", "1/5"], "M_minus_P", {"exact": 2}),
            # imaginary parts spelled unreduced that cancel in v1 + v2 or v1 - v2
            ("p3", ["1+1/2i", "3-2/4i"], "W1_minus_D1", {"exact": 2}),
            ("p3", ["1+1/2i", "-5+2/4i"], "W1_minus_D1", {"exact": 2}),
            ("p3", ["1+1/2i", "4+2/4i"], "generic", {"exact": 1}),
            ("p4", ["1+1/2i", "3+2/4i", "-4-1i"], "W_minus_D", {"exact": 2}),
        ):
            c = classify_strings(family, tokens)
            assert (c.stratum, c.morley_degree) == (stratum, degree), tokens
            if family != "p6":
                v = FamilyInstance.from_strings(family, tokens).params
                assert oracles.coset_stratum(family, v) == stratum, tokens

    def test_classify_matches_oracle(self):
        rng = random.Random(20)
        kinds, tagged = Counter(), 0
        for _ in range(3000):
            a, b = member_pair(rng)
            if isinstance(a, SpecialValue) or isinstance(b, SpecialValue):
                tagged += 1
                c = SpecialValue.GENERIC
            else:
                c = (-(qi(a) + b)).exact()
            for family, v in ((Family.PIII, (a, b)), (Family.PIV, (a, b, c))):
                stratum = classify(FamilyInstance(family, v)).stratum
                assert stratum == oracles.coset_stratum(family.value, v), (family, v)
                if isinstance(c, CR):
                    cancels = a.jn != 0 and abs(a.jn) == abs(b.jn) and a.jd == b.jd
                    kinds[(family, a.rd == b.rd, cancels, stratum != "generic")] += 1
        assert tagged, "no tagged pair"
        # both verdicts, with equal and with different real denominators;
        # two reduced fractions over different denominators never sum or
        # differ to an integer, but for p4 the third coordinate -a-b gives
        # 2a + b and a + 2b as well
        assert {(family, same, on) for family, same, _, on in kinds} == {
            (family, same, on) for family in (Family.PIII, Family.PIV)
            for same in (True, False) for on in (True, False)
            if same or not on or family is Family.PIV}, kinds
        # nonzero imaginary parts that cancel, on a locus of each table
        assert all(kinds[(family, True, True, True)]
                   for family in (Family.PIII, Family.PIV)), kinds


class TestFractionOracle:
    """The p4/p5 sum-zero check against the ``Fraction`` arithmetic it
    replaced (``oracles.fraction_sum_zero_error``)."""

    @pytest.mark.parametrize("family", [Family.PIV, Family.PV], ids=lambda f: f.value)
    def test_sum_zero_agrees(self, family):
        rng = random.Random(f"sum-zero:{family.value}")
        outcomes = Counter()
        for _ in range(1000):
            v = [CR(oracle_part(rng), oracle_part(rng) if rng.random() < 0.4 else Fraction(0))
                 for _ in range(PARAM_COUNT[family] - 1)]
            last = -sum(v, QI())
            if rng.random() < 0.5:
                last = last + rng.choice((CR(Fraction(1, 10 ** 30 + 57)), CR(1),
                                          CR(0, Fraction(1, 3)), CR(Fraction(-1, 2), 2)))
            v.append(SpecialValue.GENERIC if rng.random() < 0.05 else last.exact())
            expected = oracles.fraction_sum_zero_error(family, v)
            try:
                FamilyInstance(family, tuple(v))
                got = None
            except ConstraintError as err:
                got = str(err)
            assert got == expected, v
            outcomes[expected is None] += 1
        assert outcomes[True] > 300 and outcomes[False] > 300, outcomes


class TestXcReport:
    def test_rational(self):
        report = classify_xc(CR(Fraction(2)))
        assert (report.fiber_lascar, report.fiber_morley) == (2, 2)
        assert report.c_kind == "rational"

    def test_zero_is_rational(self):
        report = classify_xc(CR(Fraction(0)))
        assert (report.fiber_lascar, report.fiber_morley) == (2, 2)

    def test_non_rational(self):
        report = classify_xc(SpecialValue.NON_RATIONAL)
        assert (report.fiber_lascar, report.fiber_morley) == (1, 1)
        assert report.c_kind == "non_rational_constant"

    def test_minus_one_excluded(self):
        report = classify_xc(CR(Fraction(-1)))
        assert report.fiber_lascar == OUT_OF_SCOPE
        assert report.fiber_morley == OUT_OF_SCOPE
        assert any("-1" in n for n in report.notes)

    def test_complex_rejected(self):
        with pytest.raises(ConstraintError):
            classify_xc(CR(Fraction(0), Fraction(1)))

    def test_bare_number_is_not_a_coordinate(self):
        with pytest.raises(TypeError):
            classify_xc(2)

    def test_json_shape(self):
        doc = classify_xc(CR(Fraction(1, 2))).to_json_dict()
        assert doc["family"] == "xc"
        assert doc["c"] == "1/2"
        assert doc["family_morley"] == 3

    def test_family_totals_pinned(self):
        for c in (CR(Fraction(2)), CR(Fraction(-1)), SpecialValue.NON_RATIONAL):
            doc = classify_xc(c).to_json_dict()
            assert (doc["family_lascar"], doc["family_morley"]) == (2, 3)


class TestSerialization:
    def test_classification_json(self):
        doc = classify_strings("p3", ["1", "1"]).to_json_dict()
        assert doc == {
            "family": "p3",
            "params": ["1", "1"],
            "stratum": "D1",
            "morley_rank": 1,
            "morley_degree": {"exact": 3},
            "citation": CITATIONS["p3_D1"],
            "notes": [],
        }

    def test_out_of_scope_json(self):
        doc = classify_strings("p2", ["1/3"]).to_json_dict()
        assert doc["morley_rank"] == "outside_paper_scope"
        assert doc["morley_degree"] == "outside_paper_scope"
        assert doc["citation"] == ""


class TestTableValues:
    """One representative per table branch: the document validates, an
    in-scope entry has rank one and a citation, a range increases and a
    conflict lists at least two distinct values in order."""

    SCHEMA = json.loads(
        importlib.resources.files("painstrata").joinpath("schema.json").read_text())

    @pytest.mark.parametrize("family,tokens,stratum", [
        ("p2", ["1/2"], "half_plus_integer"),
        ("p2", ["1/3"], "outside_paper_scope"),
        ("p3", ["1", "1"], "D1"),
        ("p3", ["1/2", "3/2"], "W1_minus_D1"),
        ("p3", ["1", "0"], "generic"),
        ("p4", ["0", "0", "0"], "D"),
        ("p4", ["1/2", "1/2", "-1"], "W_minus_D"),
        ("p4", ["1/3", "-1/3", "0"], "generic"),
        ("p5", ["0", "0", "0", "0"], "W"),
        ("p5", ["1/3", "1/7", "1/11", "-131/231"], "generic"),
        ("p6", ["1/5", "1/7", "1/11", "1/13"], "generic"),
        ("p6", ["1/4", "3/4", "1/7", "1/9"], "M_minus_P"),
        ("p6", ["1/2", "0", "1/7", "1/7"], "M_minus_P"),
        ("p6", ["1/2", "-1/2", "1/7", "1/11"], "P_minus_L"),
        ("p6", ["0", "0", "0", "1/7"], "L_minus_D"),
        ("p6", ["0", "0", "0", "0"], "D"),
    ])
    def test_classification(self, family, tokens, stratum):
        c = classify_strings(family, tokens)
        assert c.stratum == stratum
        doc = c.to_json_dict()
        jsonschema.validate(doc, self.SCHEMA)
        degree = doc["morley_degree"]
        if degree == OUT_OF_SCOPE:
            assert doc["morley_rank"] == OUT_OF_SCOPE
            return
        assert doc["morley_rank"] == 1
        assert doc["citation"]
        if "range" in degree:
            lo, hi = degree["range"]
            assert 1 <= lo < hi
        if "conflict" in degree:
            values = degree["conflict"]
            assert values == sorted(set(values)) and len(values) >= 2

    @pytest.mark.parametrize("c,ranks", [
        (CR(Fraction(2)), (2, 2)),
        (CR(Fraction(-1)), (OUT_OF_SCOPE, OUT_OF_SCOPE)),
        (SpecialValue.NON_RATIONAL, (1, 1)),
    ])
    def test_xc(self, c, ranks):
        doc = classify_xc(c).to_json_dict()
        jsonschema.validate(doc, self.SCHEMA)
        assert (doc["fiber_lascar"], doc["fiber_morley"]) == ranks
