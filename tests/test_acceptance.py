"""Acceptance suite: one test per criterion, at the stated tolerances.

Each criterion prints a single PASS line (through the capture-disabled
channel, so the lines are visible in normal pytest runs); failures surface
as ordinary assertion errors.
"""

import json
import math
import random
import time
from fractions import Fraction

import jsonschema

import importlib.resources

from painstrata import cli
from painstrata.exactnum import ComplexRational, format_cgauss, parse_cgauss
from painstrata.models import (
    Family,
    FamilyInstance,
    GroupWord,
    apply_word,
    generators_for,
    in_fundamental_region_p4,
    reduce_to_fundamental_region_p4,
    riccati_curve,
    system_rhs,
    xc_first_integral,
)
from painstrata.numverify import (
    IntegrationSpec,
    integrate,
    conservation_drift,
    log_relation_drift,
)
from painstrata.strata import (
    CITATIONS,
    OUT_OF_SCOPE,
    classify,
    p6_stratum,
)
from painstrata.symbolic import quotient_of_partials, rf, verify_first_integral, \
    verify_subvariety

import oracles

CR = ComplexRational


def crs(*values):
    return tuple(CR(Fraction(v)) for v in values)


def report(capsys, n, text):
    with capsys.disabled():
        print(f"\nACCEPTANCE {n} PASS: {text}")


def test_criterion_1_classification_golden_table(capsys):
    start = time.monotonic()
    table = [
        ("p2", ["-1/2"], 1, {"exact": 2}),
        ("p2", ["7/2"], 1, {"exact": 2}),
        ("p3", ["1", "1"], 1, {"exact": 3}),
        ("p3", ["1/2", "3/2"], 1, {"exact": 2}),
        ("p3", ["1", "0"], 1, {"exact": 1}),
        ("p4", ["0", "0", "0"], 1, {"exact": 3}),
        ("p4", ["1/3", "-1/3", "0"], 1, {"exact": 1}),
        ("p5", ["0", "0", "0", "0"], 1, {"range": [2, 4]}),
        ("p6", ["0", "0", "0", "0"], 1, {"exact": 5}),
        ("p6", ["1/5", "1/7", "1/11", "1/13"], 1, {"exact": 1}),
    ]
    for family, tokens, rank, degree in table:
        c = classify(FamilyInstance.from_strings(family, tokens))
        assert c.morley_rank == rank, (family, tokens)
        assert c.morley_degree == degree, (family, tokens)
    out = classify(FamilyInstance.from_strings("p2", ["1/3"]))
    assert out.morley_rank == OUT_OF_SCOPE
    assert out.morley_degree == OUT_OF_SCOPE
    for tokens in (["0", "0", "0", "1/7"], ["1/2", "1/2", "1/2", "1/3"]):
        c = classify(FamilyInstance.from_strings("p6", tokens))
        assert c.stratum == "L_minus_D"
        assert c.morley_degree == {"conflict": [3, 4]}
        assert CITATIONS["p6_L_three"] in c.citation
        assert CITATIONS["p6_L_four"] in c.citation
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(capsys, 1, f"golden classification table exact in {elapsed:.3f}s")


def test_criterion_2_riccati_containment(capsys):
    start = time.monotonic()
    half = Fraction(1, 2)

    def field(alpha):
        return system_rhs(FamilyInstance(Family.PII, crs(alpha)))
    matched = 0.0
    # each curve y1 = g, its fiber, and y1 on the curve at (t, y) = (0, 1)
    for g, alpha, y1 in ((riccati_curve("minus"), -half, -1.0),
                         (riccati_curve("plus"), half, 1.0)):
        assert verify_subvariety(field(alpha).as_map(), "y1", g).is_zero()
        # numerically: y1 - g stays 0 along the (y, y1) flow started on the
        # curve in its own fiber, and not in the other
        drift = {}
        for fiber in (alpha, -alpha):
            traj = integrate(IntegrationSpec(field(fiber), 0.0, 0.5, (1.0, y1),
                                             tol=1e-10))
            assert traj.completed
            drift[fiber] = conservation_drift(traj, rf("y1") - g)
        assert drift[alpha] < 1e-8
        assert drift[-alpha] > 0.1
        matched = max(matched, drift[alpha])
    crossed = verify_subvariety(field(-half).as_map(), "y1", riccati_curve("plus"))
    assert str(crossed) == "1"
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(capsys, 2, "containment verified symbolically and numerically "
                      f"(max drift of y1 - g {matched:.2e}) "
                      f"in {elapsed:.3f}s")


def test_criterion_3_first_integral_suite(capsys):
    start = time.monotonic()
    for c in range(0, 6):
        F = xc_first_integral(c)
        field = system_rhs(FamilyInstance(Family.XC, crs(c))).as_map()
        assert verify_first_integral(F, field).is_zero(), c
        dx, dy = field.values()
        assert quotient_of_partials(F) == dy / dx, c
    sys2 = system_rhs(FamilyInstance(Family.XC, crs(2)))
    traj = integrate(IntegrationSpec(sys2, 0.0, 0.3, (1.0, 0.5)))
    drift = conservation_drift(traj, xc_first_integral(2))
    assert drift < 1e-6
    root2 = math.sqrt(2)
    sys_r = system_rhs(FamilyInstance(Family.XC, (CR(Fraction(root2)),)))
    traj_r = integrate(IntegrationSpec(sys_r, 0.0, 0.3, (1.0, 0.5)))
    log_drift = log_relation_drift(traj_r, root2)
    assert log_drift < 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 2.0
    report(capsys, 3, f"c in 0..5 conserved exactly; drift {drift:.2e}, "
                      f"log drift {log_drift:.2e} in {elapsed:.3f}s")


def _word_ball(family, v, length):
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


def test_criterion_4_invariance_suite(capsys):
    start = time.monotonic()
    rng = random.Random(20240)
    checked = 0
    for family, sampler in ((Family.PIII, oracles.p3_sample),
                            (Family.PIV, oracles.p4_sum_zero_sample)):
        for _ in range(500):
            v = sampler(rng)
            base = classify(FamilyInstance(family, v))
            sig = (base.stratum, base.morley_rank, base.morley_degree)
            # the ball of images under all words of length <= 6 (deduplicated:
            # classification of a word image depends only on the image)
            for u in _word_ball(family, v, 6):
                c = classify(FamilyInstance(family, u))
                assert (c.stratum, c.morley_rank, c.morley_degree) == sig, (v, u)
                checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(capsys, 4, f"{checked} word images, zero classification changes "
                      f"in {elapsed:.1f}s")


def test_criterion_5_p6_stratification(capsys):
    start = time.monotonic()
    rng = random.Random(60)
    for _ in range(200):
        v = oracles.p6_sample(rng)
        levels = oracles.brute_force_levels(v)
        rank = len(p6_stratum(v))
        assert oracles.STRATUM_BY_RANK[rank] == oracles.brute_force_stratum(v), v
        # nesting D <= L <= P <= M never violated
        assert not (levels["D"] and not levels["L"]), v
        assert not (levels["L"] and not levels["P"]), v
        assert not (levels["P"] and not levels["M"]), v
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(capsys, 5, f"rank method matches brute-force enumeration on 200 "
                      f"samples in {elapsed:.1f}s")


def test_criterion_6_fundamental_region_reduction(capsys):
    start = time.monotonic()
    rng = random.Random(600)
    for _ in range(100):
        v = oracles.p4_sum_zero_sample(rng)
        out, word = reduce_to_fundamental_region_p4(v, max_steps=200)
        assert in_fundamental_region_p4(out), v
        assert apply_word(word, v) == out, v
    elapsed = time.monotonic() - start
    report(capsys, 6, f"100 reductions in budget, region + exact replay "
                      f"in {elapsed:.2f}s")


def test_criterion_7_blowup_detection(capsys):
    start = time.monotonic()
    system = system_rhs(FamilyInstance(Family.PII, crs(0)))
    base = integrate(IntegrationSpec(system, 0.0, 2.0, (2.0, 0.0)))
    assert base.events and base.events[-1].kind == "BlowUp"
    t_event = base.events[-1].t
    assert t_event < 2.0
    halved = integrate(IntegrationSpec(system, 0.0, 2.0, (2.0, 0.0), tol=5e-11))
    assert abs(halved.events[-1].t - t_event) < 1e-3
    elapsed = time.monotonic() - start
    report(capsys, 7, f"blow-up at t = {t_event:.6f}, stable to "
                      f"{abs(halved.events[-1].t - t_event):.1e} "
                      f"in {elapsed:.2f}s")


def test_criterion_8_round_trip_and_schema(capsys):
    start = time.monotonic()
    rng = random.Random(8000)
    for _ in range(1000):
        z = CR(Fraction(rng.randint(-1000, 1000), rng.randint(1, 999)),
               Fraction(rng.randint(-1000, 1000), rng.randint(1, 999)))
        assert parse_cgauss(format_cgauss(z)) == z
    schema = json.loads(
        importlib.resources.files("painstrata").joinpath("schema.json").read_text())
    battery = [
        ["classify", "--family", "p2", "--params=-1/2"],
        ["classify", "--family", "p3", "--params", "1,1"],
        ["classify", "--family", "p4", "--params", "1,1,1"],
        ["classify", "--family", "p5", "--params", "0,0,0,0"],
        ["classify", "--family", "p6", "--params", "0,0,0,1/7"],
        ["classify", "--family", "xc", "--params", "nonrational"],
        ["classify", "--family", "p2", "--params", "junk"],
        ["verify", "riccati"],
        ["verify", "integral", "--c", "4"],
        ["verify", "qop", "--c", "5"],
        ["verify", "log-relation", "--c", "0.7"],
        ["simulate", "--family", "xc", "--params", "2", "--init", "1,0.5",
         "--t0", "0", "--t1", "0.3"],
        ["simulate", "--family", "p2", "--params", "0", "--init", "2,0",
         "--t0", "0", "--t1", "2"],
        ["reduce-p4", "--params", "2,-1,-1"],
        ["orbit", "--family", "p4", "--from", "0,0,0",
         "--to=-1/3,-1/3,2/3", "--max-len", "2"],
    ]
    docs = 0
    for argv in battery:
        cli.main(argv)
        out = capsys.readouterr().out
        for line in out.strip().splitlines():
            jsonschema.validate(json.loads(line), schema)
            docs += 1
    assert docs >= len(battery)
    elapsed = time.monotonic() - start
    report(capsys, 8, f"1000 parameter round-trips and {docs} schema-valid "
                      f"CLI documents in {elapsed:.2f}s")
