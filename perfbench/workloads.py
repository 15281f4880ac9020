"""Seeded input generators for the four benchmark workloads.

Every workload is a fixed *composition* (how many operations of each kind,
which p6 ranks, which error kinds, which tolerances) filled with random
*content* drawn from the seed.  Fixing the composition keeps the cost of a
pool steady from seed to seed; the content keeps a change from being tuned
to one input.  Each operation carries how it was built (``meta``), which the
reference check uses as its expectation.

Nothing here imports painstrata: inputs are plain text and argv lists.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("sweep_p6", "sweep_light", "simulate", "exact_ops")

BATCH_LINES = 200

# sweep_p6: groups of 200 lines, 150 p6 lines by constructed rank and 50
# p2-p5 lines, shuffled and cut into batches of 50.  The short batches let
# the speed probes between operations follow the machine's drift (a p6 line
# takes over a millisecond).  The first line of a batch also carries the
# command's start-up, and these 2% of lines set the p99 tail; 64 batches
# keep the tail from resting on the few lines that open a batch for a seed.
P6_RANK_COUNTS = {0: 30, 1: 35, 2: 35, 3: 25, 4: 25}
SWEEP_P6_GROUPS = 16
SWEEP_P6_BATCH_LINES = 50

# sweep_light batch: 38 lines per family, 6 malformed, 4 constraint-violating.
LIGHT_FAMILY_LINES = 38
LIGHT_PARSE_ERRORS = 6
LIGHT_CONSTRAINT_ERRORS = 4
SWEEP_LIGHT_BATCHES = 20

TOLERANCES = (1e-8, 1e-9, 1e-10, 1e-11, 1e-12)
BLOWUP_THRESHOLD = 1e8

# Fixed, seed-independent warm-up commands: set-up time must not depend on
# the seed.
WARMUP = {
    "sweep_p6": [["classify", "--family", "p6", "--params", "1/2,1/3,0,1"],
                 ["classify", "--family", "p3", "--params", "1,1"]],
    "sweep_light": [["classify", "--family", "p4", "--params=1,-1/2,-1/2"],
                    ["classify", "--family", "xc", "--params", "2"]],
    "simulate": [["simulate", "--family", "xc", "--params", "2",
                  "--init=1,0.5", "--t0=0", "--t1=0.3"],
                 ["verify", "log-relation", "--c=1.5"]],
    "exact_ops": [["verify", "integral", "--c=3"],
                  ["reduce-p4", "--params=7/2,-5/3,-11/6"]],
}


@dataclass
class Op:
    """One CLI invocation; ``units`` is how many operations it counts as."""

    kind: str
    argv: list
    meta: dict = field(default_factory=dict)
    units: int = 1


# --------------------------------------------------------------------------
# Exact values and the wire format.
# --------------------------------------------------------------------------

def fmt_value(v) -> str:
    """Wire text of a (re, im) pair of Fractions, or a special tag."""
    if isinstance(v, str):
        return v
    re_, im = v
    if im == 0:
        return str(re_)
    if re_ == 0:
        return f"{str(im)}i"
    return f"{str(re_)}{'+' if im > 0 else '-'}{str(abs(im))}i"


def _small(rng: random.Random) -> Fraction:
    """Integer, half-integer or small fraction."""
    u = rng.random()
    if u < 0.4:
        return Fraction(rng.randint(-9, 9))
    if u < 0.65:
        return Fraction(2 * rng.randint(-9, 9) + 1, 2)
    return Fraction(rng.randint(-20, 20), rng.randint(3, 12))


def _long(rng: random.Random) -> Fraction:
    num = rng.randint(10 ** 19, 10 ** 40) * rng.choice((1, -1))
    return Fraction(num, rng.randint(10 ** 12, 10 ** 30))


def _value(rng: random.Random, long_share: float = 0.0,
           special_share: float = 0.0):
    u = rng.random()
    if u < special_share:
        return rng.choice(("generic", "nonrational"))
    if u < special_share + long_share:
        return (_long(rng), Fraction(0))
    if rng.random() < 0.15:
        return (_small(rng), Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                                      rng.randint(1, 4)))
    return (_small(rng), Fraction(0))


def _add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _neg(a):
    return (-a[0], -a[1])


def _sum_zero(values):
    """Replace the last value so that the concrete vector sums to zero."""
    total = (Fraction(0), Fraction(0))
    for v in values[:-1]:
        total = _add(total, v)
    values[-1] = _neg(total)
    return values


def _concrete(rng, n, long_share=0.0):
    return [_value(rng, long_share=long_share) for _ in range(n)]


PARAM_COUNT = {"p2": 1, "p3": 2, "p4": 3, "p5": 4, "p6": 4, "xc": 1}


def family_line(rng: random.Random, family: str, long_share: float = 0.0,
                special_share: float = 0.0) -> str:
    """A valid sweep line for p2-p5 or xc."""
    n = PARAM_COUNT[family]
    if family == "xc":
        u = rng.random()
        if u < special_share:
            v = rng.choice(("generic", "nonrational"))
        elif u < special_share + 0.05:
            v = (Fraction(-1), Fraction(0))
        elif u < special_share + 0.05 + long_share:
            v = (_long(rng), Fraction(0))
        else:
            v = (_small(rng), Fraction(0))
        return f"xc {fmt_value(v)}"
    if family in ("p4", "p5"):
        if rng.random() < special_share:
            values = [_value(rng, long_share) for _ in range(n)]
            values[rng.randrange(n)] = rng.choice(("generic", "nonrational"))
        else:
            values = _sum_zero(_concrete(rng, n, long_share))
    else:
        values = [_value(rng, long_share, special_share) for _ in range(n)]
    return f"{family} {','.join(fmt_value(v) for v in values)}"


# --------------------------------------------------------------------------
# p6 vectors of a prescribed root-span rank.
# --------------------------------------------------------------------------

_GENERIC_DENOMS = (3, 5, 7, 11, 13)


def _generic_pool(rng: random.Random):
    """Values no two of which (or their negatives) differ or sum to an integer.

    Distinct prime denominators make every v_i +- v_j non-integral; a
    non-real value or the ``generic`` tag is unrelated to everything real.
    """
    out = []
    for d in rng.sample(_GENERIC_DENOMS, 4):
        num = rng.choice([k for k in range(-2 * d, 2 * d) if k % d])
        if rng.random() < 0.2:
            out.append((Fraction(num, d), Fraction(rng.randint(1, 5), d)))
        else:
            out.append((Fraction(num, d), Fraction(0)))
    if rng.random() < 0.15:
        out[rng.randrange(4)] = "generic"
    return out


def _linked(rng, base):
    """A partner of ``base`` with base - partner or base + partner in Z."""
    k = Fraction(rng.randint(-3, 3))
    if rng.random() < 0.5:
        return (base[0] + k, base[1])
    return (k - base[0], -base[1])


def _class_values(rng, n):
    """n values all integers or all half-integers: every pair is related."""
    half = Fraction(1, 2) if rng.random() < 0.4 else Fraction(0)
    return [(Fraction(rng.randint(-6, 6)) + half, Fraction(0)) for _ in range(n)]


def p6_vector(rng: random.Random, rank: int) -> list:
    gen = _generic_pool(rng)
    if rank == 4:
        v = _class_values(rng, 4)
    elif rank == 3:
        v = _class_values(rng, 3) + [gen[0]]
    elif rank == 2:
        if rng.random() < 0.5:
            v = _class_values(rng, 2) + gen[:2]
        else:
            a, b = [g for g in gen if g != "generic"][:2]
            v = [a, _linked(rng, a), b, _linked(rng, b)]
    elif rank == 1:
        a = next(g for g in gen if g != "generic")
        rest = [g for g in gen if g is not a][:2]
        v = [a, _linked(rng, a)] + rest
    else:
        v = gen[:]
        if rng.random() < 0.3:
            # one integer coordinate alone spans no root
            v[rng.randrange(4)] = (Fraction(rng.randint(-5, 5)), Fraction(0))
    rng.shuffle(v)
    return v


# --------------------------------------------------------------------------
# Malformed and constraint-violating sweep lines.
# --------------------------------------------------------------------------

def parse_error_line(rng: random.Random) -> str:
    k = rng.randrange(6)
    a, b = fmt_value((_small(rng), Fraction(0))), rng.randint(1, 9)
    if k == 0:
        return f"p3 {a},{b}/0"
    if k == 1:
        return f"p{rng.choice((1, 7, 8))} {a},{b}"
    if k == 2:
        return f"p3 {a},,{b}"
    if k == 3:
        return f"p2 {a} {b}"
    if k == 4:
        return f"p3 {b}.5,{a}"
    return f"p5 {a},{b}x,0,0"


def constraint_error_line(rng: random.Random) -> str:
    k = rng.randrange(4)
    if k == 0:
        a, b = rng.randint(1, 9), rng.randint(1, 9)
        return f"p4 {a},{b},{rng.randint(1, 9)}"
    if k == 1:
        vals = _sum_zero(_concrete(rng, 4))
        vals[0] = _add(vals[0], (Fraction(rng.randint(1, 5), 2), Fraction(0)))
        return f"p5 {','.join(fmt_value(v) for v in vals)}"
    if k == 2:
        return f"p3 {rng.randint(0, 5)},{rng.randint(0, 5)},{rng.randint(0, 5)}"
    return f"xc {rng.randint(-5, 5)}+{rng.randint(1, 5)}i"


# --------------------------------------------------------------------------
# Workload pools.
# --------------------------------------------------------------------------

def _sweep_op(lines, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return Op("sweep", ["sweep", "--in", path], {"lines": lines}, units=len(lines))


def build_sweep_p6(rng, workdir):
    ops = []
    for g in range(SWEEP_P6_GROUPS):
        items = []
        for rank, count in P6_RANK_COUNTS.items():
            for _ in range(count):
                v = p6_vector(rng, rank)
                items.append(f"p6 {','.join(fmt_value(x) for x in v)}")
        for i in range(BATCH_LINES - len(items)):
            items.append(family_line(rng, ("p2", "p3", "p4", "p5")[i % 4]))
        rng.shuffle(items)
        for b in range(0, BATCH_LINES, SWEEP_P6_BATCH_LINES):
            ops.append(_sweep_op(items[b:b + SWEEP_P6_BATCH_LINES],
                                 os.path.join(workdir, f"sweep_p6_{g}_{b}.txt")))
    return ops


def build_sweep_light(rng, workdir):
    ops = []
    for b in range(SWEEP_LIGHT_BATCHES):
        items = [family_line(rng, fam, long_share=0.1, special_share=0.1)
                 for fam in ("p2", "p3", "p4", "p5", "xc")
                 for _ in range(LIGHT_FAMILY_LINES)]
        items += [parse_error_line(rng) for _ in range(LIGHT_PARSE_ERRORS)]
        items += [constraint_error_line(rng) for _ in range(LIGHT_CONSTRAINT_ERRORS)]
        rng.shuffle(items)
        ops.append(_sweep_op(items, os.path.join(workdir, f"sweep_light_{b}.txt")))
    return ops


def _f(x: float) -> str:
    return repr(round(x, 6))


# Per family: parameter vector, initial box and window that stay in a smooth
# region for the whole window (checked against scipy by the reference).
def _sim_complete(rng, family):
    if family == "p2":
        params = [str(Fraction(rng.randint(-4, 4), 2))]
        init = (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        t0, t1 = 0.0, 1.0
    elif family == "p3":
        params = [str(Fraction(rng.randint(-4, 4), rng.randint(2, 3)))
                  for _ in range(2)]
        init = (rng.uniform(0.2, 0.8), rng.uniform(-0.5, 0.5))
        t0 = float(rng.randint(1, 2))
        t1 = t0 + 0.5
    elif family in ("p4", "p5"):
        n = PARAM_COUNT[family]
        vals = [Fraction(rng.randint(-3, 3), rng.randint(2, 4)) for _ in range(n - 1)]
        vals.append(-sum(vals))
        params = [str(v) for v in vals]
        if family == "p4":
            init = (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            t0, t1 = 0.0, 0.4
        else:
            init = (rng.uniform(0.2, 0.6), rng.uniform(-0.3, 0.3))
            t0 = float(rng.randint(1, 2))
            t1 = t0 + 0.3
    else:
        params = [str(Fraction(rng.randint(1, 9), rng.randint(3, 4)))]
        init = (rng.uniform(1.0, 2.0), rng.uniform(0.3, 0.8))
        t0, t1 = 0.0, 0.3
    return params, init, t0, t1


def build_simulate(rng, workdir):
    ops = []
    # 100 commands: 70 completing trajectories, 10 p2 blow-ups,
    # 20 log-relation checks; tolerances cycle over TOLERANCES.
    plan = ([("complete", f) for f in ("p2", "p3", "p4", "p5", "xc") for _ in range(14)]
            + [("blowup", "p2")] * 10 + [("log", "xc")] * 20)
    for i, (mode, family) in enumerate(plan):
        tol = TOLERANCES[i % len(TOLERANCES)]
        if mode == "log":
            c = rng.uniform(0.3, 3.0)
            init = (rng.uniform(1.0, 2.0), rng.uniform(0.3, 0.8))
            argv = ["verify", "log-relation", f"--c={c!r}", f"--init={_f(init[0])},{_f(init[1])}",
                    f"--tol={tol!r}"]
            ops.append(Op("log_relation", argv, {"c": c}))
            continue
        if mode == "blowup":
            # a narrow box: the cost of a blow-up run grows with its steps
            params = [str(Fraction(rng.choice((-1, 1)), 2))]
            init = (rng.uniform(2.0, 2.05), rng.uniform(0.0, 0.05))
            t0, t1 = 0.0, 2.0
        else:
            params, init, t0, t1 = _sim_complete(rng, family)
        init = tuple(float(_f(x)) for x in init)
        argv = ["simulate", "--family", family, f"--params={','.join(params)}",
                f"--init={_f(init[0])},{_f(init[1])}", f"--t0={t0!r}", f"--t1={t1!r}",
                f"--tol={tol!r}"]
        meta = {"family": family, "params": params, "init": init, "t0": t0,
                "t1": t1, "tol": tol, "mode": mode, "csv": None}
        if i % 4 == 1:
            meta["csv"] = os.path.join(workdir, f"traj_{i}.csv")
            argv.append(f"--out={meta['csv']}")
        ops.append(Op("simulate", argv, meta))
    rng.shuffle(ops)
    return ops


# Two fixed shapes for the cancelling factor F, with seeded coefficients:
# the gcd's cost depends on the shape far more than on the coefficients.
_FACTOR_SHAPES = (("x^2", "x*y", "y"), ("y^2", "x*y", "x"))


def _poly_text(rng, shape):
    """A cancelling factor F in x and y with small nonzero coefficients."""
    terms = [f"{rng.choice((1, 2, 3, -1, -2))}*{m}" for m in _FACTOR_SHAPES[shape]]
    terms.append(str(rng.randint(1, 4)))
    return " + ".join(terms).replace("+ -", "- ")


# p3 and p4 generator actions, for building related orbit targets.
def _p3_act(g, v):
    v1, v2 = v
    return {"s1": (v2, v1), "s2": (-v2, -v1), "s3": (v2 + 1, v1 - 1),
            "s4": (1 - v2, 1 - v1)}[g]


_TM = (Fraction(-1, 3), Fraction(-1, 3), Fraction(2, 3))


def _p4_act(g, v):
    if g == "s1":
        return (v[1], v[0], v[2])
    if g == "s2":
        return (v[2], v[1], v[0])
    w = tuple(a + s for a, s in zip(v, _TM))
    w = _p4_act("s1", _p4_act("s2", _p4_act("s1", w)))
    return tuple(a - s for a, s in zip(w, _TM))


def _params_arg(flag, values):
    return f"{flag}={','.join(str(x) for x in values)}"


def build_exact_ops(rng, workdir):
    ops = []
    for sign in ("both", "plus", "minus", "both"):
        ops.append(Op("riccati", ["verify", "riccati", f"--sign={sign}"], {"sign": sign}))
    for check in ("integral", "qop"):
        for j in range(10):
            c = 2 + 4 * j + rng.randint(0, 3)
            ops.append(Op(check, ["verify", check, f"--c={c}"],
                          {"c": c, "expr_c": c, "expr": None}))
    # cancelling candidates y^c*(y-1)*F^k/(x*F^k): conserved iff --c == c;
    # c and k cycle so that every seed has the same mix of degrees
    for check, count in (("integral", 24), ("qop", 12)):
        for j in range(count):
            c = 1 + (j // 4) % 6
            k = 1 + (j // 2) % 2
            f = _poly_text(rng, (j // 12) % 2)
            expr = f"y^{c}*(y-1)*({f})^{k}/(x*({f})^{k})"
            given = c if j % 2 == 0 else c + rng.choice((1, 2))
            ops.append(Op(check, ["verify", check, f"--c={given}", f"--expr={expr}"],
                          {"c": given, "expr_c": c, "expr": expr,
                           "factor": f, "k": k}))
    # reduce-p4: 18 within the step budget, 6 far beyond it
    for j in range(24):
        if j < 6:
            a = Fraction(rng.choice((1, -1)) * rng.randint(900, 1800), 6)
        else:
            a = Fraction(rng.randint(-90, 90), 6)
        b = Fraction(rng.randint(-90, 90), 6)
        ops.append(Op("reduce", ["reduce-p4", _params_arg("--params", (a, b, -a - b))],
                      {"params": (a, b, -a - b), "beyond": j < 6}))
    # orbit: half related by a constructed word, half with unrelated targets
    for family, act, gens in (("p3", _p3_act, ("s1", "s2", "s3", "s4")),
                              ("p4", _p4_act, ("s0", "s1", "s2"))):
        n = 2 if family == "p3" else 3
        for j in range(8):
            src = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(n)]
            if family == "p4":
                src[-1] = -sum(src[:-1])
            max_len = 4
            if j % 2 == 0:
                dst = tuple(src)
                for _ in range(rng.randint(1, 3)):
                    dst = act(rng.choice(gens), dst)
            else:
                dst = [Fraction(rng.choice([k for k in range(-20, 21) if k % 7]), 7)
                       for _ in range(n)]
                if family == "p4":
                    dst[-1] = -sum(dst[:-1])
            ops.append(Op("orbit", ["orbit", "--family", family,
                                    _params_arg("--from", src), _params_arg("--to", dst),
                                    f"--max-len={max_len}"],
                          {"family": family, "src": tuple(src), "dst": tuple(dst),
                           "related": j % 2 == 0}))
    rng.shuffle(ops)
    return ops


POOLS = {
    "sweep_p6": build_sweep_p6,
    "sweep_light": build_sweep_light,
    "simulate": build_simulate,
    "exact_ops": build_exact_ops,
}


def build(workload: str, seed: int, workdir: str) -> list:
    """The operation pool of one workload; the same seed gives the same pool."""
    rng = random.Random(f"{workload}:{seed}")
    return POOLS[workload](rng, workdir)
