#!/usr/bin/env python3
"""Sweep small rational grids of every family and tabulate the strata.

Prints one JSON document per classified point (the same wire format the CLI
emits) to the file given by --out, and a per-family stratum/degree summary
table to stdout.
"""

import argparse
import itertools
import json
import sys
from collections import Counter
from fractions import Fraction

from painstrata.exactnum import ComplexRational
from painstrata.models import ConstraintError, Family, FamilyInstance
from painstrata.strata import classify

GRID = [Fraction(n, d) for d in (1, 2, 3) for n in range(-2 * d, 2 * d + 1)]
COARSE = [Fraction(n, d) for d in (1, 2) for n in range(-d, d + 1)]


def instances(family: Family):
    if family is Family.PII:
        for a in GRID:
            yield (a,)
    elif family is Family.PIII:
        for a, b in itertools.product(COARSE, COARSE):
            yield (a, b)
    elif family is Family.PIV:
        for a, b in itertools.product(COARSE, COARSE):
            yield (a, b, -(a + b))
    else:
        for a, b, c in itertools.product(COARSE, COARSE, COARSE):
            if family is Family.PV:
                yield (a, b, c, -(a + b + c))
            else:
                yield (a, b, c, Fraction(1, 5))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None,
                        help="write one JSON document per point to this file")
    args = parser.parse_args(argv)

    sink = open(args.out, "w", encoding="utf-8") if args.out else None
    for family in (Family.PII, Family.PIII, Family.PIV, Family.PV, Family.PVI):
        counts: Counter = Counter()
        for params in instances(family):
            try:
                inst = FamilyInstance(family,
                                      tuple(ComplexRational(p) for p in params))
            except ConstraintError:
                continue
            c = classify(inst)
            counts[(c.stratum, json.dumps(c.morley_degree))] += 1
            if sink:
                sink.write(json.dumps(c.to_json_dict()) + "\n")
        print(f"\n{family.value}: {sum(counts.values())} points")
        for (stratum, degree), n in sorted(counts.items()):
            print(f"  {stratum:<22} degree {degree:<18} {n:>6}")
    if sink:
        sink.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
