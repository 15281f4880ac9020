#!/usr/bin/env python3
"""Integrate a fan of planar-field trajectories and export CSV files.

For each coupling constant, several starts inside the region x > 0,
0 < y < 1 are integrated on the standard window; each trajectory CSV
carries its conservation drift column, and a summary line reports the
worst drift seen.
"""

import argparse
import pathlib
import sys
from fractions import Fraction

from painstrata.exactnum import ComplexRational
from painstrata.models import Family, FamilyInstance, system_rhs, xc_first_integral
from painstrata.numverify import IntegrationSpec, conservation_drift, export_csv, integrate

STARTS = [(1.0, 0.5), (0.8, 0.3), (1.5, 0.7), (2.0, 0.4)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--c", type=int, nargs="+", default=[0, 1, 2, 3])
    parser.add_argument("--t1", type=float, default=0.3)
    parser.add_argument("--outdir", default="xc_trajectories")
    args = parser.parse_args(argv)
    if any(c < 0 for c in args.c):
        parser.error("--c takes couplings c >= 0, the range with an exact "
                     "first integral")

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    worst = 0.0
    for c in args.c:
        system = system_rhs(FamilyInstance(Family.XC,
                                           (ComplexRational(Fraction(c)),)))
        candidate = xc_first_integral(c)
        for i, start in enumerate(STARTS):
            traj = integrate(IntegrationSpec(system, 0.0, args.t1, start))
            drift = conservation_drift(traj, candidate) if traj.completed else None
            path = outdir / f"xc_c{c}_start{i}.csv"
            with open(path, "w", encoding="utf-8") as fh:
                export_csv(traj, fh)
            state = "ok" if traj.completed else \
                ",".join(e.kind for e in traj.events)
            drift_text = f"drift {drift:.2e}" if drift is not None else "no drift"
            print(f"c={c} start={start}: {state}, {drift_text} -> {path}")
            if drift is not None:
                worst = max(worst, drift)
    print(f"\nworst conservation drift: {worst:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
