#!/usr/bin/env python3
"""First-order audit of the additional potential term -2V + V^2/(E - V) on
the hydrogen ground state, checked against two closed forms.

The -2V expectation is exactly -4 E1 for a Coulomb potential (virial
theorem, <V> = 2 E1). The V^2/(E - V) part crosses a genuine pole at E = V
and is a Cauchy principal value (QUADPACK's Cauchy-weight rule); for the
ground state it is -2 E1 (16 e^-4 Ei(4) - 4). The script prints the audit
and each part against its closed form, and exits 1 when either misses by
more than BOUND = 1e-6 relative (at the default 200 000 points they read
about 5e-8 and 3e-8).
"""

import argparse
import json
import math
import sys

from scipy.special import expi

from wavekit.modified_nr import additional_term_report
from wavekit.numgrid import Grid
from wavekit.potentials import PotentialSpec
from wavekit.reference import hydrogen_ground_state
from wavekit.units import UnitSystem

BOUND = 1e-6  # relative miss of either part that fails the audit


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--r-max", type=float, default=30.0)
    ap.add_argument("--n-points", type=int, default=200000)
    ap.add_argument("--strength", type=float, default=1.0)
    args = ap.parse_args()

    units = UnitSystem()
    grid = Grid.radial(args.r_max, args.n_points)
    psi = hydrogen_ground_state(grid, k=args.strength, units=units)
    e1 = -0.5 * units.m * args.strength**2 / units.hbar**2
    report = additional_term_report(psi, e1, PotentialSpec.coulomb(args.strength))
    print(json.dumps(report, indent=2, default=list))
    missed = False
    for key, label, want in (
            ("minus_2V_part", "-4 E1", -4.0 * e1),
            ("pv_part", "-2 E1 (16 e^-4 Ei(4) - 4)",
             -2.0 * e1 * (16.0 * math.exp(-4.0) * float(expi(4.0)) - 4.0))):
        rel = abs(report[key] / want - 1.0)
        ok = rel <= BOUND  # False for nan too
        missed |= not ok
        print(f"{key} {report[key]!r} against {label} = {want!r}: relative "
              f"miss {rel:.2e} ({'ok' if ok else 'MISSED'}, bound {BOUND:g})")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
