#!/usr/bin/env python3
"""Cross-validate the two nonlinear bound-state solvers on one finite
square well.

Shooting finds every matching root in the bracket; the fixed point is then
seeded at each root and must confirm it is self-consistent. Its linear
eigenvalues are picked by node count, so a state the fixed point does not
confirm is not a wrong state index: it is a state whose self-consistency
map is too steep for the damped iteration to settle within tolerance, and
it is reported as a fixed-point miss rather than a disagreement.
"""

import argparse

from wavekit.errors import NonConvergenceError
from wavekit.modified_nr import (solve_stationary_fixed_point,
                                 solve_stationary_shooting)
from wavekit.numgrid import Grid
from wavekit.potentials import PotentialSpec
from wavekit.units import UnitSystem


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--depth", type=float, default=12.0)
    ap.add_argument("--half-width", type=float, default=1.0)
    ap.add_argument("--domain", type=float, default=8.0,
                    help="walls at +-domain")
    ap.add_argument("--margin", type=float, default=1e-4,
                    help="bracket margin as a fraction of the depth")
    args = ap.parse_args()

    units = UnitSystem()
    grid = Grid.line(-args.domain, args.domain, 400)
    well = PotentialSpec.square_well(args.depth, args.half_width)
    bracket = (-args.depth * (1.0 - args.margin), -args.depth * args.margin)
    shots = solve_stationary_shooting(grid, well, bracket, units)
    print(f"well depth={args.depth} half_width={args.half_width}: "
          f"{len(shots)} shooting roots in [{bracket[0]:.4g}, {bracket[1]:.4g}]")
    print(f"{'nodes':>6} {'E_shooting':>18} {'E_fixed_point':>18} {'delta':>12}")
    for r in shots:
        try:
            fp = solve_stationary_fixed_point(grid, well, r.node_count,
                                              e_init=r.energy, tol=1e-8,
                                              backend="exact")
            if bracket[0] <= fp.energy <= bracket[1]:
                print(f"{r.node_count:6d} {r.energy:18.12f} "
                      f"{fp.energy:18.12f} {abs(fp.energy - r.energy):12.3e}")
            else:
                print(f"{r.node_count:6d} {r.energy:18.12f} "
                      f"(drifted to other branch E={fp.energy:.6g})")
        except NonConvergenceError:
            print(f"{r.node_count:6d} {r.energy:18.12f} "
                  f"{'(fixed-point miss)':>18}")


if __name__ == "__main__":
    main()
