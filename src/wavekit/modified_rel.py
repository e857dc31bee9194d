"""Relativistic modified equations with a Lorentz-invariant scalar
potential: stationary interface-matching solver, leapfrog propagation of
the second-order equation (Klein-Gordon at V = 0), and the electrostatic
reduction of the electromagnetic invariant potential.
"""

from __future__ import annotations

import numpy as np

from .errors import OutOfScopeError, in_float_range
from .numgrid import Grid, WaveField, build_laplacian
from .potentials import PotentialSpec, check_weight, evaluate
from .shooting import piecewise_regions
from .units import UnitSystem
from .modified_nr import TimeDepState, leapfrog, shooting_spectrum


def rel_coefficient(e, region_values: np.ndarray, units: UnitSystem) -> np.ndarray:
    """Region coefficient w with psi'' = -w psi for the stationary modified
    relativistic equation: w = [(E-V)^2 - E0^2](1 + V/E0)^2 / (c hbar)^2;
    a ConfigurationError where w leaves the float range."""
    e = np.atleast_1d(np.asarray(e, dtype=float))[:, None]
    v = region_values[None, :]
    E0, c_hbar = units.E0, units.c * units.hbar
    return in_float_range(
        lambda: ((e - v) ** 2 - E0**2) * (1.0 + v / E0) ** 2 / c_hbar**2,
        "potential: w = [(E - V)**2 - E0**2](1 + V/E0)**2/(c hbar)**2")


def rel_box_energy(n: int, L: float, V: float, units: UnitSystem) -> float:
    """Closed-form inversion of the stationary dispersion for mode n in a
    Dirichlet box of width L at constant V:
    [(E-V)^2 - E0^2](1 + V/E0)^2 = (n pi hbar c / L)^2."""
    E0 = units.E0
    rhs = (n * np.pi * units.hbar * units.c / L) ** 2
    return V + float(np.sqrt(E0**2 + rhs / (1.0 + V / E0) ** 2))


def solve_rel_stationary(grid: Grid, V: PotentialSpec, e_bracket,
                         units: UnitSystem = UnitSystem(),
                         n_scan: int = 10000):
    """All energies in the bracket with a nontrivial Dirichlet solution of
    the stationary modified relativistic equation, by piecewise-constant
    interface matching (:func:`~wavekit.modified_nr.shooting_spectrum`;
    the coefficient has no poles). V > -E0 is checked on the grid samples,
    then on the region levels, which also see a region narrower than the
    grid spacing. Returns results sorted by energy."""
    check_weight(evaluate(V, grid.x), units.E0)
    edges, region_values = piecewise_regions(V, grid.x_min, grid.x_max)
    check_weight(region_values, units.E0)
    return shooting_spectrum(
        grid, edges, lambda e: rel_coefficient(e, region_values, units),
        e_bracket, n_scan)


def propagate_rel_timedep(phi0: WaveField, dphi0_dt: WaveField,
                          V: PotentialSpec, dt: float, steps: int,
                          units: UnitSystem = UnitSystem(), stride: int = 1):
    """Leapfrog evolution (:func:`~wavekit.modified_nr.leapfrog`) of
    (1 + V/E0)^2 phi_tt = c^2 Laplacian phi - (E0/hbar)^2 phi on the grid
    of ``phi0``: M^-1 = 1/(1 + V/E0)^2, A = c^2 Laplacian - (E0/hbar)^2 on
    its diagonals. V is sampled once and must satisfy V > -E0.

    With V = 0 the update is the discrete Klein-Gordon step (unit factor,
    same code path). Returns the states at steps 0, stride, 2 stride, ...
    and the final step; the default keeps every state. Raises
    StabilityError once the norm grows beyond 10x its initial value.
    """
    grid = phi0.grid
    v = np.asarray(evaluate(V, grid.x), dtype=float)
    check_weight(v, units.E0)
    what = "potential: (1 + V/E0)**2"
    factor_sq = in_float_range(lambda: (1.0 + v / units.E0) ** 2, what)
    inv_m = in_float_range(lambda: 1.0 / factor_sq, what)
    with np.errstate(over="ignore"):
        # an entry of A past the float range gives the step bound 0
        a = {k: (units.c**2 * row).astype(phi0.values.dtype)
             for k, row in build_laplacian(grid).diagonals.items()}
        a[0] -= (units.E0 / units.hbar) ** 2
    return leapfrog(TimeDepState(phi0, dphi0_dt, 0.0, 0.0, 0.0), inv_m, a, dt,
                    steps, stride, max_growth=10)


def electrostatic_invariant_potential(phi: float, epsilon: float, e: float,
                                      units: UnitSystem,
                                      vector_potential=None) -> float:
    """Electrostatic reduction of the electromagnetic invariant potential:
    V = e eps phi / E0 (vector potential identically zero)."""
    if vector_potential is not None and np.any(np.asarray(vector_potential) != 0):
        raise OutOfScopeError(
            "nonzero vector potentials are out of scope (operator-valued "
            "potential); only the electrostatic reduction is implemented")
    return e * epsilon * np.asarray(phi) / units.E0
