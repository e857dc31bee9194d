"""Relativistic modified equations with a Lorentz-invariant scalar
potential: stationary interface-matching solver, leapfrog propagation of
the second-order equation (Klein-Gordon at V = 0), and the electrostatic
reduction of the electromagnetic invariant potential.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, InvalidScenarioError, NoRootError,
                     OutOfScopeError, StabilityError)
from .numgrid import Grid, WaveField, build_laplacian
from .potentials import PotentialSpec, evaluate
from .shooting import piecewise_regions, shooting_states
from .units import UnitSystem
from .modified_nr import ModifiedEigenResult, TimeDepState, check_stride


@dataclass(frozen=True, eq=False)
class RelScenario:
    """A relativistic run: units (E0 = m c^2), scalar potential, grid."""

    units: UnitSystem
    potential: PotentialSpec
    grid: Grid

    def __post_init__(self):
        v = np.asarray(evaluate(self.potential, self.grid.x), dtype=float)
        if np.any(v <= -self.units.E0):
            raise InvalidScenarioError(
                "potential must satisfy V > -E0 everywhere (1 + V/E0 > 0)")

    @property
    def potential_samples(self) -> np.ndarray:
        return np.asarray(evaluate(self.potential, self.grid.x), dtype=float)


def rel_coefficient(e, region_values: np.ndarray, units: UnitSystem) -> np.ndarray:
    """Region coefficient w with psi'' = -w psi for the stationary modified
    relativistic equation: w = [(E-V)^2 - E0^2](1 + V/E0)^2 / (c hbar)^2."""
    e = np.atleast_1d(np.asarray(e, dtype=float))[:, None]
    v = region_values[None, :]
    E0 = units.E0
    g = ((e - v) ** 2 - E0**2) * (1.0 + v / E0) ** 2
    return g / (units.c * units.hbar) ** 2


def rel_box_energy(n: int, L: float, V: float, units: UnitSystem) -> float:
    """Closed-form inversion of the stationary dispersion for mode n in a
    Dirichlet box of width L at constant V:
    [(E-V)^2 - E0^2](1 + V/E0)^2 = (n pi hbar c / L)^2."""
    E0 = units.E0
    rhs = (n * np.pi * units.hbar * units.c / L) ** 2
    return V + float(np.sqrt(E0**2 + rhs / (1.0 + V / E0) ** 2))


def solve_rel_stationary(scenario: RelScenario, e_bracket,
                         n_scan: int = 10000):
    """All energies in the bracket with a nontrivial Dirichlet solution of
    the stationary modified relativistic equation, by piecewise-constant
    interface matching. Returns results sorted by energy."""
    grid, units = scenario.grid, scenario.units
    e_lo, e_hi = float(e_bracket[0]), float(e_bracket[1])
    if not e_hi > e_lo:
        raise ConfigurationError("e_bracket must be an increasing interval")
    edges, region_values = piecewise_regions(scenario.potential,
                                             grid.x_min, grid.x_max)
    if np.any(region_values <= -units.E0):
        raise InvalidScenarioError("region potential fails V > -E0")
    shots = shooting_states(
        grid, edges, lambda e: rel_coefficient(e, region_values, units),
        np.linspace(e_lo, e_hi, n_scan))
    if not shots:
        raise NoRootError(f"no matching sign change in [{e_lo}, {e_hi}]")
    return [ModifiedEigenResult(energy=e_star, state=psi, iterations=0,
                                self_consistency_residual=residual,
                                node_count=nodes, method="shooting")
            for e_star, psi, residual, nodes in shots]


def rel_stability_limit(scenario: RelScenario, safety: float = 0.9) -> float:
    """Leapfrog step bound from the maximal wave speed c/(1 + min V/E0) and
    the mass-term frequency."""
    grid, units = scenario.grid, scenario.units
    factor = 1.0 + scenario.potential_samples / units.E0
    fmin = float(np.min(factor))
    omega_max = np.sqrt((units.c**2 * 4.0 / grid.h**2
                         + (units.E0 / units.hbar) ** 2) / fmin**2)
    return safety * 2.0 / omega_max


def propagate_rel_timedep(phi0: WaveField, dphi0_dt: WaveField,
                          scenario: RelScenario, dt: float, steps: int,
                          stride: int = 1):
    """Leapfrog evolution of
    phi_tt = (c^2 Laplacian phi - (E0/hbar)^2 phi) / (1 + V/E0)^2.

    With V = 0 the update is the discrete Klein-Gordon step (unit factor,
    same code path). Returns the states at steps 0, stride, 2 stride, ...
    and the final step; the default keeps every state. Raises
    StabilityError on norm blow-up beyond 10x, checked at every step.
    """
    check_stride(stride)
    grid, units = scenario.grid, scenario.units
    limit = rel_stability_limit(scenario)
    if dt <= 0 or dt > limit:
        raise ConfigurationError(f"dt={dt} violates the stability bound {limit:.3e}")
    inv_factor_sq = 1.0 / (1.0 + scenario.potential_samples / units.E0) ** 2
    lap = build_laplacian(grid).matrix
    mass_sq = (units.E0 / units.hbar) ** 2

    def accel(phi):
        return inv_factor_sq * (units.c**2 * (lap @ phi) - mass_sq * phi)

    phi_prev = phi0.values
    vel = dphi0_dt.values
    a = accel(phi_prev)
    phi = phi_prev + dt * vel + 0.5 * dt**2 * a
    norm0 = max(float(np.linalg.norm(phi_prev)), 1e-300)
    trajectory = [TimeDepState(phi0, dphi0_dt, 0.0, 0.0, 0.0)]
    if stride == 1 or steps <= 1:  # step 1 is kept like step k below
        trajectory.append(TimeDepState(WaveField(phi, grid),
                                       WaveField(vel + dt * a, grid),
                                       dt, 0.0, 0.0))
    for k in range(2, steps + 1):
        phi_next = 2.0 * phi - phi_prev + dt**2 * accel(phi)
        if float(np.linalg.norm(phi_next)) > 10.0 * norm0 + 1e-300:
            raise StabilityError(
                f"norm grew beyond 10x at step {k}; reduce dt below "
                f"{rel_stability_limit(scenario):.3e}")
        if k % stride == 0 or k == steps:
            vel = (phi_next - phi_prev) / (2.0 * dt)
            trajectory.append(TimeDepState(
                WaveField(phi_next, grid), WaveField(vel, grid), k * dt,
                0.0, 0.0))
        phi_prev, phi = phi, phi_next
    return trajectory


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
