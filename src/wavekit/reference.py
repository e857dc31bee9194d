"""Standard-equation baselines: the stationary Schrodinger solver, free
Klein-Gordon / Dirac dispersion, and the analytic catalogs
(infinite well, harmonic, hydrogenic) used as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numgrid import (BandedOperator, Grid, WaveField, _clusters,
                      build_laplacian, count_nodes, lowest_eigenpairs, matvec)
from .potentials import PotentialSpec, evaluate
from .units import UnitSystem


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    """Eigenpairs plus solver diagnostics."""

    energies: np.ndarray
    states: list          # list[WaveField] (or SpinorField for spin solvers)
    node_counts: tuple
    diagnostics: dict = field(default_factory=dict)


def kinetic_operator(grid: Grid, units: UnitSystem):
    """(-hbar^2 / 2m) and the Laplacian of the grid."""
    return -units.hbar**2 / (2.0 * units.m), build_laplacian(grid)


def hamiltonian(lap: BandedOperator, factor: float, v: np.ndarray) -> dict:
    """Diagonals of ``factor * L + diag(v)``."""
    h = {k: factor * row for k, row in lap.diagonals.items()}
    h[0] = h[0] + v
    return h


def solve_schrodinger_stationary(grid: Grid, V: PotentialSpec, n_states: int,
                                 units: UnitSystem = UnitSystem()) -> SpectrumResult:
    """Lowest eigenpairs of -hbar^2/2m Laplacian + V by banded eigensolve.
    ``diagnostics`` records the residuals, the band's half-bandwidth and
    the sizes of the ``clusters`` of levels (numgrid._clusters)."""
    factor, lap = kinetic_operator(grid, units)
    v_samples = np.asarray(evaluate(V, grid.x), dtype=float)
    energies, states = lowest_eigenpairs(lap, factor, v_samples, n_states)
    fields = [WaveField(states[:, j], grid) for j in range(n_states)]
    h = hamiltonian(lap, factor, v_samples)
    with np.errstate(over="ignore", invalid="ignore"):  # NaN: refused in a report
        residuals = [float(np.max(np.abs(matvec(h, f.values) - e * f.values)))
                     for e, f in zip(energies, fields)]
        scale = float(np.max(matvec({k: np.abs(row) for k, row in h.items()},
                                    np.ones(grid.n_points))))  # largest row sum
    nodes = tuple(count_nodes(f.values) for f in fields)
    return SpectrumResult(energies, fields, nodes,
                          {"residuals": residuals, "method": "banded_eigensolve",
                           "bandwidth": lap.lower_band.shape[0] - 1,
                           "clusters": [b - a for a, b in _clusters(energies, scale)]})


def klein_gordon_energy(p: float, E0: float, c: float) -> float:
    """Free relativistic dispersion sqrt(c^2 p^2 + E0^2)."""
    return float(np.sqrt((c * p) ** 2 + E0**2))


def dirac_free_energies(p: float, E0: float, c: float):
    """Both branches +-sqrt(c^2 p^2 + E0^2) of the free Dirac spectrum."""
    e = klein_gordon_energy(p, E0, c)
    return (e, -e)


# -- analytic catalogs -----------------------------------------------------

def infinite_well_energy(n: int, L: float, units: UnitSystem = UnitSystem()) -> float:
    """n-th level (n >= 1) of the box of width L with hard walls."""
    return (n * np.pi * units.hbar / L) ** 2 / (2.0 * units.m)


def harmonic_energy(n: int, omega: float, units: UnitSystem = UnitSystem()) -> float:
    """n-th level (n >= 0) of the oscillator, (n + 1/2) hbar omega."""
    return (n + 0.5) * units.hbar * omega


def hydrogen_energy(n: int, k: float, units: UnitSystem = UnitSystem()) -> float:
    """n-th hydrogenic level (n >= 1) for V = -k/r."""
    return -(k**2) * units.m / (2.0 * units.hbar**2 * n**2)


def hydrogen_ground_state(grid: Grid, k: float = 1.0,
                          units: UnitSystem = UnitSystem()) -> WaveField:
    """Normalized reduced radial 1s state u(r) ~ r exp(-r/a0) on the grid."""
    a0 = units.hbar**2 / (units.m * k)
    u = grid.x * np.exp(-grid.x / a0)
    return WaveField(u, grid).normalized()
