import numpy as np
import pytest

from wavekit.numgrid import Grid
from wavekit.potentials import PotentialSpec
from wavekit.reference import (dirac_free_energies, harmonic_energy,
                               hydrogen_energy, hydrogen_ground_state,
                               infinite_well_energy, klein_gordon_energy,
                               solve_schrodinger_stationary)
from wavekit.shooting import bracketed_roots
from wavekit.units import UnitSystem

UNITS = UnitSystem()


def finite_well_bound_energies(depth: float, half_width: float,
                               units: UnitSystem = UnitSystem(),
                               n_scan: int = 20000):
    """Bound energies of the standard finite square well via the matching
    conditions k tan(ka) = kappa (even) and -k cot(ka) = kappa (odd): an
    oracle independent of the grid solver.
    """
    hbar, m = units.hbar, units.m

    def k_in(E):
        return np.sqrt(2.0 * m * (E + depth)) / hbar

    def kappa(E):
        return np.sqrt(-2.0 * m * E) / hbar

    def even(E):
        return k_in(E) * np.sin(k_in(E) * half_width) - kappa(E) * np.cos(
            k_in(E) * half_width)

    def odd(E):
        return k_in(E) * np.cos(k_in(E) * half_width) + kappa(E) * np.sin(
            k_in(E) * half_width)

    es = np.linspace(-depth * (1 - 1e-9), -depth * 1e-9, n_scan)
    roots = [bracketed_roots(f, es) for f in (even, odd)]
    return sorted(np.concatenate(roots).tolist())


def test_infinite_well_spectrum():
    g = Grid.line(0.0, np.pi, 2048)
    res = solve_schrodinger_stationary(g, PotentialSpec.free(), 5, UNITS)
    for j, e in enumerate(res.energies, start=1):
        exact = infinite_well_energy(j, np.pi, UNITS)
        assert e == pytest.approx(exact, rel=1e-3)
    assert res.node_counts == tuple(range(5))


def test_infinite_well_self_consistency_residual():
    g = Grid.line(0.0, np.pi, 512)
    res = solve_schrodinger_stationary(g, PotentialSpec.free(), 3, UNITS)
    assert max(res.diagnostics["residuals"]) < 1e-7


def test_harmonic_spectrum():
    g = Grid.line(-10.0, 10.0, 2048)
    res = solve_schrodinger_stationary(g, PotentialSpec.harmonic(1.0), 4, UNITS)
    for j, e in enumerate(res.energies):
        assert e == pytest.approx(harmonic_energy(j, 1.0, UNITS), rel=1e-4)


def test_coulomb_radial_spectrum():
    g = Grid.radial(40.0, 3000)
    res = solve_schrodinger_stationary(g, PotentialSpec.coulomb(1.0), 2, UNITS)
    assert res.energies[0] == pytest.approx(hydrogen_energy(1, 1.0, UNITS),
                                            rel=1e-3)
    assert res.energies[1] == pytest.approx(hydrogen_energy(2, 1.0, UNITS),
                                            rel=1e-3)


def test_finite_well_transcendental_vs_grid():
    roots = finite_well_bound_energies(10.0, 1.0, UNITS)
    assert len(roots) == 3
    g = Grid.line(-12.0, 12.0, 4000)
    res = solve_schrodinger_stationary(
        g, PotentialSpec.square_well(10.0, 1.0), 3, UNITS)
    # the sampled jump limits the grid solve to first-order accuracy
    np.testing.assert_allclose(res.energies, roots, rtol=1e-2)


def test_finite_well_shallow_has_one_even_state():
    roots = finite_well_bound_energies(0.2, 0.5, UNITS)
    assert len(roots) == 1  # an arbitrarily shallow well still binds once


def test_hydrogen_ground_state_normalized():
    g = Grid.radial(30.0, 20000)
    u = hydrogen_ground_state(g)
    assert u.norm() == pytest.approx(1.0, abs=1e-6)
    # reduced function r R(r) peaks at the length scale 1/k
    assert g.x[int(np.argmax(np.abs(u.values)))] == pytest.approx(1.0, abs=1e-2)


def test_klein_gordon_energy_limits():
    u = UnitSystem(c=10.0)
    assert klein_gordon_energy(0.0, u.E0, u.c) == pytest.approx(u.E0)
    p = 3.0
    assert klein_gordon_energy(p, u.E0, u.c) == pytest.approx(
        np.sqrt((u.c * p) ** 2 + u.E0**2))
    # nonrelativistic expansion: E - E0 -> p^2/2m for p << mc
    small = 1e-3
    assert (klein_gordon_energy(small, u.E0, u.c) - u.E0) == pytest.approx(
        small**2 / (2 * u.m), rel=1e-5)


def test_dirac_free_energies_pair_up():
    u = UnitSystem(c=5.0)
    e = dirac_free_energies(2.0, u.E0, u.c)
    assert sorted(e) == sorted([-klein_gordon_energy(2.0, u.E0, u.c),
                                klein_gordon_energy(2.0, u.E0, u.c)])
