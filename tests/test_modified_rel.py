import numpy as np
import pytest

from wavekit import modified_nr as mnr
from wavekit import modified_rel as mrel
from wavekit.errors import (ConfigurationError, InvalidScenarioError,
                            OutOfScopeError, StabilityError)
from wavekit.numgrid import Grid, WaveField, build_laplacian
from wavekit.potentials import PotentialSpec
from wavekit.units import UnitSystem

U = UnitSystem(c=10.0)


def scenario(potential=None, n=2000):
    return mrel.RelScenario(U, potential or PotentialSpec.free(),
                            Grid.line(0.0, 1.0, n))


def rel_limit(sc):
    """The leapfrog step bound in closed form: 0.9 times 2/omega, from the
    largest wave speed c/(1 + min V/E0) and the mass-term frequency."""
    units = sc.units
    fmin = float(np.min(1.0 + sc.potential_samples / units.E0))
    omega = np.sqrt((units.c**2 * 4.0 / sc.grid.h**2
                     + (units.E0 / units.hbar) ** 2) / fmin**2)
    return 0.9 * 2.0 / omega


def test_scenario_rejects_potential_below_minus_rest_energy():
    with pytest.raises(InvalidScenarioError):
        mrel.RelScenario(U, PotentialSpec.piecewise_constant([], [-2.0 * U.E0]),
                         Grid.line(0.0, 1.0, 64))


def test_box_spectrum_matches_closed_form():
    sc = scenario()
    exact = [mrel.rel_box_energy(n, 1.0, 0.0, U) for n in range(1, 5)]
    res = mrel.solve_rel_stationary(sc, (exact[0] - 5.0, exact[-1] + 5.0))
    np.testing.assert_allclose([r.energy for r in res], exact, rtol=1e-12)
    assert [r.node_count for r in res] == [0, 1, 2, 3]


def test_box_energies_exceed_nonrelativistic_rest_frame():
    # each level sits above E0 and below E0 + the box kinetic energy
    for n in (1, 2, 3):
        e = mrel.rel_box_energy(n, 1.0, 0.0, U)
        kin = (n * np.pi * U.hbar) ** 2 / (2.0 * U.m)
        assert U.E0 < e < U.E0 + kin


def test_constant_potential_shifts_spectrum():
    v0 = 5.0
    sc = scenario(PotentialSpec.piecewise_constant([], [v0]))
    exact = [mrel.rel_box_energy(n, 1.0, v0, U) for n in (1, 2)]
    res = mrel.solve_rel_stationary(sc, (exact[0] - 3.0, exact[-1] + 3.0))
    np.testing.assert_allclose([r.energy for r in res], exact, rtol=1e-12)


def test_free_reduction_is_klein_gordon_leapfrog():
    # with V = 0 the propagation step must equal an independently coded
    # Klein-Gordon leapfrog, state by state
    n = 256
    sc = mrel.RelScenario(U, PotentialSpec.free(), Grid.line(0.0, 1.0, n))
    g = sc.grid
    rng = np.random.default_rng(5)
    phi0 = WaveField(np.sin(np.pi * g.x) * rng.uniform(0.5, 1.0), g)
    dphi0 = WaveField(np.zeros(n, complex), g)
    dt = rel_limit(sc) * 0.5
    steps = 50
    traj = mrel.propagate_rel_timedep(phi0, dphi0, sc, dt, steps)

    # independent reference leapfrog
    h = g.h
    m2 = (U.E0 / U.hbar) ** 2
    def acc(u):
        # walls stay pinned: the Laplacian rows at the end nodes vanish
        lap = np.zeros_like(u)
        lap[1:-1] = (u[2:] - 2 * u[1:-1] + u[:-2]) / h**2
        return U.c**2 * lap - m2 * u
    prev = phi0.values.copy()
    cur = prev + 0.5 * dt**2 * acc(prev)
    for k in range(2, steps + 1):
        nxt = 2 * cur - prev + dt**2 * acc(cur)
        prev, cur = cur, nxt
        assert np.max(np.abs(traj[k].psi.values - cur)) < 1e-12 * (k + 1)


@pytest.mark.parametrize("steps, stride", [(40, 1), (40, 8), (43, 8), (1, 4)])
def test_strided_propagation_keeps_every_stride_th_and_final_state(steps,
                                                                   stride):
    sc = scenario(n=128)
    g = sc.grid
    phi0 = WaveField(np.sin(np.pi * g.x).astype(complex), g)
    dphi0 = WaveField(np.zeros(128, complex), g)
    dt = 0.5 * rel_limit(sc)
    full = mrel.propagate_rel_timedep(phi0, dphi0, sc, dt, steps)
    kept = mrel.propagate_rel_timedep(phi0, dphi0, sc, dt, steps, stride)
    want = full[::stride]
    if steps % stride:
        want.append(full[-1])
    assert len(kept) == len(want)
    for a, b in zip(kept, want):
        assert a.t == b.t
        assert np.array_equal(a.psi.values, b.psi.values)
        assert np.array_equal(a.dpsi_dt.values, b.dpsi_dt.values)


def _sine_start(n):
    sc = scenario(n=n)
    phi0 = WaveField(np.sin(np.pi * sc.grid.x).astype(complex), sc.grid)
    return phi0, WaveField(np.zeros(n, complex), sc.grid), sc


def test_zero_steps_keep_only_phi0():
    phi0, dphi0, sc = _sine_start(64)
    (only,) = mrel.propagate_rel_timedep(phi0, dphi0, sc,
                                         0.5 * rel_limit(sc), 0)
    assert only.t == 0.0 and np.array_equal(only.psi.values, phi0.values)


@pytest.mark.parametrize("steps", [-2, 3.0, False])
def test_propagation_rejects_bad_steps(steps):
    phi0, dphi0, sc = _sine_start(64)
    with pytest.raises(ConfigurationError, match="steps must be an integer"):
        mrel.propagate_rel_timedep(phi0, dphi0, sc,
                                   0.5 * rel_limit(sc), steps)


def test_plane_wave_frequency_matches_dispersion():
    sc = scenario()
    g = sc.grid
    k = np.pi
    om = np.sqrt((U.c * k) ** 2 + (U.E0 / U.hbar) ** 2)
    phi0 = WaveField(np.sin(k * g.x).astype(complex), g)
    dphi0 = WaveField(-1j * om * phi0.values, g)
    dt = rel_limit(sc) * 0.5
    traj = mrel.propagate_rel_timedep(phi0, dphi0, sc, dt, 1000)
    mid = g.n_points // 2
    phase = np.unwrap(np.angle([s.psi.values[mid] for s in traj]))
    om_fit = -np.polyfit([s.t for s in traj], phase, 1)[0]
    assert om_fit == pytest.approx(om, rel=1e-4)


def test_propagation_rejects_oversized_step():
    sc = scenario(n=256)
    g = sc.grid
    phi0 = WaveField(np.sin(np.pi * g.x).astype(complex), g)
    dphi0 = WaveField(np.zeros(256, complex), g)
    with pytest.raises(ConfigurationError):
        mrel.propagate_rel_timedep(phi0, dphi0, sc,
                                   2.0 * rel_limit(sc), 10)


def test_propagation_stops_on_norm_growth_past_10x():
    # a field far smaller than its velocity: within the step bound, the
    # norm still passes 10x its initial value after a few steps
    sc = scenario(n=64)
    g = sc.grid
    mode = np.sin(np.pi * g.x).astype(complex)
    with pytest.raises(StabilityError, match="beyond 10x at step"):
        mrel.propagate_rel_timedep(WaveField(1e-2 * mode, g),
                                   WaveField(100.0 * mode, g), sc,
                                   0.01 * rel_limit(sc), 500)


def test_stability_limit_scales_with_grid():
    # a step the coarse grid takes is past the bound of the fine one
    dt = 0.99 * rel_limit(scenario(n=1000))
    assert len(mrel.propagate_rel_timedep(*_sine_start(1000), dt, 1)) == 2
    with pytest.raises(ConfigurationError, match="stability bound"):
        mrel.propagate_rel_timedep(*_sine_start(4000), dt, 1)


def test_step_bound_is_the_closed_form_of_the_relativistic_equation():
    # the Gershgorin bound of the pair (1/(1 + V/E0)**2, c**2 L - (E0/hbar)**2)
    # is the closed form to within rounding, on either boundary: the
    # stepper accepts a step just inside it and refuses one just past it
    rng = np.random.default_rng(22)
    for trial in range(150):
        units = UnitSystem(c=float(rng.uniform(0.5, 50.0)),
                           m=float(rng.uniform(0.2, 5.0)))
        n = int(rng.integers(8, 300))
        g = Grid.line(0.0, float(rng.uniform(0.5, 20.0)), n,
                      ("dirichlet", "periodic")[trial % 2])
        cuts = np.sort(rng.uniform(g.x_min, g.x_max, 2))
        V = PotentialSpec.piecewise_constant(
            cuts, units.E0 * rng.uniform(-0.9, 3.0, 3))
        sc = mrel.RelScenario(units, V, g)
        want = rel_limit(sc)
        a = {k: units.c**2 * row.astype(complex)
             for k, row in build_laplacian(g).diagonals.items()}
        a[0] -= (units.E0 / units.hbar) ** 2
        inv_m = 1.0 / (1.0 + sc.potential_samples / units.E0) ** 2
        assert abs(mnr.step_bound(inv_m, a) - want) <= 4 * np.spacing(want), \
            trial
        zero = WaveField(np.zeros(n), g)
        assert mrel.propagate_rel_timedep(zero, zero, sc, want * (1 - 1e-14), 0)
        with pytest.raises(ConfigurationError, match="stability bound"):
            mrel.propagate_rel_timedep(zero, zero, sc, want * (1 + 1e-14), 0)


def test_electrostatic_invariant_potential():
    out = mrel.electrostatic_invariant_potential(2.0, 3.0, 1.5, U)
    assert out == pytest.approx(1.5 * 3.0 * 2.0 / U.E0)
    with pytest.raises(OutOfScopeError):
        mrel.electrostatic_invariant_potential(
            2.0, 3.0, 1.5, U, vector_potential=np.array([1.0, 0.0, 0.0]))
