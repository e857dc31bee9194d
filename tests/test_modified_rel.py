import numpy as np
import pytest

from wavekit import modified_nr as mnr
from wavekit import modified_rel as mrel
from wavekit.errors import (ConfigurationError, InvalidScenarioError,
                            OutOfScopeError, StabilityError)
from wavekit.numgrid import Grid, WaveField, build_laplacian
from wavekit.potentials import PotentialSpec, evaluate
from wavekit.units import UnitSystem

U = UnitSystem(c=10.0)
FREE = PotentialSpec.free()


def line(n=2000):
    return Grid.line(0.0, 1.0, n)


def rel_limit(g, V=FREE, units=U):
    """The leapfrog step bound in closed form: 0.9 times 2/omega, from the
    largest wave speed c/(1 + min V/E0) and the mass-term frequency."""
    fmin = float(np.min(1.0 + evaluate(V, g.x) / units.E0))
    omega = np.sqrt((units.c**2 * 4.0 / g.h**2
                     + (units.E0 / units.hbar) ** 2) / fmin**2)
    return 0.9 * 2.0 / omega


def test_scenario_rejects_potential_below_minus_rest_energy():
    g, V = line(64), PotentialSpec.piecewise_constant([], [-2.0 * U.E0])
    zero = WaveField(np.zeros(64), g)
    with pytest.raises(InvalidScenarioError):
        mrel.solve_rel_stationary(g, V, (1.0, 2.0), U)
    with pytest.raises(InvalidScenarioError):
        mrel.propagate_rel_timedep(zero, zero, V, 1e-6, 1, U)


def test_box_spectrum_matches_closed_form():
    exact = [mrel.rel_box_energy(n, 1.0, 0.0, U) for n in range(1, 5)]
    res = mrel.solve_rel_stationary(line(), FREE,
                                    (exact[0] - 5.0, exact[-1] + 5.0), U)
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
    exact = [mrel.rel_box_energy(n, 1.0, v0, U) for n in (1, 2)]
    V = PotentialSpec.piecewise_constant([], [v0])
    res = mrel.solve_rel_stationary(line(), V, (exact[0] - 3.0, exact[-1] + 3.0),
                                    U)
    np.testing.assert_allclose([r.energy for r in res], exact, rtol=1e-12)


def test_free_reduction_is_klein_gordon_leapfrog():
    # with V = 0 the propagation step must equal an independently coded
    # Klein-Gordon leapfrog, state by state
    n = 256
    g = line(n)
    rng = np.random.default_rng(5)
    phi0 = WaveField(np.sin(np.pi * g.x) * rng.uniform(0.5, 1.0), g)
    dphi0 = WaveField(np.zeros(n, complex), g)
    dt = rel_limit(g) * 0.5
    steps = 50
    traj = mrel.propagate_rel_timedep(phi0, dphi0, FREE, dt, steps, U)

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
    g = line(128)
    phi0 = WaveField(np.sin(np.pi * g.x).astype(complex), g)
    dphi0 = WaveField(np.zeros(128, complex), g)
    dt = 0.5 * rel_limit(g)
    full = mrel.propagate_rel_timedep(phi0, dphi0, FREE, dt, steps, U)
    kept = mrel.propagate_rel_timedep(phi0, dphi0, FREE, dt, steps, U, stride)
    want = full[::stride]
    if steps % stride:
        want.append(full[-1])
    assert len(kept) == len(want)
    for a, b in zip(kept, want):
        assert a.t == b.t
        assert np.array_equal(a.psi.values, b.psi.values)
        assert np.array_equal(a.dpsi_dt.values, b.dpsi_dt.values)


def _sine_start(n):
    g = line(n)
    phi0 = WaveField(np.sin(np.pi * g.x).astype(complex), g)
    return phi0, WaveField(np.zeros(n, complex), g), FREE


def test_zero_steps_keep_only_phi0():
    phi0, dphi0, V = _sine_start(64)
    (only,) = mrel.propagate_rel_timedep(phi0, dphi0, V,
                                         0.5 * rel_limit(phi0.grid), 0, U)
    assert only.t == 0.0 and np.array_equal(only.psi.values, phi0.values)


@pytest.mark.parametrize("steps", [-2, 3.0, False])
def test_propagation_rejects_bad_steps(steps):
    phi0, dphi0, V = _sine_start(64)
    with pytest.raises(ConfigurationError, match="steps must be an integer"):
        mrel.propagate_rel_timedep(phi0, dphi0, V,
                                   0.5 * rel_limit(phi0.grid), steps, U)


def test_plane_wave_frequency_matches_dispersion():
    g = line()
    k = np.pi
    om = np.sqrt((U.c * k) ** 2 + (U.E0 / U.hbar) ** 2)
    phi0 = WaveField(np.sin(k * g.x).astype(complex), g)
    dphi0 = WaveField(-1j * om * phi0.values, g)
    dt = rel_limit(g) * 0.5
    traj = mrel.propagate_rel_timedep(phi0, dphi0, FREE, dt, 1000, U)
    mid = g.n_points // 2
    phase = np.unwrap(np.angle([s.psi.values[mid] for s in traj]))
    om_fit = -np.polyfit([s.t for s in traj], phase, 1)[0]
    assert om_fit == pytest.approx(om, rel=1e-4)


def test_propagation_rejects_oversized_step():
    g = line(256)
    phi0 = WaveField(np.sin(np.pi * g.x).astype(complex), g)
    dphi0 = WaveField(np.zeros(256, complex), g)
    with pytest.raises(ConfigurationError):
        mrel.propagate_rel_timedep(phi0, dphi0, FREE,
                                   2.0 * rel_limit(g), 10, U)


def test_propagation_stops_on_norm_growth_past_10x():
    # a field far smaller than its velocity: within the step bound, the
    # norm still passes 10x its initial value after a few steps
    g = line(64)
    mode = np.sin(np.pi * g.x).astype(complex)
    with pytest.raises(StabilityError, match="beyond 10x at step"):
        mrel.propagate_rel_timedep(WaveField(1e-2 * mode, g),
                                   WaveField(100.0 * mode, g), FREE,
                                   0.01 * rel_limit(g), 500, U)


def test_stability_limit_scales_with_grid():
    # a step the coarse grid takes is past the bound of the fine one
    dt = 0.99 * rel_limit(line(1000))
    assert len(mrel.propagate_rel_timedep(*_sine_start(1000), dt, 1, U)) == 2
    with pytest.raises(ConfigurationError, match="stability bound"):
        mrel.propagate_rel_timedep(*_sine_start(4000), dt, 1, U)


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
        want = rel_limit(g, V, units)
        a = {k: units.c**2 * row.astype(complex)
             for k, row in build_laplacian(g).diagonals.items()}
        a[0] -= (units.E0 / units.hbar) ** 2
        inv_m = 1.0 / (1.0 + evaluate(V, g.x) / units.E0) ** 2
        assert abs(mnr.step_bound(inv_m, a) - want) <= 4 * np.spacing(want), \
            trial
        zero = WaveField(np.zeros(n), g)
        assert mrel.propagate_rel_timedep(zero, zero, V, want * (1 - 1e-14), 0,
                                          units)
        with pytest.raises(ConfigurationError, match="stability bound"):
            mrel.propagate_rel_timedep(zero, zero, V, want * (1 + 1e-14), 0,
                                       units)


def test_electrostatic_invariant_potential():
    out = mrel.electrostatic_invariant_potential(2.0, 3.0, 1.5, U)
    assert out == pytest.approx(1.5 * 3.0 * 2.0 / U.E0)
    with pytest.raises(OutOfScopeError):
        mrel.electrostatic_invariant_potential(
            2.0, 3.0, 1.5, U, vector_potential=np.array([1.0, 0.0, 0.0]))
