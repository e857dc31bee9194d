import hashlib
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.special

from wavekit import modified_nr as mnr
from wavekit import modified_rel as mrel
from wavekit import shooting
from wavekit.errors import (ConfigurationError, NoRootError,
                            NonConvergenceError, NonHyperbolicRegimeError,
                            SingularRegionError, StabilityError,
                            StateTrackingError, WavekitError)
from wavekit.numgrid import (BandedOperator, Grid, WaveField, build_laplacian,
                             lowest_eigenpairs, matvec)
from wavekit.potentials import (E_EQUALS_V, PotentialSpec, evaluate,
                                find_singular_set)
from wavekit.reference import (hydrogen_ground_state, infinite_well_energy,
                               kinetic_operator, solve_schrodinger_stationary)
from wavekit.units import UnitSystem

U = UnitSystem()


# -- effective potential ----------------------------------------------------

def test_effective_potential_free_is_zero():
    g = Grid.line(-1.0, 1.0, 32)
    w = mnr.effective_potential(PotentialSpec.free(), 1.0, g)
    assert np.max(np.abs(w)) == 0.0


def test_effective_potential_square_well_hand_value():
    # V = -10 inside, E = -4: 3V - V^2/(E-V) = -30 - 100/6
    g = Grid.line(-2.0, 2.0, 65)
    w = mnr.effective_potential(PotentialSpec.square_well(10.0, 1.0), -4.0, g)
    inside = np.abs(g.x) < 0.9
    np.testing.assert_allclose(w[inside], -30.0 - 100.0 / 6.0, rtol=1e-12)
    np.testing.assert_allclose(w[np.abs(g.x) > 1.1], 0.0)


def test_effective_potential_reject_lists_turning_points():
    g = Grid.line(-6.0, 6.0, 400)
    with pytest.raises(SingularRegionError) as exc:
        mnr.effective_potential(PotentialSpec.harmonic(1.0), 1.0, g)
    locs = sorted(exc.value.singular_set.locations)
    np.testing.assert_allclose(locs, [-np.sqrt(2.0), np.sqrt(2.0)], atol=1e-9)


def test_effective_potential_clamp_is_finite():
    g = Grid.line(-6.0, 6.0, 400)
    guard = mnr.GuardPolicy(mode="clamp", floor=1e-6)
    w = mnr.effective_potential(PotentialSpec.harmonic(1.0), 1.0, g, guard)
    assert np.all(np.isfinite(w))


@pytest.mark.parametrize("policy", ["reject", "clamp"])
def test_effective_levels_equal_the_array_samples_bit_for_bit(policy):
    # the exact backend's scalar W against the array one: E on a level, a
    # float off it, inside and at the clamp floor, and W past the float
    # range (inf or nan where NumPy gives them, whatever the sign of nan)
    guard = mnr.GuardPolicy(policy, 1e-6)
    v = [0.0, -0.0, -4.0, 3.5, 1e-200, -1e-200, 1e200, 1e300, -1e300]
    energies = [0.0, -0.0, 1e300, -1e308]
    for level in v:
        energies += [level, np.nextafter(level, np.inf), level - 1e-6,
                     level + 5e-7, level - 2e-6]
    for e in energies:
        with np.errstate(all="ignore"):
            want = mnr._effective_samples(np.array(v), float(e), guard)
        got = mnr._effective_levels(v, float(e), guard)
        assert all(type(w) is float for w in got)
        assert [w.hex() if w == w else "nan" for w in got] == \
            [float(w).hex() if w == w else "nan" for w in want], e


# -- shooting ---------------------------------------------------------------

def test_shooting_free_reduces_to_box():
    g = Grid.line(0.0, np.pi, 200)
    res = mnr.solve_stationary_shooting(g, PotentialSpec.free(), (0.1, 13.0), U)
    exact = [infinite_well_energy(n, np.pi, U) for n in (1, 2, 3, 4, 5)]
    np.testing.assert_allclose([r.energy for r in res], exact, rtol=1e-9)
    assert [r.node_count for r in res] == [0, 1, 2, 3, 4]


def test_shooting_node_counts_decrease_with_energy():
    g = Grid.line(-6.0, 6.0, 400)
    res = mnr.solve_stationary_shooting(
        g, PotentialSpec.square_well(10.0, 1.0), (-9.5, -0.01), U)
    nodes = [r.node_count for r in res]
    assert all(a > b for a, b in zip(nodes, nodes[1:]))


def test_shooting_no_root_in_empty_bracket():
    g = Grid.line(-6.0, 6.0, 200)
    with pytest.raises(NoRootError):
        mnr.solve_stationary_shooting(
            g, PotentialSpec.square_well(10.0, 1.0), (-0.003, -0.001), U)


def test_shooting_matches_dense_scan_root_count():
    g = Grid.line(-6.0, 6.0, 400)
    spec = PotentialSpec.square_well(10.0, 1.0)
    res = mnr.solve_stationary_shooting(g, spec, (-9.5, -0.01), U,
                                        n_scan=10000)
    res_fine = mnr.solve_stationary_shooting(g, spec, (-9.5, -0.01), U,
                                             n_scan=40000)
    assert len(res) == len(res_fine)


# -- fixed point ------------------------------------------------------------

def test_fixed_point_free_matches_reference_exactly():
    # with V = 0 the iteration operator is the reference discrete operator
    g = Grid.line(0.0, np.pi, 300)
    ref = solve_schrodinger_stationary(g, PotentialSpec.free(), 3, U)
    for j in range(3):
        res = mnr.solve_stationary_fixed_point(
            g, PotentialSpec.free(), j, e_init=1.0, units=U)
        assert res.iterations == 1
        assert abs(res.energy - ref.energies[j]) < 1e-12


def test_fixed_point_self_consistent_seed_returns_immediately():
    g = Grid.line(-6.0, 6.0, 400)
    spec = PotentialSpec.square_well(10.0, 1.0)
    roots = mnr.solve_stationary_shooting(g, spec, (-9.5, -0.01), U)
    r = roots[-1]  # fewest nodes
    res = mnr.solve_stationary_fixed_point(
        g, spec, r.node_count, r.energy, tol=1e-8, units=U, backend="exact")
    assert res.iterations == 1
    assert abs(res.energy - r.energy) < 1e-10
    assert res.self_consistency_residual <= 1e-8


def test_fixed_point_backends_agree_under_iteration():
    # from a perturbed seed both backends relax to the same self-consistent
    # solution; the grid answer differs only by the sampled-jump error
    g = Grid.line(-6.0, 6.0, 2000)
    spec = PotentialSpec.square_well(1.26, 1.28)
    seed, index = -0.91, 3
    exact = mnr.solve_stationary_fixed_point(
        g, spec, index, seed, tol=1e-8, units=U, backend="exact")
    grid = mnr.solve_stationary_fixed_point(
        g, spec, index, seed, tol=1e-8, units=U, backend="grid")
    assert exact.iterations > 1  # genuine relaxation, not a trivial return
    assert grid.energy == pytest.approx(exact.energy, abs=5e-3)
    assert exact.self_consistency_residual <= 1e-8


def test_fixed_point_max_iter_exhaustion_keeps_history():
    g = Grid.line(-6.0, 6.0, 400)
    spec = PotentialSpec.square_well(10.0, 1.0)
    with pytest.raises(NonConvergenceError) as exc:
        mnr.solve_stationary_fixed_point(
            g, spec, 6, e_init=-5.0, max_iter=1, units=U, backend="exact")
    assert len(exc.value.history) >= 1


def test_fixed_point_surfaces_singular_iterate():
    g = Grid.line(-6.0, 6.0, 400)
    with pytest.raises(SingularRegionError):
        mnr.solve_stationary_fixed_point(
            g, PotentialSpec.harmonic(1.0), 0, e_init=1.0, units=U)


def _frozen_eigenvalues(grid, spec, E):
    """eigvalsh of the dense operator -hbar^2/2m L + W(E) on the unknowns."""
    factor, lap = kinetic_operator(grid, U)
    h = factor * lap.to_dense() + np.diag(mnr.effective_potential(spec, E, grid))
    unknowns = slice(None) if grid.kind == "radial" else slice(1, -1)
    return scipy.linalg.eigvalsh(h[unknowns, unknowns])


@pytest.mark.parametrize("grid, spec", [
    (Grid.line(-4.0, 4.0, 400), PotentialSpec.barrier(40.0, -1.0, 1.0)),
    (Grid.radial(8.0, 400), PotentialSpec.barrier(80.0, 3.0, 5.0)),
])
@pytest.mark.parametrize("index", [0, 1, 2, 3])
def test_grid_fixed_point_is_eigenvalue_index_k_of_the_frozen_operator(
        grid, spec, index):
    # a high central barrier makes two wells. On the line grid they are
    # mirror images and the pairs are degenerate to about 2e-12; on the
    # radial grid they differ slightly, states localize in one well each,
    # and a node inside the barrier lies far below the sampling floor of
    # count_nodes. Only the eigenvalue index identifies the state there.
    res = mnr.solve_stationary_fixed_point(grid, spec, index, 1.0, units=U)
    mu = _frozen_eigenvalues(grid, spec, res.energy)[index]
    assert abs(mu - res.energy) <= 1e-10 + 1e-12
    assert res.node_count == index


@pytest.mark.parametrize("grid, index", [(Grid.line(-1.0, 1.0, 10), 8),
                                         (Grid.radial(2.0, 10), 10),
                                         (Grid.line(-1.0, 1.0, 10, "periodic"),
                                          10)])
def test_grid_fixed_point_state_beyond_the_grid_is_a_tracking_error(grid,
                                                                   index):
    spec = PotentialSpec.square_well(1.0, 0.5, center=0.5 * grid.x_max)
    with pytest.raises(StateTrackingError):
        mnr.solve_stationary_fixed_point(grid, spec, index, -0.5, units=U)


def test_free_ring_state_1_is_the_same_level_on_every_grid():
    # the k = 1 level of the ring [0, 2 pi) is a degenerate pair at
    # E = 1/2; the node counts of its computed states depend on the basis
    # LAPACK returns, the eigenvalue index does not
    for n in (64, 400, 1000):
        g = Grid.line(0.0, 2.0 * np.pi, n, boundary="periodic")
        res = mnr.solve_stationary_fixed_point(g, PotentialSpec.free(), 1, 0.4,
                                               units=U)
        assert abs(res.energy - 0.5) < 1e-3


def test_periodic_solves_form_no_dense_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense path taken")

    monkeypatch.setattr(scipy.linalg, "eigh", refuse)
    monkeypatch.setattr(BandedOperator, "to_dense", refuse)
    g = Grid.line(-8.0, 8.0, 400, boundary="periodic")
    spec = PotentialSpec.harmonic(1.0)
    spectrum = solve_schrodinger_stationary(g, spec, 5, U)
    np.testing.assert_allclose(spectrum.energies, np.arange(5) + 0.5,
                               rtol=1e-3)
    assert spectrum.diagnostics["bandwidth"] == 2
    assert spectrum.diagnostics["clusters"] == [1] * 5
    # a barrier on the ring leaves one well of width 6 around x = 4 = -4
    barrier = PotentialSpec.barrier(40.0, -1.0, 1.0)
    res = mnr.solve_stationary_fixed_point(g, barrier, 1, 1.0, units=U)
    factor, lap = kinetic_operator(g, U)
    w = mnr.effective_potential(barrier, res.energy, g)
    psi = res.state.values
    assert res.state.norm() == pytest.approx(1.0)
    h_psi = factor * matvec(lap.diagonals, psi) + w * psi
    assert np.max(np.abs(h_psi - res.energy * psi)) < 1e-8


def test_fixed_point_surfaces_singular_linearized_eigenvalue():
    # the iterate E = -1 lies below V everywhere; its linear eigenvalue mu
    # does not, and E = V at x = +-sqrt(2 mu) must surface
    g = Grid.line(-6.0, 6.0, 400)
    spec = PotentialSpec.harmonic(1.0)
    mu = _frozen_eigenvalues(g, spec, -1.0)[0]
    with pytest.raises(SingularRegionError) as exc:
        mnr.solve_stationary_fixed_point(g, spec, 0, e_init=-1.0, units=U)
    root = np.sqrt(2.0 * mu)
    np.testing.assert_allclose(exc.value.singular_set.locations, [-root, root],
                               atol=1e-9)


@pytest.mark.parametrize("backend", ["grid", "exact"])
def test_fixed_point_reads_the_e_equals_v_levels_once(monkeypatch, backend):
    # a breakpoint at x_max gives the end node a level, 5, that no region
    # holds: an iterate on it has E = V at x_max, at the locations the scan
    # finds; iterates clear of every level make no scan
    g = Grid.line(-8.0, 8.0, 400)
    spec = PotentialSpec.piecewise_constant([-1.0, 1.0, 8.0],
                                            [0.0, -4.0, 0.0, 5.0])
    want = find_singular_set(spec, 5.0, E_EQUALS_V, g)
    assert want.locations == (8.0,)
    with pytest.raises(SingularRegionError) as exc:
        mnr.solve_stationary_fixed_point(g, spec, 0, e_init=5.0, units=U,
                                         backend=backend)
    assert exc.value.singular_set.locations == want.locations
    scans = []

    def counted_scan(*args, **kwargs):
        scans.append(args[1])
        return find_singular_set(*args, **kwargs)

    monkeypatch.setattr(mnr, "find_singular_set", counted_scan)
    with pytest.raises(NonConvergenceError) as exc:
        mnr.solve_stationary_fixed_point(g, spec, 0, e_init=-3.0, max_iter=5,
                                         units=U, backend=backend)
    assert len(exc.value.history) == 6 and scans == []


@pytest.mark.parametrize("spec, index, e_init, policy", [
    (PotentialSpec.barrier(40.0, -1.0, 1.0), 1, 1.0, "reject"),  # converges
    (PotentialSpec.square_well(12.0, 1.0), 1, -6.0, "reject"),   # wanders
    (PotentialSpec.harmonic(1.0), 0, -1.0, "clamp"),
])
def test_grid_fixed_point_samples_v_once_and_scans_twice_per_iterate(
        monkeypatch, spec, index, e_init, policy):
    calls = {"scan": 0, "sample": 0}
    scan, sample = mnr.find_singular_set, mnr.evaluate

    def counted_scan(*args, **kwargs):
        calls["scan"] += 1
        return scan(*args, **kwargs)

    def counted_sample(*args, **kwargs):
        calls["sample"] += 1
        return sample(*args, **kwargs)

    monkeypatch.setattr(mnr, "find_singular_set", counted_scan)
    monkeypatch.setattr(mnr, "evaluate", counted_sample)
    try:
        iterations = mnr.solve_stationary_fixed_point(
            Grid.line(-4.0, 4.0, 400), spec, index, e_init, max_iter=40,
            units=U, guard=mnr.GuardPolicy(policy)).iterations
    except NonConvergenceError as exc:
        iterations = len(exc.history) - 1
    assert calls["sample"] == 1
    assert calls["scan"] <= (2 * iterations if policy == "reject" else 0)


def _vector_fixed_point(grid, spec, index, e_k, max_iter, guard):
    """Reference: the grid-backend iteration with an eigenpair solve on
    every iterate (Dirichlet and radial grids), the eigenvalue and its
    normalized state taken from ``lowest_eigenpairs`` with vectors."""
    factor, lap = kinetic_operator(grid, U)
    v = np.asarray(evaluate(spec, grid.x), dtype=float)
    reject = guard.mode == "reject"
    history = [e_k]
    for it in range(1, max_iter + 1):
        if reject:
            mnr._reject_singular(spec, e_k, grid, "iterate")
        w = mnr._effective_samples(v, e_k, guard)
        mu, states = lowest_eigenpairs(lap, factor, w, 1, first=index)
        mu, state = float(mu[0]), WaveField(states[:, 0], grid).normalized()
        if abs(mu - e_k) <= 1e-10:
            return e_k, it, abs(mu - e_k), state
        if reject:
            mnr._reject_singular(spec, mu, grid, "linearized eigenvalue")
        if np.array_equal(mnr._effective_samples(v, mu, guard), w):
            return mu, it, 0.0, state
        e_k = 0.5 * e_k + 0.5 * mu
        history.append(e_k)
    raise NonConvergenceError("reference did not converge", history)


SQUARE_WELL_12 = (Grid.line(-8.0, 8.0, 400), PotentialSpec.square_well(12.0, 1.0))


@pytest.mark.parametrize("grid, spec, index, e_init, policy", [
    (*SQUARE_WELL_12, 7, -8.0, "reject"),   # converges in 45 iterations
    (*SQUARE_WELL_12, 7, -8.0, "clamp"),
    (*SQUARE_WELL_12, 1, -6.0, "reject"),   # wanders to max_iter
    (*SQUARE_WELL_12, 0, -12.0, "clamp"),   # starts on the well bottom
    (Grid.line(-4.0, 4.0, 400), PotentialSpec.harmonic(1.0), 0, -1.0, "clamp"),
    (Grid.line(-4.0, 4.0, 400), PotentialSpec.harmonic(1.0), 0, 0.3, "reject"),
    (Grid.line(-4.0, 4.0, 300), PotentialSpec.free(), 2, 1.0, "reject"),
    (Grid.radial(8.0, 400), PotentialSpec.barrier(80.0, 3.0, 5.0), 2, 1.0,
     "reject"),
    (Grid.radial(10.0, 300), PotentialSpec.harmonic(1.0, center=5.0), 1, 1.0,
     "clamp"),
])
def test_grid_fixed_point_equals_an_eigenpair_solve_on_every_iterate(
        grid, spec, index, e_init, policy):
    # iterates solve for the eigenvalue alone; energies, iteration counts,
    # residuals, states and histories keep every bit
    guard = mnr.GuardPolicy(policy)

    def solve(method):
        try:
            return method()
        except (NonConvergenceError, SingularRegionError) as exc:
            return type(exc), [float(e).hex() for e in getattr(exc, "history", [])]

    want = solve(lambda: _vector_fixed_point(grid, spec, index, e_init, 60,
                                             guard))
    got = solve(lambda: mnr.solve_stationary_fixed_point(
        grid, spec, index, e_init, max_iter=60, units=U, guard=guard))
    if isinstance(got, mnr.ModifiedEigenResult):
        assert (got.energy, got.iterations, got.self_consistency_residual) \
            == want[:3]
        np.testing.assert_array_equal(got.state.values, want[3].values)
    else:
        assert got == want


# Each solve returns its results and the eager states: the shot at each
# root, sampled from the region coefficients the solver computed for it.

def _nr_shooting():
    g, spec = Grid.line(-6.0, 6.0, 400), PotentialSpec.square_well(10.0, 1.0)
    results = mnr.solve_stationary_shooting(g, spec, (-9.5, -0.01), U)
    edges, values = mnr.piecewise_regions(spec, g.x_min, g.x_max)
    rows = mnr._nonlinear_coefficient([r.energy for r in results], values, U)
    return results, lambda: [shooting.shot_state(g, edges, r) for r in rows]


def _rel_shooting():
    units = UnitSystem(c=5.0)
    g, spec = Grid.line(0.0, 2.0, 300), PotentialSpec.step(3.0, 1.2)
    results = mrel.solve_rel_stationary(g, spec, (26.0, 60.0), units,
                                        n_scan=4000)
    edges, values = mnr.piecewise_regions(spec, g.x_min, g.x_max)
    rows = mrel.rel_coefficient([r.energy for r in results], values, units)
    return results, lambda: [shooting.shot_state(g, edges, r) for r in rows]


def _exact_fixed_point():
    grid, spec = Grid.line(-3.0, 3.0, 200), PotentialSpec.square_well(4.0, 1.0)
    res = mnr.solve_stationary_fixed_point(grid, spec, 6, -3.5851220539340374,
                                           tol=1e-9, units=U, backend="exact")
    edges, values = mnr.piecewise_regions(spec, grid.x_min, grid.x_max)
    row = mnr._nonlinear_coefficient(res.energy, values, U)[0]
    return [res], lambda: [shooting.shot_state(grid, edges, row)]


@pytest.mark.parametrize("solve", [_nr_shooting, _rel_shooting,
                                   _exact_fixed_point])
def test_states_are_sampled_on_first_read(monkeypatch, solve):
    calls = []
    sample = shooting.sample_shot

    def counted(*args):
        calls.append(1)
        return sample(*args)

    monkeypatch.setattr(shooting, "sample_shot", counted)
    results, eager = solve()
    assert results and all(np.isfinite(r.energy + r.self_consistency_residual
                                       + r.node_count) for r in results)
    assert calls == []
    states = eager()
    calls.clear()
    for r, state in zip(results, states):
        np.testing.assert_array_equal(r.state.values, state.values)
        assert r.state is r.state  # built once
    assert len(calls) == len(results)


WALLED_WELL = (Grid.line(-3.0, 3.0, 200), PotentialSpec.square_well(4.0, 1.0))


def _inline_w_exact_fixed_point(grid, spec, index, e, tol, max_iter=200,
                                damping=0.5):
    """The exact-backend iteration with W written inline, unguarded:
    3V - V^2/(E - V) on the region values (singular checks left out)."""
    edges, v = mnr.piecewise_regions(spec, grid.x_min, grid.x_max)
    for it in range(1, max_iter + 1):
        w = 3.0 * v - v**2 / (e - v)
        mu = shooting.linear_bound_state_energy(edges, w, index, U)
        if abs(mu - e) <= tol:
            return e, it
        if np.array_equal(3.0 * v - v**2 / (mu - v), w):
            return mu, it
        e = (1.0 - damping) * e + damping * mu
    return None, max_iter


@pytest.mark.parametrize("index, e_init", [(6, -3.5851220539340374),
                                           (5, -3.3509013816879336),
                                           (4, -2.7368610761328287)])
def test_exact_fixed_point_reject_energies_equal_inline_w(index, e_init):
    grid, spec = WALLED_WELL
    res = mnr.solve_stationary_fixed_point(grid, spec, index, e_init, tol=1e-9,
                                           units=U, backend="exact")
    assert (res.energy, res.iterations) == _inline_w_exact_fixed_point(
        grid, spec, index, e_init, 1e-9)


@pytest.mark.parametrize("backend", ["grid", "exact"])
@pytest.mark.parametrize("index", [1.5, 2.0, True, -1])
def test_fixed_point_rejects_a_bad_state_index(backend, index):
    grid, spec = WALLED_WELL
    with pytest.raises(ConfigurationError, match="state_index"):
        mnr.solve_stationary_fixed_point(grid, spec, index, -3.5, units=U,
                                         backend=backend)


@pytest.mark.parametrize("depth", [4.0, 12.0])
def test_exact_confirmation_at_a_shooting_root_takes_two_walks(monkeypatch,
                                                               depth):
    # seeded at a shooting root E, the linear solve walks the pair
    # E -+ reach; the counts there certify |mu - E| < tol, and the fixed
    # point converges at the root in one iterate without resolving mu. The
    # residual, formed when first read by the solve's closer, is the
    # |mu - E| a fresh told solve's closer gives, and is formed once
    grid, spec = Grid.line(-8.0, 8.0, 400), PotentialSpec.square_well(depth, 1.0)
    roots = mnr.solve_stationary_shooting(
        grid, spec, (-depth * (1.0 - 1e-4), -depth * 1e-4), U)
    edges, v = mnr.region_table(spec, grid.x_min, grid.x_max)
    wronskian, walks = shooting._wronskian, []

    def walked(*args, **kwargs):
        walks.append(args[2])
        return wronskian(*args, **kwargs)

    monkeypatch.setattr(shooting, "_wronskian", walked)
    confirmed = []
    for r in roots:
        walks.clear()
        try:
            fp = mnr.solve_stationary_fixed_point(
                grid, spec, r.node_count, r.energy, tol=1e-8, max_iter=4,
                units=U, backend="exact")
        except NonConvergenceError:
            continue
        assert (fp.energy, fp.iterations, len(walks)) == (r.energy, 1, 2)
        residual = fp.self_consistency_residual
        walks.clear()
        assert fp.self_consistency_residual == residual and walks == []
        w = mnr._effective_levels(v, r.energy, mnr.GuardPolicy())
        closer = shooting.PreparedProblem(edges, U).solve(w, r.node_count,
                                                          r.energy, 1e-8)
        assert callable(closer)
        assert residual == abs(closer() - r.energy) <= 1e-8
        confirmed.append(r.node_count)
    assert len(confirmed) == len(roots) - 1  # one root misses in 4 iterates


def test_exact_confirmation_past_half_the_reach_takes_two_walks(monkeypatch):
    # state 244 of this deep well: its level lies 0.69 reach below its
    # shooting root E, past half the reach. The counts at the pair
    # E -+ reach still certify |mu - E| < tol in two walks
    grid, spec = Grid.line(-8.0, 8.0, 400), PotentialSpec.square_well(
        47.53145, 0.5 * 2.397184)
    root = next(r for r in mnr.solve_stationary_shooting(
        grid, spec, (-47.53145 * (1.0 - 1e-4), -47.53145 * 1e-4), U)
        if r.node_count == 244)
    wronskian, walks = shooting._wronskian, []
    monkeypatch.setattr(shooting, "_wronskian",
                        lambda *args: walks.append(args[2]) or wronskian(*args))
    fp = mnr.solve_stationary_fixed_point(grid, spec, 244, root.energy,
                                          tol=1e-8, max_iter=4, units=U,
                                          backend="exact")
    assert (fp.energy, fp.iterations, len(walks)) == (root.energy, 1, 2)
    assert fp.self_consistency_residual <= 1e-8


#: (depth, width) of the eight square wells of the benchmark's seed-601
#: cross-check, rounded to 6 digits; walls at +-8, 400 points
SEED_601_WELLS = [(44.950435, 2.938261), (21.449707, 1.619743),
                  (4.812742, 2.990671), (41.115078, 0.866897),
                  (19.181842, 2.050806), (36.261387, 2.125635),
                  (36.335012, 1.612781), (11.111914, 0.50173)]


def test_exact_confirmations_of_eight_wells_are_pinned_bit_for_bit():
    # every shooting root of the eight wells confirmed by the exact-backend
    # fixed point: well, node count, outcome, iterations and the energy (a
    # miss: its last iterate) in hex, and a confirmation's residual in hex,
    # hashed. The digest was recorded while a seeded solve, not the
    # certificate's closer, formed the residual; a change to any float of
    # a confirmation changes it
    grid, rows = Grid.line(-8.0, 8.0, 400), []
    for well, (depth, width) in enumerate(SEED_601_WELLS):
        spec = PotentialSpec.square_well(depth, 0.5 * width)
        for root in mnr.solve_stationary_shooting(
                grid, spec, (-depth + 1e-4 * depth, -1e-4 * depth), U):
            try:
                fp = mnr.solve_stationary_fixed_point(
                    grid, spec, root.node_count, root.energy, tol=1e-8,
                    max_iter=4, units=U, backend="exact")
                outcome = ("confirmed", fp.iterations, fp.energy.hex(),
                           fp.self_consistency_residual.hex())
            except NonConvergenceError as exc:
                outcome = ("miss", len(exc.history) - 1, exc.history[-1].hex())
            except WavekitError as exc:
                outcome = (type(exc).__name__, None, str(exc))
            rows.append((well, root.node_count, *outcome))
    outcomes = [row[2] for row in rows]
    assert (len(rows), outcomes.count("miss"), outcomes.count("NoRootError")) == (
        616, 14, 1)
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == ("82be46d77c8af5550ce77d4dea209710"
                      "a877553903d766fbc5ecf938449ed408"), digest


def test_exact_fixed_point_applies_the_clamp_policy(monkeypatch):
    # E = -4 is the well bottom: E - V = 0 there. Under clamp the
    # denominator is floored at the guard, as on the grid backend, and the
    # run ends in a typed outcome, not a non-finite region potential
    grid, spec = WALLED_WELL
    seen = []
    solve = shooting.PreparedProblem.solve

    def spy(problem, w, index, *guess):
        seen.append(np.array(w))
        return solve(problem, w, index, *guess)

    monkeypatch.setattr(shooting.PreparedProblem, "solve", spy)
    with pytest.raises(NonConvergenceError):
        mnr.solve_stationary_fixed_point(
            grid, spec, 0, -4.0, units=U, backend="exact",
            guard=mnr.GuardPolicy("clamp", 1e-6))
    np.testing.assert_array_equal(seen[0], [0.0, -12.0 - 16.0 / 1e-6, 0.0])
    assert all(np.all(np.isfinite(w)) for w in seen)


def _numpy_calls(run):
    """What ``run()`` returned or raised, and the NumPy functions it called
    as a profile hook sees them: Python functions of the numpy package and
    its builtins and builtin methods (a ufunc call raises no event)."""
    calls = []

    def hook(frame, event, arg):
        if event == "call":
            module = frame.f_globals.get("__name__", "")
        elif event == "c_call":
            module = (getattr(arg, "__module__", None)
                      or type(getattr(arg, "__self__", None)).__module__)
        else:
            return
        if module.split(".")[0] == "numpy":
            calls.append(f"{module}.{getattr(arg, '__name__', frame.f_code.co_name)}")

    sys.setprofile(hook)
    try:
        outcome = run()
    except NonConvergenceError as exc:
        outcome = exc
    finally:
        sys.setprofile(None)
    return outcome, calls


@pytest.mark.parametrize("grid, spec, index, e_init, tol, policy", [
    (*WALLED_WELL, 6, -3.5851220539340374, 1e-9, "reject"),  # converges
    (*WALLED_WELL, 0, -4.0, 1e-10, "clamp"),    # on the well bottom, misses
    (*SQUARE_WELL_12, 1, -6.0, 1e-10, "reject"),             # misses
    (Grid.line(-3.0, 4.0, 200), PotentialSpec.barrier(6.0, -1.0, 0.5), 3,
     3.3744233953230385, 1e-8, "reject"),
    (Grid.line(-3.0, 4.0, 200), PotentialSpec.piecewise_constant(
        [-1.0, 0.5, 1.5], [0.0, -6.0, -2.5, 0.0]), 38, -5.988600405981291,
     1e-8, "clamp"),
])
def test_exact_fixed_point_makes_no_numpy_call_before_the_state_is_read(
        grid, spec, index, e_init, tol, policy):
    res, calls = _numpy_calls(lambda: mnr.solve_stationary_fixed_point(
        grid, spec, index, e_init, tol, units=U, backend="exact",
        guard=mnr.GuardPolicy(policy)))
    assert calls == []
    if isinstance(res, mnr.ModifiedEigenResult):  # the hook sees the state's
        state, calls = _numpy_calls(lambda: res.state)
        assert calls and state.grid == grid


def _confirmation(grid, spec, root, **solver):
    """What an exact-backend fixed point seeded at a shooting ``root``
    gives, in floats compared bit for bit: energy, iterations and residual,
    or the error and its history or message."""
    try:
        res = mnr.solve_stationary_fixed_point(
            grid, spec, root.node_count, root.energy, units=U, backend="exact",
            **solver)
    except NonConvergenceError as exc:
        return "miss", [repr(e) for e in exc.history]
    except WavekitError as exc:
        return type(exc).__name__, str(exc)
    return repr(res.energy), res.iterations, repr(res.self_consistency_residual)


@pytest.mark.parametrize("seed", [601, 602, 603, 611, 901])
def test_exact_fixed_points_equal_with_a_warm_and_a_cleared_cache(seed,
                                                                  tmp_path):
    # the first xval_wells pass of the benchmark seed: its wells, roots and
    # order; each confirmation on the per-potential preparation cached by
    # the pass equals the one prepared afresh after cache_clear()
    from perfbench.workloads import XvalWells
    bench = XvalWells(seed, tmp_path)
    ops = []
    for depth, width in bench.draw_wells():
        spec = PotentialSpec.square_well(depth, 0.5 * width)
        bracket = (-depth + bench.margin * depth, -bench.margin * depth)
        ops += [(spec, root) for root in mnr.solve_stationary_shooting(
            bench.grid, spec, bracket, U, n_scan=10000)]
    order = bench.rng.permutation(len(ops))
    mnr._exact_problem.cache_clear()
    warm = [_confirmation(bench.grid, *ops[i], tol=1e-8, max_iter=4)
            for i in order]
    assert mnr._exact_problem.cache_info().misses == 8  # one per well
    cold = []
    for i in order:
        mnr._exact_problem.cache_clear()
        cold.append(_confirmation(bench.grid, *ops[i], tol=1e-8, max_iter=4))
    assert warm == cold
    assert sum(outcome[0] == "miss" for outcome in warm) > 0


def test_exact_fixed_point_reads_the_region_table_once_per_potential(
        monkeypatch):
    grid, spec = Grid.line(-3.0, 3.0, 200), PotentialSpec.square_well(4.0, 1.0)
    reads, table = [], mnr.region_table
    monkeypatch.setattr(mnr, "region_table",
                        lambda *args: reads.append(args) or table(*args))
    roots = mnr.solve_stationary_shooting(grid, spec, (-3.99, -0.01), U)
    outcomes = [_confirmation(grid, spec, root, tol=1e-8, max_iter=4)
                for root in roots]
    assert len(roots) == 33 and len(reads) == 1
    assert [outcome[0] for outcome in outcomes] == [
        repr(root.energy) for root in roots]


def test_exact_e_equals_v_locations_are_those_of_the_solved_grid():
    # E = -4 is the well bottom: E = V at every scan point in |x| <= 1, so
    # the locations depend on n_points, not on the bounds alone
    spec = PotentialSpec.square_well(4.0, 1.0)
    found = []
    for grid in (Grid.line(-3.0, 3.0, 200), Grid.line(-3.0, 3.0, 201)):
        with pytest.raises(SingularRegionError) as exc:
            mnr.solve_stationary_fixed_point(grid, spec, 0, -4.0, units=U,
                                             backend="exact")
        want = find_singular_set(spec, -4.0, E_EQUALS_V, grid).locations
        assert exc.value.singular_set.locations == want
        found.append(want)
    assert found[0] != found[1]


def test_a_list_given_to_a_spec_cannot_change_a_later_solve():
    grid = Grid.line(-3.0, 3.0, 200)
    breakpoints, values = [-1.0, 1.0], [0.0, -4.0, 0.0]
    spec = PotentialSpec("piecewise_constant", breakpoints=breakpoints,
                         values=values)

    def solve():
        res = mnr.solve_stationary_fixed_point(
            grid, spec, 6, -3.5851220539340374, tol=1e-9, units=U,
            backend="exact")
        return res.energy, res.iterations

    first = solve()
    breakpoints[0], values[1] = -2.0, -8.0
    assert (spec.breakpoints, spec.values) == ((-1.0, 1.0), (0.0, -4.0, 0.0))
    again = solve()
    mnr._exact_problem.cache_clear()
    # the same regions as the depth-4 square well, solved from scratch
    assert first == again == solve() == _inline_w_exact_fixed_point(
        grid, PotentialSpec.square_well(4.0, 1.0), 6, -3.5851220539340374,
        1e-9)


def test_free_scaling_covariance():
    # x -> alpha x with E -> E/alpha^2 leaves E_n/E_1 unchanged
    def ratios(alpha):
        g = Grid.line(0.0, alpha * np.pi, 400)
        res = mnr.solve_stationary_shooting(
            g, PotentialSpec.free(), (0.05 / alpha**2, 11.0 / alpha**2), U)
        e = np.array([r.energy for r in res])
        return e / e[0]

    np.testing.assert_allclose(ratios(1.0), ratios(2.0), atol=1e-9)


# -- perturbation audit -----------------------------------------------------

def test_additional_term_report_free_is_zero():
    g = Grid.line(0.0, np.pi, 300)
    ref = solve_schrodinger_stationary(g, PotentialSpec.free(), 1, U)
    psi = WaveField(ref.states[0].values.astype(complex), g)
    rep = mnr.additional_term_report(psi, ref.energies[0], PotentialSpec.free())
    assert rep["minus_2V_part"] == 0.0
    assert rep["pv_part"] == 0.0
    assert rep["pv_flag"] is False


def test_additional_term_report_requires_normalization():
    from wavekit.errors import UsageError
    g = Grid.line(0.0, np.pi, 300)
    psi = WaveField(np.sin(g.x) * 5.0, g)
    with pytest.raises(UsageError):
        mnr.additional_term_report(psi, 0.5, PotentialSpec.free())


def test_additional_term_report_harmonic_no_pole_below_ground():
    # E_ref below min(V) keeps E - V single-signed: plain quadrature branch
    g = Grid.line(-8.0, 8.0, 1200)
    spec = PotentialSpec.harmonic(1.0)
    ref = solve_schrodinger_stationary(g, spec, 1, U)
    psi = WaveField(ref.states[0].values.astype(complex), g)
    rep = mnr.additional_term_report(psi, -1.0, spec)
    assert rep["pv_flag"] is False
    # <x^2> = 1/2 in the ground state: -2<V> = -1/2... sign: V >= 0 here
    assert rep["minus_2V_part"] == pytest.approx(-0.5, rel=1e-3)


def test_additional_term_report_hydrogen_virial():
    g = Grid.radial(30.0, 200000)
    psi = hydrogen_ground_state(g)
    rep = mnr.additional_term_report(psi, -0.5, PotentialSpec.coulomb(1.0))
    assert rep["minus_2V_part"] == pytest.approx(2.0, abs=1e-6)
    assert rep["pv_flag"] is True
    assert rep["pole_locations"][0] == pytest.approx(2.0, abs=1e-9)
    assert rep["shift_to_E_ratio"] == pytest.approx(
        abs(rep["first_order_shift"] / -0.5))


def test_additional_term_pv_of_hydrogen_is_the_closed_form():
    # rho = 4 r^2 e^{-2r}, V = -1/r, E = -1/2: the principal value of
    # rho V^2/(E - V) over (0, inf) is 16 e^{-4} Ei(4) - 4; the tail past
    # r = 30 is below 1e-20
    g = Grid.radial(30.0, 200000)
    psi = hydrogen_ground_state(g)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = mnr.additional_term_report(psi, -0.5, PotentialSpec.coulomb(1.0))
    want = 16.0 * math.exp(-4.0) * scipy.special.expi(4.0) - 4.0
    assert rep["pv_part"] == pytest.approx(want, rel=1e-7)


def _harmonic_pv_by_subtraction(E, L=8.0):
    """PV of rho V^2/(E - V) on [-L, L] for the analytic harmonic ground
    state (omega = m = hbar = 1), by singularity subtraction: with x* the
    pole and h = rho V^2 * 2/(x* + x), the integrand is h(x)/(x* - x) on
    [0, L], so the PV is 2[int_0^L (h(x) - h(x*))/(x* - x) dx
    + h(x*) ln(x*/(L - x*))]."""
    xs = math.sqrt(2.0 * E)

    def h(x):
        return math.exp(-x * x) / math.sqrt(math.pi) * (0.5 * x * x) ** 2 * 2.0 / (xs + x)

    # x* is a break point, where QAGP takes no sample
    smooth, _ = scipy.integrate.quad(lambda x: (h(x) - h(xs)) / (xs - x), 0.0, L,
                                     points=[xs], limit=400, epsabs=1e-14,
                                     epsrel=1e-13)
    return 2.0 * (smooth + h(xs) * math.log(xs / (L - xs)))


@pytest.mark.parametrize("E", [0.5, 1.0, 3.0])
def test_additional_term_pv_of_the_harmonic_ground_state_matches_subtraction(E):
    # two interior poles at x = ±sqrt(2E), one Cauchy-weight piece each
    g = Grid.line(-8.0, 8.0, 1201)
    psi = WaveField((math.pi ** -0.25 * np.exp(-0.5 * g.x**2)).astype(complex),
                    g).normalized()
    rep = mnr.additional_term_report(psi, E, PotentialSpec.harmonic(1.0))
    assert rep["pv_flag"] is True and len(rep["pole_locations"]) == 2
    assert rep["pv_part"] == pytest.approx(_harmonic_pv_by_subtraction(E), rel=1e-7)


def test_additional_term_poles_on_both_domain_ends_are_plain_endpoints():
    # E = V at x = ±1, the domain ends, where QAWC refuses a pole: the
    # density vanishes there and the integrand is finite
    g = Grid.line(-1.0, 1.0, 401)
    psi = WaveField(np.cos(0.5 * np.pi * g.x).astype(complex), g).normalized()
    rep = mnr.additional_term_report(psi, 0.5, PotentialSpec.harmonic(1.0))
    assert rep["pole_locations"] == (-1.0, 1.0) and rep["pv_flag"] is True
    assert rep["pv_part"] == pytest.approx(0.0440678644, rel=1e-7)


@pytest.mark.parametrize("E", [-1.0, 0.5])  # a plain piece, two Cauchy pieces
def test_additional_term_quadrature_failure_raises(monkeypatch, E):
    # QUADPACK's fourth return element, with full_output, is its message
    # on failure; the audit raises instead of returning the value
    def failing(*args, **kwargs):
        return 0.25, 1.0, {}, "The maximum number of subdivisions has been achieved."

    g = Grid.line(-8.0, 8.0, 400)
    psi = WaveField((math.pi ** -0.25 * np.exp(-0.5 * g.x**2)).astype(complex),
                    g).normalized()
    monkeypatch.setattr(scipy.integrate, "quad", failing)
    with pytest.raises(NonConvergenceError, match="subdivisions") as err:
        mnr.additional_term_report(psi, E, PotentialSpec.harmonic(1.0))
    assert err.value.history == [0.25]


# -- time-dependent form ----------------------------------------------------

def test_speed_squared_uniform_free():
    g = Grid.line(0.0, np.pi, 128)
    E, eps = 3.0, 1.3
    s = mnr.timedep_speed_squared(PotentialSpec.free(), E, eps, g, U)
    np.testing.assert_allclose(s, eps**2 / (2.0 * U.m * E))


def test_speed_squared_singular_at_e_equals_2v():
    g = Grid.line(-2.0, 2.0, 128)
    from wavekit.errors import SingularCoefficientError
    with pytest.raises(SingularCoefficientError):
        mnr.timedep_speed_squared(
            PotentialSpec.piecewise_constant([], [1.0]), 2.0, 1.0, g, U)


def test_speed_squared_non_hyperbolic_detected():
    g = Grid.line(-2.0, 2.0, 128)
    with pytest.raises(NonHyperbolicRegimeError):
        mnr.timedep_speed_squared(PotentialSpec.free(), -1.0, 1.0, g, U)


def test_propagation_standing_wave():
    g = Grid.line(0.0, np.pi, 400)
    ref = solve_schrodinger_stationary(g, PotentialSpec.free(), 1, U)
    E, eps = 3.0, 1.3
    s = mnr.timedep_speed_squared(PotentialSpec.free(), E, eps, g, U)
    omega = float(np.sqrt(s.max()))  # mode k = 1
    psi0 = WaveField(ref.states[0].values.astype(complex), g)
    dpsi0 = WaveField(-1j * omega * psi0.values, g)
    state = mnr.TimeDepState(psi0, dpsi0, 0.0, E, eps)
    traj = mnr.propagate_timedep(state, PotentialSpec.free(), 1e-3, 500, U)
    exact = psi0.values * np.exp(-1j * omega * traj[-1].t)
    assert np.max(np.abs(traj[-1].psi.values - exact)) < 1e-6


def _closed_form_bound(s, h):
    """The leapfrog step bound of psi_tt = s psi_xx in closed form, 0.9
    times 2/omega with omega**2 = max s * 4/h**2."""
    return 0.9 * h / float(np.sqrt(np.max(s)))


def _laplacian(grid):
    return {k: row.astype(complex)
            for k, row in build_laplacian(grid).diagonals.items()}


def test_propagation_rejects_unstable_step():
    g = Grid.line(0.0, np.pi, 400)
    psi0 = WaveField(np.sin(g.x).astype(complex), g)
    state = mnr.TimeDepState(psi0, WaveField(np.zeros(400, complex), g),
                             0.0, 3.0, 1.3)
    s = mnr.timedep_speed_squared(PotentialSpec.free(), 3.0, 1.3, g, U)
    limit = _closed_form_bound(s, g.h)
    with pytest.raises(ConfigurationError):
        mnr.propagate_timedep(state, PotentialSpec.free(), 2.0 * limit, 10, U)


def test_step_bound_is_the_closed_form_of_the_wave_equation():
    # the Gershgorin bound of the pair (s, Laplacian) is max s * 4/h**2,
    # to within rounding, on either boundary; the stepper accepts a step
    # just inside the closed form and refuses one just past it
    rng = np.random.default_rng(22)
    for trial in range(150):
        n = int(rng.integers(8, 300))
        x_min = float(rng.uniform(-5.0, 0.0))
        g = Grid.line(x_min, x_min + float(rng.uniform(0.5, 20.0)), n,
                      ("dirichlet", "periodic")[trial % 2])
        cuts = np.sort(rng.uniform(g.x_min, g.x_max, 2))
        V = PotentialSpec.piecewise_constant(cuts, rng.uniform(-2.0, 0.4, 3))
        E, eps = float(rng.uniform(1.0, 3.0)), float(rng.uniform(0.1, 5.0))
        s = mnr.timedep_speed_squared(V, E, eps, g, U)
        want = _closed_form_bound(s, g.h)
        assert abs(mnr.step_bound(s, _laplacian(g)) - want) \
            <= 4 * np.spacing(want), trial
        zero = WaveField(np.zeros(n), g)
        state = mnr.TimeDepState(zero, zero, 0.0, E, eps)
        assert mnr.propagate_timedep(state, V, want * (1 - 1e-14), 0, U)
        with pytest.raises(ConfigurationError, match="stability bound"):
            mnr.propagate_timedep(state, V, want * (1 + 1e-14), 0, U)


def _plane_wave_state(n):
    g = Grid.line(0.0, 2.0 * np.pi, n, boundary="periodic")
    psi0 = WaveField(np.exp(1j * g.x), g)
    return mnr.TimeDepState(psi0, WaveField(-0.5j * psi0.values, g),
                            0.0, 0.5, 0.5)


def _same_state(a, b):
    return (a.t == b.t and np.array_equal(a.psi.values, b.psi.values)
            and np.array_equal(a.dpsi_dt.values, b.dpsi_dt.values))


@pytest.mark.parametrize("steps, stride", [(60, 1), (60, 20), (61, 20),
                                           (7, 3), (1, 5), (5, 9)])
def test_strided_propagation_keeps_every_stride_th_and_final_state(steps,
                                                                   stride):
    state = _plane_wave_state(96)
    full = mnr.propagate_timedep(state, PotentialSpec.free(), 1e-2, steps, U)
    kept = mnr.propagate_timedep(state, PotentialSpec.free(), 1e-2, steps, U,
                                 stride)
    want = full[::stride]
    if steps % stride:
        want.append(full[-1])
    assert len(kept) == len(want)
    assert all(_same_state(a, b) for a, b in zip(kept, want))


def test_kept_frame_velocity_is_the_plane_wave_time_derivative():
    # psi_tt = s psi_xx with s = 1/4 moves e^{i(x - omega t)}, omega = 1/2:
    # the velocity of a kept frame at step k is -i omega e^{i(x - omega t)}
    # to O(h^2 + dt^2); step k - 1's would be off by omega dt = 0.005
    state = _plane_wave_state(256)
    x, omega = state.psi.grid.x, 0.5
    kept = mnr.propagate_timedep(state, PotentialSpec.free(), 1e-2, 100, U, 50)
    assert [s.t for s in kept] == pytest.approx([0.0, 0.5, 1.0])
    for s in kept[1:]:
        want = -1j * omega * np.exp(1j * (x - omega * s.t))
        np.testing.assert_allclose(s.dpsi_dt.values, want, rtol=0, atol=1e-4)


@pytest.mark.parametrize("stride", [0, -2, 2.0, True])
def test_strided_propagation_rejects_bad_stride(stride):
    with pytest.raises(ConfigurationError):
        mnr.propagate_timedep(_plane_wave_state(32), PotentialSpec.free(),
                              1e-2, 10, U, stride)


def test_zero_steps_keep_only_the_initial_state():
    state = _plane_wave_state(32)
    for stride in (1, 4):
        kept = mnr.propagate_timedep(state, PotentialSpec.free(), 1e-2, 0, U,
                                     stride)
        assert len(kept) == 1 and kept[0] is state


@pytest.mark.parametrize("steps", [-1, -3, 2.0, True])
def test_propagation_rejects_bad_steps(steps):
    with pytest.raises(ConfigurationError, match="steps must be an integer"):
        mnr.propagate_timedep(_plane_wave_state(32), PotentialSpec.free(),
                              1e-2, steps, U)


@pytest.mark.parametrize("amplitude", [1.0, 1e-3])
def test_leapfrog_growth_guard_stops_at_first_step_past_the_bound(amplitude):
    # psi_tt = +4 psi grows without bound: the unguarded run completes, and
    # the guarded one stops at the first step whose norm passes 10x norm0
    # (step 1 itself when the field starts far below its velocity)
    g = Grid.line(0.0, 1.0, 16)
    state = mnr.TimeDepState(WaveField(np.full(16, amplitude), g),
                             WaveField(np.ones(16), g), 0.0, 0.0, 0.0)

    inv_m, a = np.ones(16), {0: np.full(16, 4.0 + 0j)}
    free = mnr.leapfrog(state, inv_m, a, 0.01, 200)
    assert len(free) == 201
    norm0 = np.linalg.norm(state.psi.values)
    first = next(k for k, s in enumerate(free)
                 if np.linalg.norm(s.psi.values) > 10 * norm0)
    assert (first == 1) == (amplitude < 1.0)
    with pytest.raises(StabilityError, match=f"beyond 10x at step {first};"):
        mnr.leapfrog(state, inv_m, a, 0.01, 200, max_growth=10)


def test_strided_propagation_holds_only_kept_states():
    # 4000 steps on 2000 points keep ~256 MB of states at stride 1
    state = _plane_wave_state(2000)
    tracemalloc.start()
    try:
        traj = mnr.propagate_timedep(state, PotentialSpec.free(), 1e-4, 4000,
                                     U, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj) == 5 and traj[-1].t == pytest.approx(0.4)
    assert peak < 16e6


def test_leapfrog_conserves_its_discrete_energy():
    # leapfrog on M psi_tt = A psi, with M = 1/s and A = L symmetric on the
    # unknowns, conserves E^(n+1/2) = (d psi)^H M (d psi)/dt**2
    # - Re psi^(n+1)^H A psi^n, d psi = psi^(n+1) - psi^n, to rounding
    g = Grid.line(0.0, np.pi, 400)
    ref = solve_schrodinger_stationary(g, PotentialSpec.free(), 1, U)
    s = mnr.timedep_speed_squared(PotentialSpec.free(), 3.0, 1.3, g, U)
    omega = float(np.sqrt(s.max()))
    psi0 = WaveField(ref.states[0].values.astype(complex), g)
    dpsi0 = WaveField(-1j * omega * psi0.values, g)
    state = mnr.TimeDepState(psi0, dpsi0, 0.0, 3.0, 1.3)
    dt = 1e-3
    traj = mnr.propagate_timedep(state, PotentialSpec.free(), dt, 4000, U)
    lap = _laplacian(g)
    energies = []
    for prev, cur in zip(traj, traj[1:]):
        d = cur.psi.values - prev.psi.values
        energies.append(np.vdot(d, d / s).real / dt**2
                        - np.vdot(cur.psi.values,
                                  matvec(lap, prev.psi.values)).real)
    drift = np.abs(np.array(energies) / energies[0] - 1.0)
    assert len(energies) == 4000 and np.max(drift) <= 1e-12


def test_separated_solution_and_constant():
    g = Grid.line(0.0, np.pi, 64)
    psi = WaveField(np.sin(g.x).astype(complex), g)
    eps = 1.7
    out = mnr.separated_solution(psi, eps, 0.0, 1.0, t=0.3, units=U)
    np.testing.assert_allclose(out.values,
                               psi.values * np.exp(-1j * eps * 0.3))
    assert mnr.separation_constant(eps, U) == pytest.approx(-(eps) ** 2)
