import numpy as np
import pytest

from wavekit import spin_half as sh
from wavekit.numgrid import Grid
from wavekit.potentials import PotentialSpec, evaluate
from wavekit.reference import dirac_free_energies
from wavekit.units import UnitSystem

U = UnitSystem(c=10.0)


def test_clifford_identities_2x2():
    rep = sh.clifford_check(sh.CliffordSet.reduction_2x2())
    assert rep["max_violation"] == 0.0


def test_clifford_identities_4x4():
    rep = sh.clifford_check(sh.CliffordSet.full_4x4())
    assert rep["max_violation"] == 0.0


def test_pauli_algebra():
    assert np.array_equal(sh.SIGMA_X @ sh.SIGMA_X, np.eye(2))
    np.testing.assert_array_equal(sh.SIGMA_X @ sh.SIGMA_Y
                                  - sh.SIGMA_Y @ sh.SIGMA_X,
                                  2j * sh.SIGMA_Z)


def test_free_dirac_matrix_hermitian():
    g = Grid.line(0.0, 5.0, 64, boundary="periodic")
    for r in (0.0, 1.0):
        m = sh.free_dirac_matrix(g, U, wilson_r=r)
        assert np.max(np.abs(m - m.conj().T)) < 1e-12


@pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
@pytest.mark.parametrize("massless", [False, True])
def test_real_operator_is_the_conjugated_dirac_matrix(boundary, massless):
    g = Grid.line(0.0, 5.0, 48, boundary=boundary)
    n = g.n_points
    h = sh.free_dirac_matrix(g, U, wilson_r=0.0 if massless else 1.0)
    if massless:
        h[:n, :n] = h[n:, n:] = 0.0
    u = np.diag(np.concatenate([np.ones(n), 1j * np.ones(n)]))
    conj = u.conj().T @ h @ u
    op = sh.real_dirac_operator(g, U, 1.0, massless).toarray()
    assert op.dtype == np.float64
    assert np.max(np.abs(conj.imag)) == 0.0
    assert np.array_equal(conj.real, op)
    assert np.max(np.abs(op - op.T)) == 0.0


def _complex_reference(g, V, n_states, massless):
    """Smallest-|E| energies from a full complex Hermitian eigensolve."""
    n = g.n_points
    h = sh.free_dirac_matrix(g, U, wilson_r=0.0 if massless else 1.0)
    if massless:
        h[:n, :n] = h[n:, n:] = 0.0
    v = evaluate(V, g.x)
    root_w = np.sqrt(np.concatenate([1.0 + v / U.E0, 1.0 + v / U.E0]))
    vals = np.linalg.eigvalsh(h / np.outer(root_w, root_w))
    return np.sort(np.abs(vals))[:n_states]


@pytest.mark.parametrize("massless", [False, True])
@pytest.mark.parametrize("boundary, V, n_states", [
    # free periodic: |E| multiplets of four (+-E, +-k); 4 and 7 cut one
    ("periodic", PotentialSpec.free(), 4),
    ("periodic", PotentialSpec.free(), 7),
    ("periodic", PotentialSpec.harmonic(0.5, center=2.5), 9),
    ("dirichlet", PotentialSpec.square_well(30.0, 1.0, center=2.5), 11),
    ("dirichlet", PotentialSpec.piecewise_constant([1.0, 3.0],
                                                   [0.0, 40.0, -20.0]), 6),
])
def test_energies_match_complex_hermitian_reference(massless, boundary, V,
                                                    n_states):
    g = Grid.line(0.0, 5.0, 80, boundary=boundary)
    res = (sh.solve_massless(g, V, U, n_states=n_states) if massless else
           sh.solve_spin_half_stationary(g, V, U, n_states=n_states))
    want = _complex_reference(g, V, n_states, massless)
    assert len(res.energies) == len(res.states) == n_states
    np.testing.assert_allclose(np.sort(np.abs(res.energies)), want,
                               rtol=0, atol=1e-10)
    assert max(res.diagnostics["residuals"]) < 1e-8
    for s in res.states:
        # (up, down) = (v1, i v2) for a real eigenvector (v1, v2)
        assert np.all(s.up.imag == 0.0) and np.all(s.down.real == 0.0)
        assert s.norm() == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("boundary, n", [("dirichlet", 63), ("dirichlet", 65),
                                         ("periodic", 127), ("periodic", 64)])
def test_massless_zero_modes_at_the_window_edge(boundary, n):
    # zero modes come out with either sign, so the index window may have
    # to widen before its edges bound the smallest |E|
    g = Grid.line(0.0, 5.0, n, boundary=boundary)
    for n_states in (1, 2, 3):
        res = sh.solve_massless(g, PotentialSpec.free(), U, n_states=n_states)
        want = _complex_reference(g, PotentialSpec.free(), n_states, True)
        np.testing.assert_allclose(np.sort(np.abs(res.energies)), want,
                                   rtol=0, atol=1e-10)


def test_spinor_field_stacking_roundtrip():
    g = Grid.line(0.0, 1.0, 16, boundary="periodic")
    rng = np.random.default_rng(0)
    f = sh.SpinorField(rng.normal(size=16) + 1j * rng.normal(size=16),
                       rng.normal(size=16), g)
    back = sh.SpinorField.from_stacked(f.stacked(), g)
    np.testing.assert_array_equal(back.up, f.up)
    np.testing.assert_array_equal(back.down, f.down)


def test_free_dispersion_with_wilson_term():
    L = 400.0
    g = Grid.line(0.0, L, 512, boundary="periodic")
    res = sh.solve_spin_half_stationary(g, PotentialSpec.free(), U,
                                        n_states=10, wilson_r=1.0)
    for e in res.energies:
        modes = np.arange(0, 12)
        cand = np.array([dirac_free_energies(U.hbar * 2 * np.pi * m / L,
                                             U.E0, U.c) for m in modes]).ravel()
        assert np.min(np.abs(np.abs(e) - np.abs(cand))) < 1e-3 * np.abs(e)


@pytest.mark.parametrize("n", [8, 33, 512])
@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
def test_wilson_mass_block_is_the_three_point_laplacian(n, boundary):
    # M = E0 - (hbar c r h / 2) L with L the 3-point second difference,
    # walls one spacing outside the grid (or periodic wrap), bitwise
    g = Grid.line(-3.7, 5.1, n, boundary=boundary)
    inv = 1.0 / g.h**2
    lap = (np.diag(np.full(n, -2.0 * inv)) + np.diag(np.full(n - 1, inv), 1)
           + np.diag(np.full(n - 1, inv), -1))
    if boundary == "periodic":
        lap[0, -1] = lap[-1, 0] = inv
    mass = U.E0 * np.eye(n) - 0.5 * U.hbar * U.c * 0.7 * g.h * lap
    op = sh.real_dirac_operator(g, U, 0.7).toarray()
    np.testing.assert_array_equal(op[:n, :n], mass)
    np.testing.assert_array_equal(op[n:, n:], -mass)


def test_wilson_term_lifts_doublers():
    # without the Wilson term the spectrum keeps spurious low-|E| doubler
    # states at the zone edge; with r=1 they are pushed away
    L = 40.0
    g = Grid.line(0.0, L, 128, boundary="periodic")
    naive = sh.free_dirac_matrix(g, U, wilson_r=0.0)
    wils = sh.free_dirac_matrix(g, U, wilson_r=1.0)
    en = np.sort(np.abs(np.linalg.eigvalsh(naive)))
    ew = np.sort(np.abs(np.linalg.eigvalsh(wils)))
    near_rest = 1.05 * U.E0
    assert np.sum(en < near_rest) > np.sum(ew < near_rest)


def test_constant_potential_halves_eigenvalues():
    L = 400.0
    g = Grid.line(0.0, L, 256, boundary="periodic")
    free = sh.solve_spin_half_stationary(g, PotentialSpec.free(), U,
                                         n_states=8, wilson_r=1.0)
    shifted = sh.solve_spin_half_stationary(
        g, PotentialSpec.piecewise_constant([], [U.E0]), U,
        n_states=8, wilson_r=1.0)
    # degenerate +-k multiplets may resolve to different sign members
    # between the two runs; compare magnitudes
    np.testing.assert_allclose(np.sort(np.abs(shifted.energies)),
                               np.sort(0.5 * np.abs(free.energies)),
                               atol=1e-10)


def test_massless_dispersion_order_two():
    v0 = 0.2 * U.E0
    const = PotentialSpec.piecewise_constant([], [v0])
    L = 10.0
    errs = []
    for n in (64, 128):
        g = Grid.line(0.0, L, n, boundary="periodic")
        res = sh.solve_massless(g, const, U, n_states=6)
        exact = U.c * U.hbar * (2 * np.pi / L) / (1 + v0 / U.E0)
        errs.append(min(abs(abs(e) - exact)
                        for e in res.energies if abs(e) > 1e-8))
    assert np.log2(errs[0] / errs[1]) == pytest.approx(2.0, abs=0.2)


def test_massless_propagation_norm_preserved():
    g = Grid.line(0.0, 10.0, 256, boundary="periodic")
    k = 2 * np.pi * 3 / 10.0
    up = np.exp(1j * k * g.x)
    psi0 = sh.SpinorField(up, up, g)
    traj, norms = sh.propagate_massless(psi0, PotentialSpec.free(),
                                        0.05 * g.h / U.c, 1000, U)
    assert abs(norms[-1] / norms[0] - 1.0) < 1e-6
    assert len(traj) == 1001


def test_massless_plane_wave_advects():
    # chiral component travels at c/(1 + V/E0)
    v0 = U.E0  # slows light-speed transport by half
    const = PotentialSpec.piecewise_constant([], [v0])
    L = 10.0
    g = Grid.line(0.0, L, 512, boundary="periodic")
    k = 2 * np.pi * 2 / L
    # sigma_x eigenvector (1,1): rightward chirality
    up = np.exp(1j * k * g.x)
    psi0 = sh.SpinorField(up, up, g)
    dt = 0.02 * g.h / U.c
    steps = 500
    traj, _ = sh.propagate_massless(psi0, const, dt, steps, U)
    vel = U.c / (1 + v0 / U.E0)
    expected = np.exp(1j * k * (g.x - vel * steps * dt))
    got = traj[-1].up / np.abs(traj[-1].up)
    assert np.max(np.abs(got - expected)) < 5e-3
