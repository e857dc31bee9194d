import json

import numpy as np
import pytest
import scipy.linalg

from wavekit import cli, scenario
from wavekit import spin_half as sh
from wavekit.errors import NonConvergenceError, StabilityError
from wavekit.numgrid import BandedOperator, Grid, dense_matrix
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
    op = dense_matrix(sh.real_dirac_operator(g, U, 1.0, massless))
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


def _line_grid(n, boundary):
    """A line grid of n points; Grid refuses fewer than 8, which neither the
    operator nor its band needs, so smaller ones are built field by field."""
    if n >= 8:
        return Grid.line(-3.7, 5.1, n, boundary=boundary)
    g = object.__new__(Grid)
    for name, value in zip(("kind", "x_min", "x_max", "n_points", "boundary"),
                           ("line", -3.7, 5.1, n, boundary)):
        object.__setattr__(g, name, value)
    return g


@pytest.mark.parametrize("n", [3, 8, 33, 512])
@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
@pytest.mark.parametrize("massless", [False, True])
def test_band_unpermutes_to_the_folded_operator(n, boundary, massless):
    # the band, expanded and put back in the stacked (up, down) order, is
    # the folded operator a_ij / sqrt(w_i w_j) bit for bit
    g = _line_grid(n, boundary)
    op = sh.real_dirac_operator(g, U, 0.0 if massless else 0.7, massless)
    s = 1.0 / np.sqrt(np.random.default_rng(n).uniform(0.2, 3.0, 2 * n))
    folded, band, pos = sh._folded_band(op, s, boundary)
    bw = 5 if boundary == "periodic" else 3
    assert band.shape == (2 * bw + 1, 2 * n)
    m = 2 * n
    dense = np.zeros((m, m))
    for d in range(-bw, bw + 1):  # ab[bw + i - j, j] = M[i, j]
        j = np.arange(max(0, -d), min(m, m - d))
        dense[j + d, j] = band[bw + d, j]
        assert not np.any(np.delete(band[bw + d], j))  # padding stays zero
    want = dense_matrix(op) * np.outer(s, s)
    np.testing.assert_array_equal(dense[np.ix_(pos, pos)], want)
    np.testing.assert_array_equal(dense_matrix(folded)[np.ix_(pos, pos)], want)


def _dense_folded(g, V, massless):
    op = sh.real_dirac_operator(g, U, 0.0 if massless else 1.0, massless)
    v = evaluate(V, g.x)
    s = 1.0 / np.sqrt(np.concatenate([1.0 + v / U.E0, 1.0 + v / U.E0]))
    return dense_matrix(op) * np.outer(s, s), s


def _random_potential(rng, kind):
    if kind == "harmonic":
        return PotentialSpec.harmonic(float(rng.uniform(0.2, 3.0)),
                                      center=float(rng.uniform(1.0, 4.0)))
    breaks = np.sort(rng.uniform(0.0, 5.0, int(rng.integers(1, 5))))
    return PotentialSpec.piecewise_constant(
        breaks.tolist(), rng.uniform(-0.6 * U.E0, 2.0 * U.E0,
                                     breaks.size + 1).tolist())


@pytest.mark.parametrize("massless", [False, True])
@pytest.mark.parametrize("boundary, n, kind, n_states, widens", [
    ("periodic", 64, "free", 7, False),     # cuts a multiplet of four
    ("periodic", 65, "free", 4, False),
    ("periodic", 64, "harmonic", 9, False),
    ("periodic", 81, "piecewise", 5, False),
    ("dirichlet", 80, "piecewise", 11, False),
    ("dirichlet", 63, "harmonic", 6, False),
    ("dirichlet", 63, "free", 1, True),     # zero modes: massless widens
])
def test_banded_energies_match_a_dense_eigvalsh(massless, boundary, n, kind,
                                                n_states, widens):
    rng = np.random.default_rng([n, n_states])
    for _ in range(3 if kind != "free" else 1):
        V = PotentialSpec.free() if kind == "free" else _random_potential(rng,
                                                                         kind)
        g = Grid.line(0.0, 5.0, n, boundary=boundary)
        res = (sh.solve_massless(g, V, U, n_states=n_states) if massless else
               sh.solve_spin_half_stationary(g, V, U, n_states=n_states))
        ref = np.linalg.eigvalsh(_dense_folded(g, V, massless)[0])
        tol = 1e-12 * np.maximum(1.0, np.abs(res.energies))
        # each level is a dense eigenvalue, and the |E| are the smallest ones
        nearest = ref[np.argmin(np.abs(ref[None, :] - res.energies[:, None]),
                                axis=1)]
        assert np.all(np.abs(res.energies - nearest) <= tol)
        assert np.all(np.abs(np.sort(np.abs(res.energies))
                             - np.sort(np.abs(ref))[:n_states]) <= np.sort(tol))
        lo, hi = res.diagnostics["window"]
        assert hi - lo + 1 >= 2 * n_states
        assert (res.diagnostics["widenings"] > 0) == (widens and massless)
        assert res.diagnostics["max_residual"] < 1e-8


@pytest.mark.parametrize("massless", [False, True])
def test_degenerate_clusters_span_the_dense_eigenspaces(massless):
    # the free ring's +-p partners are degenerate: any basis of the pair is
    # right, so compare the eigenspace projectors of complete clusters
    g = Grid.line(0.0, 40.0, 96, boundary="periodic")
    V = PotentialSpec.free()
    res = (sh.solve_massless(g, V, U, n_states=13) if massless else
           sh.solve_spin_half_stationary(g, V, U, n_states=13))
    dense, s = _dense_folded(g, V, massless)
    ref, ref_vecs = np.linalg.eigh(dense)
    # the states as orthonormal columns of the folded problem
    y = np.array([np.concatenate([st.up.real, st.down.imag])
                  for st in res.states]).T / s[:, None]
    y /= np.linalg.norm(y, axis=0)
    checked = 0
    for e in np.unique(np.round(res.energies, 9)):
        mine = np.abs(res.energies - e) < 1e-9
        theirs = np.abs(ref - e) < 1e-9
        if mine.sum() != theirs.sum():
            continue  # the cut multiplet at the top is incomplete
        checked += mine.sum() > 1
        np.testing.assert_allclose(y[:, mine] @ y[:, mine].T,
                                   ref_vecs[:, theirs] @ ref_vecs[:, theirs].T,
                                   rtol=0, atol=1e-10)
    assert checked >= 3


def test_a_pair_split_above_the_cluster_gap_is_two_clusters():
    # the free ring's +-p partners agree to rounding and share a cluster; a
    # shallow wide well splits each pair by about 2e-6, between 1e-9 and
    # 1e-6 of the operator scale ||A||, and each level is its own cluster
    g = Grid.line(0.0, 40.0, 96, boundary="periodic")
    free = sh.solve_spin_half_stationary(g, PotentialSpec.free(), U)
    assert free.diagnostics["clusters"] == [2, 2, 1, 1, 2, 2]
    res = sh.solve_spin_half_stationary(
        g, PotentialSpec.square_well(1e-4, 10.0, 20.0), U)
    scale = np.abs(dense_matrix(sh.real_dirac_operator(g, U, 1.0))).sum(axis=1).max()
    split = np.diff(np.sort(res.energies)).min()
    assert 1e-9 * scale < split < 1e-6 * scale
    assert res.diagnostics["clusters"] == [1] * 8


def test_two_solves_give_the_same_arrays_and_digest():
    doc = {"equation": "spin_half_stationary", "units": {"c": 10.0},
           "grid": {"kind": "line", "x_min": -60.0, "x_max": 60.0,
                    "n_points": 96, "boundary": "periodic"},
           "potential": {"variant": "free"},
           "solver": {"n_states": 10, "wilson_r": 1.0}}
    one, two = (scenario.run_scenario(scenario.validate_scenario(doc))
                for _ in range(2))
    assert one.payload_digest == two.payload_digest
    assert one.payload == two.payload
    g = Grid.line(0.0, 5.0, 64, boundary="periodic")
    a, b = (sh.solve_massless(g, PotentialSpec.free(), U, n_states=7)
            for _ in range(2))
    np.testing.assert_array_equal(a.energies, b.energies)
    for sa, sb in zip(a.states, b.states):
        np.testing.assert_array_equal(sa.stacked(), sb.stacked())


def test_banded_solve_forms_no_dense_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense path taken")

    monkeypatch.setattr(scipy.linalg, "eigh", refuse)
    monkeypatch.setattr(BandedOperator, "to_dense", refuse)
    monkeypatch.setattr(sh, "dense_matrix", refuse)
    g = Grid.line(-200.0, 200.0, 512, boundary="periodic")
    res = sh.solve_spin_half_stationary(g, PotentialSpec.free(), U,
                                        n_states=22)
    d = res.diagnostics
    assert d["method"] == "banded_bisection_inverse_iteration"
    assert d["bandwidth"] == 5 and d["dim"] == 1024
    assert d["window"] == [490, 533] and d["widenings"] == 0
    # vectors only for the clusters of the 22 selected levels
    assert sum(d["clusters"]) >= 22 and d["banded_solves"] >= len(d["clusters"])
    assert d["max_residual"] == max(d["residuals"]) < 1e-10


def test_unconverged_inverse_iteration_is_a_typed_error(monkeypatch, tmp_path,
                                                        capsys):
    # a residual bound no vector can meet stands in for a stalled cluster
    monkeypatch.setattr(sh, "_ROUNDING", 0.0)
    monkeypatch.setattr(sh, "_RESIDUAL_TOL", 0.0)
    g = Grid.line(0.0, 5.0, 48, boundary="periodic")
    with pytest.raises(NonConvergenceError) as info:
        sh.solve_massless(g, PotentialSpec.free(), U, n_states=2)
    assert len(info.value.history) == sh._MAX_SWEEPS
    assert info.value.exit_code == 3
    cfg = tmp_path / "spin.yaml"
    cfg.write_text("equation: spin_half_stationary\n"
                   "grid: {kind: line, x_min: -4.0, x_max: 4.0, n_points: 64}\n"
                   "potential: {variant: free}\nsolver: {n_states: 2}\n")
    assert cli.main(["solve", "--config", str(cfg)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NonConvergenceError"
    assert len(err["iterate_history"]) == sh._MAX_SWEEPS


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
    op = dense_matrix(sh.real_dirac_operator(g, U, 0.7))
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


def test_massless_guard_stops_at_the_first_step_past_10x():
    # RK4 at c dt/h = 3, past its bound 2 sqrt(2) on the imaginary axis,
    # grows the mode q h = pi/2 by about 1.5 a step: the StabilityError
    # names the first step whose norm passes 10x norm0
    g = Grid.line(0.0, 2 * np.pi, 32, boundary="periodic")
    up = np.exp(8j * g.x)
    psi0, dt = sh.SpinorField(up, up, g), 3.0 * g.h / U.c
    with pytest.raises(StabilityError, match=r"beyond 10x at step \d+$") as err:
        sh.propagate_massless(psi0, PotentialSpec.free(), dt, 100, U)
    first = int(str(err.value).rsplit(" ", 1)[1])
    assert first > 2
    traj, norms = sh.propagate_massless(psi0, PotentialSpec.free(), dt,
                                        first - 1, U)
    assert max(norms) <= 10.0 * norms[0]
    _, (_, past) = sh.propagate_massless(traj[-1], PotentialSpec.free(), dt, 1, U)
    assert past > 10.0 * norms[0]


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
