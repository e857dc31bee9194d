import hashlib
import json
import math
import warnings

import numpy as np
import pytest

from wavekit import modified_nr as mnr
from wavekit import shooting
from wavekit.errors import NoRootError, StateTrackingError, UsageError
from wavekit.numgrid import Grid
from wavekit.potentials import PotentialSpec
from wavekit.shooting import (_MARCH_ROWS, _renormalized, _step, _walk,
                              _wronskian, count_shot_nodes,
                              linear_bound_state_energy, march_endpoint,
                              piecewise_regions, sample_shot, shot_state)
from wavekit.units import UnitSystem

U = UnitSystem()
SCALE = 2.0 * U.m / U.hbar**2


def _closed_form(psi, dpsi, w, d):
    """Transfer across one region of psi'' = -w psi, written out per branch
    with ``math`` (the overflow guard clamps the cosh/sinh argument)."""
    if w > 0:
        k = math.sqrt(w)
        return (math.cos(k * d) * psi + math.sin(k * d) / k * dpsi,
                -k * math.sin(k * d) * psi + math.cos(k * d) * dpsi)
    if w < 0:
        kap = math.sqrt(-w)
        arg = min(kap * d, 700.0)
        return (math.cosh(arg) * psi + math.sinh(arg) / kap * dpsi,
                kap * math.sinh(arg) * psi + math.cosh(arg) * dpsi)
    return psi + d * dpsi, dpsi


def test_step_matches_closed_forms_on_every_branch():
    d = 2.0
    # phase 2000 rad (far past the 700 guard, also from the wall state
    # psi = 0, psi' = 1), a plain oscillatory region, an exponential one
    # clamped at 700, an unclamped one and w = 0
    w = np.array([1.0e6, 1.0e6, 3.0, -1.0e6, -4.0, 0.0])
    psi = np.array([0.3, 0.0, -1.0, 0.5, 1.0, 0.25])
    dpsi = np.array([1.0, 1.0, 0.7, -0.2, -0.5, 2.0])
    got_psi, got_dpsi = _step(psi, dpsi, w, d)
    for i in range(w.size):
        want_psi, want_dpsi = _closed_form(psi[i], dpsi[i], w[i], d)
        assert got_psi[i] == pytest.approx(want_psi, rel=1e-12, abs=1e-14)
        assert got_dpsi[i] == pytest.approx(want_dpsi, rel=1e-12, abs=1e-14)


def test_step_broadcasts_over_sample_offsets():
    offsets = np.linspace(0.0, 1.5, 7)
    vals, _ = _step(0.2, 1.0, 9.0, offsets)
    want = [_closed_form(0.2, 1.0, 9.0, x)[0] for x in offsets]
    np.testing.assert_allclose(vals, want, rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("u0", [0.0, -7.5, 120.0])
def test_sturm_count_is_number_of_box_levels_below(u0):
    # three regions of one value: interfaces must neither add nor drop zeros;
    # the Sturm count N(E) and the left shot's node count both equal the
    # number of closed-form box levels u0 + (n + 1)^2 unit below E
    edges = np.array([0.0, 0.7, 2.6, 3.0])
    u = np.full(3, u0)
    unit = (np.pi / 3.0) ** 2 / SCALE
    n = np.arange(0, 60)
    energies = np.concatenate([[u0 - 5.0, u0], u0 + (n + 0.5) ** 2 * unit])
    expected = np.concatenate([[0, 0], n])
    sides = _sides(edges, u)
    np.testing.assert_array_equal(
        [_wronskian(sides, SCALE, e)[0] for e in energies.tolist()], expected)
    np.testing.assert_array_equal(
        [count_shot_nodes(edges, SCALE * (e - u)) for e in energies], expected)


def test_sturm_count_counts_matching_roots_below_energy():
    edges = np.array([-8.0, -1.0, 1.0, 8.0])
    u = np.array([0.0, -50.0, 0.0])
    widths = np.diff(edges)
    es = np.linspace(-49.99, 20.0, 20000)
    ends = march_endpoint(widths, SCALE * (es[:, None] - u[None, :]))
    roots_below = np.concatenate(
        [[0], np.cumsum(np.sign(ends[1:]) * np.sign(ends[:-1]) < 0)])
    sides = _sides(edges, u)
    counts = [_wronskian(sides, SCALE, e)[0] for e in es[::50].tolist()]
    np.testing.assert_array_equal(counts, roots_below[::50])


def test_linear_eigenvalues_of_a_box_are_closed_form():
    edges = np.array([0.0, 1.3, 2.0, 3.5])
    u = np.full(3, -4.0)
    unit = (np.pi / 3.5) ** 2 / SCALE
    for k in (0, 1, 7, 40):
        mu = linear_bound_state_energy(edges, u, k, U)
        assert mu == pytest.approx(-4.0 + (k + 1) ** 2 * unit, rel=1e-12)


def test_deep_well_states_are_indexed_by_node_count():
    # W inside the well of a near-bottom state of the modified equation:
    # hundreds of states share the well, and a scan over energies puts
    # neighbouring roots into one cell
    edges = np.array([-8.0, -1.5, 1.5, 8.0])
    u = np.array([0.0, -2.7e5, 0.0])
    n_top = _wronskian(_sides(edges, u), SCALE, 0.0)[0]
    assert n_top > 600
    mus = []
    for k in range(n_top):
        mu = linear_bound_state_energy(edges, u, k, U)
        assert count_shot_nodes(edges, SCALE * (mu - u)) == k
        mus.append(mu)
    mus = np.array(mus)
    assert np.all(np.diff(mus) > 0)
    assert -2.7e5 < mus[0] and mus[-1] < 0.0


def test_linear_roots_have_their_index_in_nodes():
    # the k-th level's shot has k nodes, counted by the walk that counts
    # N(E) for the solve, on wells of 1-3 regions in walls whose outer
    # regions are forbidden, for every bound state above the well's levels
    # (where the shot's residual grows in the last region alone; 1167 states)
    rng = np.random.default_rng(15)
    checked = 0
    for i in range(200):
        n = int(rng.integers(1, 4))
        widths = np.concatenate([[rng.uniform(1.0, 6.0)],
                                 rng.uniform(0.1, 2.0, n), [rng.uniform(1.0, 6.0)]])
        edges = np.concatenate([[0.0], np.cumsum(widths)])
        u = np.concatenate([[0.0], -10.0 ** rng.uniform(0.5, 3.0)
                            * rng.uniform(0.8, 1.0, n), [0.0]])
        for k in range(12):
            mu = linear_bound_state_energy(edges, u, k, U)
            if mu >= 0.0:
                break
            if mu > u[1:-1].max():
                assert count_shot_nodes(edges, SCALE * (mu - u)) == k, (i, k)
                checked += 1
    assert checked == 1167


def _shooting_profiles():
    """60 seeded profiles in walls at +-8 with a bracket of each: square
    wells of depth 1-50, and four levels from -30 to 10 with the bracket
    from just above the lowest to 20 above the highest."""
    rng = np.random.default_rng(27)
    for i in range(60):
        if i % 2 == 0:
            depth = float(rng.uniform(1.0, 50.0))
            spec = PotentialSpec.square_well(depth, float(rng.uniform(0.25, 1.5)))
            yield spec, (-depth * (1.0 - 1e-4), -depth * 1e-4)
        else:
            values = rng.uniform(-30.0, 10.0, 4)
            spec = PotentialSpec.piecewise_constant(
                np.sort(rng.uniform(-6.0, 6.0, 3)).tolist(), values.tolist())
            yield spec, (float(values.min()) + 1e-3, float(values.max()) + 20.0)


def test_shooting_node_counts_match_the_recorded_vector_counts():
    # the node count of every modified-equation shooting root on these
    # profiles, as the vectorized count this walk replaced gave them: 5168
    # roots, 482588 nodes in all
    grid = Grid.line(-8.0, 8.0, 400)
    counts = [[r.node_count for r in mnr.solve_stationary_shooting(
        grid, spec, bracket, U, n_scan=2000)] for spec, bracket in _shooting_profiles()]
    flat = [n for row in counts for n in row]
    assert (len(flat), sum(flat)) == (5168, 482588)
    assert hashlib.sha256(json.dumps(counts).encode()).hexdigest() == (
        "968aac503aaad423c4fe03764846de47f1c3a6c44637d94fee7d2f4982aa7653")


def test_counts_refuse_a_phase_past_1e12():
    # the count's end margin, 1e-12 of the phase, can hold more than the one
    # zero a parity check restores past a phase of 1e12 rad: state 1e14 of
    # the unit box once came back as state 1e14 + 314 with node count 1e14.
    # Such a walk is refused; state 1e11 is solved as before
    edges, u = np.array([0.0, 1.0]), np.array([0.0])
    unit = np.pi**2 / SCALE
    mu = linear_bound_state_energy(edges, u, 10**11, U)
    assert mu == pytest.approx((10**11 + 1) ** 2 * unit, rel=1e-12)
    assert count_shot_nodes(edges, [SCALE * (mu - 0.5 * 10**11 * unit)]) == 10**11
    for k in (10**12, 10**13, 10**14):
        for guess in (None, (k + 1) ** 2 * unit):
            with pytest.raises(StateTrackingError, match="phase"):
                linear_bound_state_energy(edges, u, k, U, guess)
    with pytest.raises(StateTrackingError, match="phase"):
        count_shot_nodes(edges, [1.000001e24])


@pytest.mark.parametrize("length", [1.0, 2.0, 3.5, 5.0, 8.0, 16.0])
def test_flat_box_levels_on_the_count_ladder_are_found(length):
    # min(U) + 2^j unit is a level of a flat box for k = 0, 1, 3, 7: a trial
    # lands on the eigenvalue, where the analytic count lags the sign of
    # psi at the wall; the count bracket must still hold the matching root
    unit = (np.pi / length) ** 2 / SCALE
    for u0 in (-12.0, -4.0, 0.0, 1.0, 7.5, 305.74369284):
        for k in (0, 1, 3, 7):
            mu = linear_bound_state_energy(np.array([0.0, length]),
                                           np.array([u0]), k, U)
            assert mu == pytest.approx(u0 + (k + 1) ** 2 * unit, rel=1e-12)


def _level_profile(rng):
    """1-6 regions of width 0.1-3 and |U| from 0.1 to 1000 of either sign:
    boxes, wells and barriers, with the last region allowed or forbidden."""
    n_regions = int(rng.integers(1, 7))
    edges = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 3.0,
                                                         n_regions))])
    u = rng.choice([-1.0, 1.0], n_regions) * 10.0 ** rng.uniform(-1.0, 3.0,
                                                                n_regions)
    return edges, u


def test_seeded_linear_eigenvalue_equals_unseeded():
    # the guess only adds trials to the Sturm batch: near, far, on the next
    # level, below min(U) or non-finite, it picks the same state, and the
    # levels below the returned energy, the zeros of the sampled shot, are
    # k just below it and more than k just above
    rng = np.random.default_rng(11)
    for i in range(300):
        edges, u = _level_profile(rng)
        k = i % 6
        mu = linear_bound_state_energy(edges, u, k, U)
        gap = linear_bound_state_energy(edges, u, k + 1, U) - mu
        # the march sees E - U_j: energies resolve to the float spacing of
        # the largest of them, which is |mu|'s where |mu| dominates
        ulp = np.spacing(np.max(np.abs(mu - np.append(u, 0.0))))
        guesses = (mu, mu - 1e-12 * abs(mu), mu + 1e-12 * abs(mu),
                   mu - 0.3 * gap, mu + 0.3 * gap, mu + gap,
                   np.min(u) - 1.0, 1e6, np.nan, np.inf, -np.inf)
        got = [linear_bound_state_energy(edges, u, k, U, g) for g in guesses]
        near = np.ravel([(e - 1e-6 * gap, e + 1e-6 * gap) for e in got])
        below = _sampled_zeros(np.diff(edges),
                               SCALE * (near[:, None] - u))[0].reshape(-1, 2)
        for guess, e, counts in zip(guesses, got, below):
            assert abs(e - mu) <= 4.0 * ulp, (i, guess)
            assert counts[0] == k < counts[1], (i, guess)


def test_seeded_linear_eigenvalue_takes_few_scalar_walks(monkeypatch):
    # the solve is scalar walks alone, no Sturm batch, march or batched
    # walk: the guess and the rungs toward the level bracket it, then
    # Illinois steps on D close it, one walk each
    def batched(*args, **kwargs):
        raise AssertionError("the linear eigensolve called a NumPy batch")

    wronskian, walks, seeded, slopes = shooting._wronskian, [], [], []

    def walked(*args, **kwargs):
        walks.append(args[2])
        slopes.append(bool(args[3:] or kwargs))
        return wronskian(*args, **kwargs)

    for name in ("march_endpoint", "_walk"):
        monkeypatch.setattr(shooting, name, batched)
    monkeypatch.setattr(shooting, "_wronskian", walked)
    # a deep well resolves E only to 8-64 of its floats (the spacing of
    # E - U_mid): a Newton step on D (slope walk of the guess) lands within
    # a few cells of that grid, whose edges close the bracket; the slope is
    # carried through the growth clamp (states 133, 134), where D is noisy
    # enough that the step can land a few cells off
    for edges, u, states in [
            (np.array([-8.0, -1.0, 1.0, 8.0]), np.array([0.0, -12.0, 0.0]), range(3)),
            (np.array([-8.0, -0.7, 0.7, 8.0]), np.array([0.0, -5.0e4, 0.0]),
             range(133, 141))]:
        for k in states:
            walks.clear()
            mu = linear_bound_state_energy(edges, u, k, U)
            unseeded = len(walks)
            for guess in (mu, mu * (1.0 - 1e-9), mu * (1.0 + 1e-12)):
                walks.clear()
                slopes.clear()
                got = linear_bound_state_energy(edges, u, k, U, guess)
                assert got == mu, (k, guess)
                assert slopes.count(True) == 1 and slopes[0], (k, guess)
                assert len(walks) <= 8 and len(walks) < unseeded, (k, guess)
                seeded.append(len(walks))
    assert len(seeded) == 33 and sum(seeded[9:]) <= 82


def _sides(edges, u):
    """The regions of the left and the mirrored right shot, as the linear
    eigensolve hands them to ``_wronskian``."""
    m = int(np.argmin(u))
    regions = list(zip(np.diff(edges).tolist(), np.asarray(u).tolist()))
    return regions[:m], regions[m:][::-1]


def _full_count(edges, coeffs):
    """The Sturm count of the left shot of psi'' = -w psi through
    :func:`_wronskian`, its regions at levels -w on the left side alone: the
    shot's zeros and, unlike :func:`count_shot_nodes`, a sign change across
    a last region that does not oscillate."""
    regions = list(zip(np.diff(edges).tolist(), (-np.asarray(coeffs)).tolist()))
    return _wronskian((regions, []), 1.0, 0.0)[0]


def test_wronskian_slope_matches_a_central_difference():
    # dD/dE carried through the closed forms against a fourth-order central
    # difference of D, on profiles where each shot crosses an oscillatory
    # and a decaying region before it meets the other
    rng = np.random.default_rng(13)
    checked = 0
    for _ in range(10000):
        edges, u = _level_profile(rng)
        m = int(np.argmin(u))
        e = float(rng.uniform(u.min(), u.max()))
        left, right = u[:m], u[m:]
        if not (np.any(left < e) and np.any(left > e) and np.any(right > e)):
            continue
        sides = _sides(edges, u)
        n, d, slope = _wronskian(sides, SCALE, e, True)
        if slope is None:  # the growth clamp
            continue
        assert (n, d) == _wronskian(sides, SCALE, e), e
        h = 1e-6 * max(1.0, abs(e))
        diff = [(_wronskian(sides, SCALE, e + j * h)[1]
                 - _wronskian(sides, SCALE, e - j * h)[1]) / (2 * j * h)
                for j in (1, 2)]
        want = (4.0 * diff[0] - diff[1]) / 3.0
        assert slope == pytest.approx(want, rel=1e-6), e
        checked += 1
    assert checked >= 250


def test_slope_is_none_without_a_closed_form():
    # a linear region (w = 0) carries no slope; N and D are the plain walk's
    regions, e = [(1.0, 2.0), (1.5, -3.0)], 2.0
    sides = regions[:0], regions[::-1]
    n, d, slope = _wronskian(sides, SCALE, e, True)
    assert slope is None and (n, d) == _wronskian(sides, SCALE, e)


def test_slope_is_carried_through_the_growth_clamp():
    # kappa width = 2546 passes the growth clamp of 700: the clamped
    # transfer holds its growth, d grow/dE = 0, and the slope is the
    # derivative of the walked D, against a fourth-order central difference
    # (a step of 1e-3: D moves by about 1e-10 over it)
    regions = [(9.0, 4.0e4), (1.5, -3.0)]
    sides = regions[:0], regions[::-1]
    for e in (-1.0, 0.5, 1.0, 3.0):
        n, d, slope = _wronskian(sides, SCALE, e, True)
        assert (n, d) == _wronskian(sides, SCALE, e)
        h = 1e-3
        diff = [(_wronskian(sides, SCALE, e + j * h)[1]
                 - _wronskian(sides, SCALE, e - j * h)[1]) / (2 * j * h)
                for j in (1, 2)]
        assert slope == pytest.approx((4.0 * diff[0] - diff[1]) / 3.0,
                                      rel=1e-6), e


def test_count_certificate_puts_the_level_within_tol(monkeypatch):
    # with tol, a seeded solve first walks the pair guess -+ reach, reach
    # four resolution steps over [guess - tol, guess + tol] short of tol,
    # the upper point only when N = k at the lower one, and neither with a
    # slope. N = k + 1 at the upper point answers None, and the full
    # solve's level lies within tol of the guess. Otherwise the solve
    # returns the full solve's float and makes exactly its walks after the
    # pair points walked
    wronskian, walks = shooting._wronskian, []

    def walked(sides, scale, e, slope=False):
        walks.append((e, slope))
        return wronskian(sides, scale, e, slope)

    monkeypatch.setattr(shooting, "_wronskian", walked)
    rng = np.random.default_rng(11)
    certified = 0
    for i in range(300):
        edges, u = _level_profile(rng)
        k, levels = i % 6, u.tolist()
        low, high = min(0.0, min(levels)), max(0.0, max(levels))
        sides = _sides(edges, u)
        problem = shooting.PreparedProblem(edges, U)
        mu = problem.solve(levels, k)
        for t in (1e-7, 1e-10, 1e-13):
            tol = t * max(1.0, abs(mu))
            for f in (0.0, 0.1, -0.1, 0.45, -0.45, 0.9, -0.9, 1.5, -1.5, 30.0):
                guess = mu + f * tol
                step = max(math.ulp(max(e - low, high - e))
                           for e in (guess - tol, guess + tol))
                reach = tol - 4 * step
                pair = [(guess - reach, False), (guess + reach, False)]
                walks.clear()
                full = problem.solve(levels, k, guess)
                untold = walks[:]
                walks.clear()
                got = problem.solve(levels, k, guess, tol)
                if got is None:
                    certified += 1
                    assert walks == pair, (i, t, f)
                    assert abs(full - guess) < tol, (i, t, f)
                    continue
                assert got == full, (i, t, f)
                # no pair point where the pair leaves the bracket or reach
                # is not positive (tol within four resolution steps)
                top = max(levels) + 2.0 * (k + 1) ** 2 * problem.unit
                first = (0 if not min(levels) < guess - reach < guess + reach < top
                         else 1 if wronskian(sides, SCALE, guess - reach)[0] != k
                         else 2)
                assert walks == pair[:first] + untold, (i, t, f)
    assert certified >= 4000  # 6103 of the 9000 solves


def test_seeded_linear_eigenvalue_cell_edges_hold_the_count():
    # the certificate of the Newton step: N = k at the lower edge of the
    # returned resolution cell and k + 1 at its upper edge (the middle of a
    # cell one float wide rounds onto an edge, so either cell may be meant)
    rng = np.random.default_rng(14)
    for i in range(300):
        edges, u = _level_profile(rng)
        k = i % 6
        sides = _sides(edges, u)
        mu = linear_bound_state_energy(edges, u, k, U)
        low, high = min(0.0, u.min()), max(0.0, u.max())
        for guess in (mu, mu * (1.0 - 1e-9), mu * (1.0 + 1e-12),
                      mu + 1e-7 * abs(mu)):
            got = linear_bound_state_energy(edges, u, k, U, guess)
            step = math.ulp(max(got - low, high - got))
            cell = math.floor(got / step)
            cells = (cell - 1, cell) if cell * step == got else (cell,)
            counts = [(_wronskian(sides, SCALE, c * step)[0],
                       _wronskian(sides, SCALE, (c + 1) * step)[0]) for c in cells]
            assert (k, k + 1) in counts, (i, guess, counts)


def test_scalar_wronskian_has_the_sign_of_the_sturm_count():
    # the count N of the shots from both walls, met at the lowest region's
    # left edge, is the number of levels below E: the zeros of the sampled
    # left shot (oscillation theorem); D is the Wronskian of the batched
    # walk's end states and has the sign (-1)^N; on flat boxes the ladder
    # rungs min(U) + 2^j unit land on the levels
    rng = np.random.default_rng(12)
    cases = [_level_profile(rng) for _ in range(200)]
    cases += [(np.array([0.0, length]), np.array([u0]))
              for length in (1.0, 3.5, 16.0) for u0 in (-12.0, 0.0, 305.74369284)]
    for edges, u in cases:
        widths = np.diff(edges)
        unit = (np.pi / widths.sum()) ** 2 / SCALE
        es = np.concatenate([rng.uniform(u.min() - 1.0, u.max() + 300.0, 40),
                             u.min() + np.ldexp(unit, np.arange(-1, 12))])
        m = int(np.argmin(u))
        regions = list(zip(widths.tolist(), u.tolist()))
        sides = regions[:m], regions[m:][::-1]
        counts = _sampled_zeros(widths, SCALE * (es[:, None] - u))[0]
        for e, count in zip(es.tolist(), counts):
            n, d = _wronskian(sides, SCALE, e)
            assert n == count, e
            assert math.copysign(1.0, d) == (-1.0) ** count or d == 0.0, e
            ends = []
            for side in sides:
                if not side:  # the wall state of an empty side
                    ends.append((0.0, 1.0))
                    continue
                w, v = np.array(side).T
                *_, (_, end) = _walk(w, SCALE * (e - v)[None, :])
                ends.append(np.array(end)[:, 0] / np.hypot(*end)[0])
            (psi_l, dpsi_l), (psi_r, dpsi_r) = ends
            assert d == pytest.approx(psi_l * dpsi_r + dpsi_l * psi_r,
                                      abs=1e-9), e


def test_linear_eigenvalue_is_a_sign_change_of_the_march():
    # the march endpoint psi(b), the root function of the one-sided solve,
    # changes sign within 4 resolution steps of every energy
    rng = np.random.default_rng(11)
    for i in range(300):
        edges, u = _level_profile(rng)
        k = i % 6
        mu = linear_bound_state_energy(edges, u, k, U)
        ulp = np.spacing(np.max(np.abs(mu - np.append(u, 0.0))))
        for guess in (None, mu, mu * (1.0 + 1e-9), mu - 1e-3, np.nan):
            got = linear_bound_state_energy(edges, u, k, U, guess)
            es = got + ulp * np.arange(-4.0, 5.0)
            ends = np.sign(march_endpoint(np.diff(edges),
                                          SCALE * (es[:, None] - u)))
            assert np.any(ends[:-1] * ends[1:] <= 0), (i, guess)


def test_linear_eigenvalue_is_the_exact_root_to_the_resolution():
    # a 60-digit transfer-matrix root of psi(b) on the same float profile:
    # within 2.5 steps of the resolution (the worst of the 300 profiles
    # above reads 2.4, before and after the two-sided solve)
    mp = pytest.importorskip("mpmath")

    def endpoint(e, widths, u):
        psi, dpsi = mp.mpf(0), mp.mpf(1)
        for width, level in zip(widths, u):
            w = 2 * (e - level) * mp.mpf(U.m) / mp.mpf(U.hbar) ** 2
            k = mp.sqrt(abs(w))
            if w > 0:
                c, s = mp.cos(k * width), mp.sin(k * width)
                psi, dpsi = c * psi + s / k * dpsi, -k * s * psi + c * dpsi
            elif w < 0:
                c, s = mp.cosh(k * width), mp.sinh(k * width)
                psi, dpsi = c * psi + s / k * dpsi, k * s * psi + c * dpsi
            else:
                psi += width * dpsi
        return psi

    rng = np.random.default_rng(11)
    for i in range(300):
        edges, u = _level_profile(rng)
        if i % 10:
            continue
        mu = linear_bound_state_energy(edges, u, i % 6, U)
        ulp = float(np.spacing(np.max(np.abs(mu - np.append(u, 0.0)))))
        with mp.workdps(60):
            widths = [mp.mpf(float(w)) for w in np.diff(edges)]
            levels = [mp.mpf(float(v)) for v in u]
            lo, hi = mp.mpf(mu) - 64 * ulp, mp.mpf(mu) + 64 * ulp
            sign = mp.sign(endpoint(lo, widths, levels))
            assert sign * endpoint(hi, widths, levels) < 0, i
            for _ in range(60):
                mid = (lo + hi) / 2
                if sign * endpoint(mid, widths, levels) > 0:
                    lo = mid
                else:
                    hi = mid
            assert abs(mp.mpf(mu) - lo) <= 2.5 * ulp, i


def test_levels_split_below_the_float_spacing_raise_no_root_error():
    # xval_wells seed 901: square_well(27.18054458022681, 0.7049193521336624)
    # in walls at +-8, W = 3V - V^2/(E - V) at the fixed-point iterate
    # E = -27.1848, a 1.7e5 barrier between two equal boxes whose levels
    # pair up with splits of about e^-830, far below the float spacing
    half = 0.7049193521336624
    edges = np.array([-8.0, -half, half, 8.0])
    v = np.array([0.0, -27.18054458022681, 0.0])
    e = float.fromhex("-0x1.b2f4dd7ddc758p+4")
    w = 3.0 * v - v**2 / (e - v)
    for guess in (None, e):
        with pytest.raises(NoRootError):
            linear_bound_state_energy(edges, w, 165, U, guess)


def test_linear_eigenvalue_refuses_levels_closer_than_the_float_spacing():
    # a flat box's levels u0 + (k+1)^2 unit lie (2k+3) unit apart: from
    # about k = 1e16 that is below the float spacing at the bound on E_k
    edges, u = np.array([0.0, 1.0]), np.array([0.0])
    unit = np.pi**2 / SCALE
    mu = linear_bound_state_energy(edges, u, 10**6, U)
    assert mu == pytest.approx((10**6 + 1) ** 2 * unit, rel=1e-12)
    for k in (10**16, 10**17, 10**150):
        with pytest.raises(StateTrackingError, match="float spacing"):
            linear_bound_state_energy(edges, u, k, U)
    # at a level of 1e20 (float spacing 16384) low states are refused too;
    # state 0's bound rounds to the level, where the doubling count once
    # ended in a bare math domain error
    for k in (0, 100):
        with pytest.raises(StateTrackingError, match="float spacing"):
            linear_bound_state_energy(edges, [1e20], k, U)


def test_guess_on_a_level_of_a_long_phase_is_counted_once():
    # a flat box's level 1e6 lies at a phase of 1e6 pi, where the rounding
    # of the phase passes the 1e-12 pi end margin: the count next to the
    # level must still be k or k + 1 (the seeded solve walks its guess
    # first), and a guess on the level or a float off it finds the level
    edges, u, k = np.array([0.0, 1.0]), np.array([0.0]), 10**6
    mu = linear_bound_state_energy(edges, u, k, U)
    assert mu == pytest.approx((k + 1) ** 2 * np.pi**2 / SCALE, rel=1e-12)
    near = (mu + np.spacing(mu) * np.arange(-8.0, 9.0)).tolist()
    counts = [_wronskian(([], [(1.0, 0.0)]), SCALE, e)[0] for e in near]
    assert set(counts) == {k, k + 1} and counts == sorted(counts), counts
    for guess in (mu, np.nextafter(mu, 0.0), np.nextafter(mu, np.inf)):
        assert linear_bound_state_energy(edges, u, k, U, guess) == mu, guess


def test_sturm_count_end_margin_scales_with_a_long_phase():
    # 2 floats below level 10^6 (from 0) of the flat unit box the phase is
    # 3.1e6 rad, whose rounding passes a fixed 1e-12 pi end margin: the
    # count ran ahead (1000002 with the parity check, 1000001 without).
    # Scaled with the phase, it reads the 10^6 closed-form levels below
    # either way. Near the level the count is the 10^6 levels below the
    # window plus one where the march endpoint has the sign (-1)^(10^6 + 1)
    # (oscillation theorem), and the node count, with no parity check,
    # equals it or lags it by one
    edges, u, k = np.array([0.0, 1.0]), np.array([0.0]), 10**6
    e = 4934812070154.014
    assert _wronskian(([], [(1.0, 0.0)]), SCALE, e)[0] == k
    assert count_shot_nodes(edges, [SCALE * e]) == k
    mu = linear_bound_state_energy(edges, u, k, U)
    near = mu + np.spacing(mu) * np.arange(-8.0, 9.0)
    walked = [_wronskian(([], [(1.0, 0.0)]), SCALE, e)[0] for e in near.tolist()]
    ends = np.sign(march_endpoint(np.diff(edges), SCALE * near[:, None]))
    np.testing.assert_array_equal(k + (ends != (-1.0) ** k), walked)
    lagging = np.array([count_shot_nodes(edges, [SCALE * e]) for e in near])
    assert np.all((walked - lagging >= 0) & (walked - lagging <= 1)), lagging


def test_scalar_count_restores_each_lagging_side_at_a_node_on_c():
    # [0, 1] + [1, 2] with U = (5e-324, 0): the shots meet at c = 1, where
    # every even level of the flat box has its node, so just off such a
    # level both sides can lag at once; each side's parity check restores
    # its own zero, and the count stays n - 1 or n next to level n
    sides = [(1.0, 5e-324)], [(1.0, 0.0)]
    for n in range(1, 200):
        level = (n * math.pi / 2.0) ** 2 / 2.0
        counts = {_wronskian(sides, SCALE, level * (1.0 + k * 1e-15))[0]
                  for k in range(-100, 101)}
        assert counts <= {n - 1, n}, (n, counts)


@pytest.mark.parametrize("k", [-1, 2.5, 2.0, True, np.float64(1.0), "1"])
def test_linear_eigenvalue_rejects_a_bad_state_index(k):
    with pytest.raises(UsageError, match="state_index"):
        linear_bound_state_energy(np.array([0.0, 1.0]), np.array([0.0]), k, U)


@pytest.mark.parametrize("edges", [[1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0]])
def test_linear_eigenvalue_rejects_edges_that_do_not_increase(edges):
    with pytest.raises(UsageError, match="edges"):
        linear_bound_state_energy(np.array(edges), np.array([0.0, 1.0]), 0, U)


def test_linear_eigenvalue_rejects_non_finite_profile():
    edges = np.array([0.0, 1.0, 2.0])
    with pytest.raises(UsageError):
        linear_bound_state_energy(edges, np.array([0.0, np.nan]), 0, U)


def test_marchers_stay_finite_past_the_decay_rate_overflow():
    # barrier of 10 on [-1, 1] in walls at +-4: just below the barrier top
    # the modified coefficient there is about -2e9, where kappa sinh(700)
    # overflows. Split into thin regions, the same barrier needs no clamp.
    widths = np.array([3.0, 2.0, 3.0])
    for e in (10.0 - 1e-6, 10.0 - 1e-7, 10.0 - 1e-9):
        v = np.array([0.0, 10.0, 0.0])
        coeffs = (SCALE * (e - 2.0 * v) ** 2 / (e - v))[None, :]
        kappa = math.sqrt(-coeffs[0, 1])
        m = math.ceil(2.0 * kappa / 600.0)
        thin_widths = np.concatenate([[3.0], np.full(m, 2.0 / m), [3.0]])
        thin = np.concatenate([[coeffs[0, 0]], np.full(m, coeffs[0, 1]),
                               [coeffs[0, 2]]])[None, :]
        got = march_endpoint(widths, coeffs)
        assert np.all(np.isfinite(got))
        assert got[0] == pytest.approx(march_endpoint(thin_widths, thin)[0],
                                       rel=1e-12)
        edges = np.concatenate([[0.0], np.cumsum(widths)])
        thin_edges = np.concatenate([[0.0], np.cumsum(thin_widths)])
        assert (_full_count(edges, coeffs[0]) == _full_count(thin_edges, thin[0])
                == count_shot_nodes(edges, coeffs[0])
                == count_shot_nodes(thin_edges, thin[0]) == 8)
        assert got[0] > 0.0  # the sign (-1)^8 of psi at the wall


@pytest.mark.parametrize("e", [10.0 - 1e-7, 10.0 - 1e-9])
def test_sample_shot_puts_an_overflowing_region_on_one_scale(e):
    # the barrier above, where kappa sinh(700) overflows: the shot must have
    # the shape of the same barrier split into thin regions (which need no
    # clamp), not a spike at the first barrier position past the overflow
    v = np.array([0.0, 10.0, 0.0])
    coeffs = SCALE * (e - 2.0 * v) ** 2 / (e - v)
    edges = np.array([-4.0, -1.0, 1.0, 4.0])
    x = np.linspace(-4.0, 4.0, 1201)
    p = sample_shot(edges, coeffs, x)
    np.testing.assert_allclose(p, _ref_shot(edges, coeffs, x), rtol=0.0,
                               atol=1e-12)
    assert np.max(np.abs(p[x > 1.0])) == 1.0


def test_sample_shot_of_an_end_state_that_cancels_to_zero():
    # the 7-node root of this well ends its last region at exactly (0, 0);
    # its e-fold count takes the renormalization's floor, not log(0). (The
    # shots near the right wall carry the root's residual, grown through
    # the forbidden region, so only the peaks are compared with _ref_shot.)
    depth = 6.171612836240812
    grid = Grid.line(-8.0, 8.0, 400)
    spec = PotentialSpec.square_well(depth, 1.0)
    roots = mnr.solve_stationary_shooting(
        grid, spec, (-depth * (1.0 - 1e-3), -depth * 1e-3), U)
    edges, v = piecewise_regions(spec, grid.x_min, grid.x_max)
    cancelled = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in roots:
            coeffs = mnr._nonlinear_coefficient(r.energy, v, U)[0]
            *_, (_, end) = _walk(np.diff(edges), coeffs)
            if end == (0.0, 0.0):
                cancelled.append((r.energy, r.node_count))
            p = sample_shot(edges, coeffs, grid.x)
            want = _ref_shot(edges, coeffs, grid.x)
            assert np.argmax(np.abs(p)) == np.argmax(np.abs(want))
            assert np.max(np.abs(p)) == 1.0
            assert np.all(np.isfinite(r.state.values))
    assert cancelled == [(-5.417626239013455, 7)]


@pytest.mark.parametrize("w_barrier", [-1e6, -4e5])
def test_shot_state_of_a_clamped_region_matches_thin_regions(w_barrier):
    # kappa width = 2000 and 1265 pass the growth clamp of 700 while kappa
    # sinh(700) stays finite: the shot must not plateau where the clamp
    # binds, and the regions before the barrier carry the dropped growth
    edges = np.array([-4.0, -1.0, 1.0, 4.0])
    coeffs = np.array([20.0, w_barrier, 20.0])
    m = math.ceil(2.0 * math.sqrt(-w_barrier) / 600.0)
    thin_edges = np.concatenate([[-4.0], np.linspace(-1.0, 1.0, m + 1), [4.0]])
    thin = np.concatenate([[20.0], np.full(m, w_barrier), [20.0]])
    grid = Grid("line", -4.0, 4.0, 401)
    got = shot_state(grid, edges, coeffs).values
    want = shot_state(grid, thin_edges, thin).values
    np.testing.assert_allclose(got, want, rtol=0.0,
                               atol=1e-12 * np.max(np.abs(want)))


# -- region-by-region references: the marchers evaluate the transfer
# coefficients of all regions at once and must give the same floats; the
# sampled shot must match its reference to 1e-12 of max |psi|, and the zero
# counts the sign changes of a finely sampled shot


def _ref_march(widths, coeffs):
    psi, dpsi = np.zeros(coeffs.shape[0]), np.ones(coeffs.shape[0])
    for j, width in enumerate(widths):
        psi, dpsi = _renormalized(*_step(psi, dpsi, coeffs[:, j], width))
    return psi


def _sampled_zeros(widths, coeffs):
    """Zeros of the left shot per trial, read as sign changes of psi: in an
    oscillatory region sampled from the region's start state (the batched
    walk) less than pi/k apart, so that no two zeros share a gap, elsewhere
    at the region's end. Returns all of them, which by the oscillation
    theorem is the number of levels below E for a linear coefficient, and
    those left once a last region that does not oscillate is dropped."""
    signs = [np.ones((coeffs.shape[0], 1))]  # psi' = 1 just past the wall
    for j, ((psi, dpsi), (end, _)) in enumerate(_walk(widths, coeffs)):
        w = coeffs[:, j:j + 1]
        k = np.sqrt(np.maximum(w, 0.0))
        n = math.ceil(np.max(k) * widths[j] / math.pi) + 1
        x = np.linspace(0.0, widths[j], n + 1)[1:]
        with np.errstate(divide="ignore", invalid="ignore"):
            wave = psi[:, None] * np.cos(k * x) + dpsi[:, None] / k * np.sin(k * x)
        signs.append(np.sign(np.where(w > 0.0, wave, end[:, None])))
    full, nodes = (np.sum(sign[:, 1:] * sign[:, :-1] < 0, axis=1)
                   for sign in (np.hstack(signs), np.hstack(signs[:-1])))
    return full, np.where(coeffs[:, -1] > 0.0, full, nodes)


def _ref_shot(edges, coeffs, x):
    """The left shot at ``x`` from the per-branch closed forms: regions
    growing past e^600 split into thin ones (which need no clamp), each
    value scaled by the exactly summed log renormalizations between its
    region and the largest value's, the right-wall value pinned to 0,
    scaled to max |psi| = 1."""
    thin_edges, thin = [edges[0]], []
    for a, b, w in zip(edges[:-1], edges[1:], coeffs):
        m = max(1, math.ceil(math.sqrt(max(-w, 0.0)) * (b - a) / 600.0))
        thin_edges.extend(np.linspace(a, b, m + 1)[1:])
        thin.extend([w] * m)
    values, region, log_scales = np.zeros(len(x)), np.zeros(len(x), int), []
    psi, dpsi = 0.0, 1.0
    for r, (a, b, w) in enumerate(zip(thin_edges[:-1], thin_edges[1:], thin)):
        for i in np.flatnonzero((x >= a) & (x < b)):
            values[i], region[i] = _closed_form(psi, dpsi, w, x[i] - a)[0], r
        psi, dpsi = _closed_form(psi, dpsi, w, b - a)
        scale = max(abs(psi), abs(dpsi), 1e-280)
        psi, dpsi = psi / scale, dpsi / scale
        log_scales.append(math.log(scale))
    live = np.flatnonzero(values)
    peak = live[np.argmax([math.fsum(log_scales[:region[i]])
                           + math.log(abs(values[i])) for i in live])]
    p = np.zeros(len(x))
    for i in live:
        lo, hi = sorted((region[i], region[peak]))
        level = math.fsum(log_scales[lo:hi]) * (1 if region[i] > lo else -1)
        p[i] = values[i] * math.exp(level - math.log(abs(values[peak])))
    return p / np.max(np.abs(p))


def _random_profile(rng):
    """1-6 regions; coefficients mix w > 0 (up to 2000 rad phases), w < 0
    (past the 700 clamp), w = 0 and O(1) values of either sign. Decay
    rates stay below 3e4, where kappa sinh(700) is still finite."""
    n_regions = int(rng.integers(1, 7))
    widths = rng.uniform(0.05, 2.0, n_regions)
    n_trials = int(rng.integers(1, 70))
    shape = (n_trials, n_regions)
    branch = rng.integers(0, 5, size=shape)
    big = (2000.0 / widths) ** 2 * rng.uniform(0.0, 1.0, shape)
    coeffs = np.select([branch == 0, branch == 1, branch == 2, branch == 3],
                       [big, -np.minimum(big, 9e8), np.zeros(shape),
                        rng.normal(size=shape)],
                       -rng.uniform(1e6, 1e8, shape))
    return widths, coeffs


def test_marchers_equal_region_by_region_references():
    rng = np.random.default_rng(3)
    positions = np.random.default_rng(4)
    seen_clamp = seen_phase = seen_zero = False
    for _ in range(300):
        widths, coeffs = _random_profile(rng)
        phase = np.sqrt(np.abs(coeffs)) * widths
        seen_clamp |= bool(np.any((coeffs < 0) & (phase > 700.0)))
        seen_phase |= bool(np.any((coeffs > 0) & (phase > 1500.0)))
        seen_zero |= bool(np.any(coeffs == 0))
        assert np.array_equal(march_endpoint(widths, coeffs),
                              _ref_march(widths, coeffs))
        edges = np.concatenate([[-1.0], -1.0 + np.cumsum(widths)])
        # the Sturm count and the node count of each trial against zeros of
        # the sampled shot
        sampled = _sampled_zeros(np.diff(edges), coeffs)
        for count, want in zip((_full_count, count_shot_nodes), sampled):
            assert np.array_equal([count(edges, row) for row in coeffs], want)
        n = int(rng.integers(2, 250))
        x = np.sort(np.concatenate(
            [edges, positions.uniform(edges[0], edges[-1], n)]))
        np.testing.assert_allclose(sample_shot(edges, coeffs[0], x),
                                   _ref_shot(edges, coeffs[0], x), rtol=0.0,
                                   atol=1e-12)
    assert seen_clamp and seen_phase and seen_zero
    # long scans are marched in blocks of rows
    widths, coeffs = _random_profile(rng)
    coeffs = np.resize(coeffs, (5 * _MARCH_ROWS // 2, coeffs.shape[1]))
    assert np.array_equal(march_endpoint(widths, coeffs),
                          _ref_march(widths, coeffs))
