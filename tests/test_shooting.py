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
                              piecewise_regions, sample_shot, shot_state,
                              sturm_count)
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
    # three regions of one value: interfaces must neither add nor drop zeros
    widths = np.array([0.7, 1.9, 0.4])
    unit = (np.pi / widths.sum()) ** 2 / SCALE      # E_n = u0 + n^2 unit
    n = np.arange(0, 60)
    energies = np.concatenate([[u0 - 5.0, u0], u0 + (n + 0.5) ** 2 * unit])
    expected = np.concatenate([[0, 0], n])
    coeffs = SCALE * (energies[:, None] - np.full((1, 3), u0))
    np.testing.assert_array_equal(sturm_count(widths, coeffs), expected)


def test_sturm_count_counts_matching_roots_below_energy():
    edges = np.array([-8.0, -1.0, 1.0, 8.0])
    u = np.array([0.0, -50.0, 0.0])
    widths = np.diff(edges)
    es = np.linspace(-49.99, 20.0, 20000)
    ends = march_endpoint(widths, SCALE * (es[:, None] - u[None, :]))
    roots_below = np.concatenate(
        [[0], np.cumsum(np.sign(ends[1:]) * np.sign(ends[:-1]) < 0)])
    counts = sturm_count(widths, SCALE * (es[:, None] - u[None, :]))
    np.testing.assert_array_equal(counts[::50], roots_below[::50])


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
    n_top = int(sturm_count(np.diff(edges), SCALE * (0.0 - u))[0])
    assert n_top > 600
    mus = []
    for k in range(n_top):
        mu = linear_bound_state_energy(edges, u, k, U)
        assert count_shot_nodes(edges, SCALE * (mu - u)) == k
        mus.append(mu)
    mus = np.array(mus)
    assert np.all(np.diff(mus) > 0)
    assert -2.7e5 < mus[0] and mus[-1] < 0.0


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
    # level, below min(U) or non-finite, it picks the same state
    rng = np.random.default_rng(11)
    for i in range(300):
        edges, u = _level_profile(rng)
        k = i % 6
        mu = linear_bound_state_energy(edges, u, k, U)
        gap = linear_bound_state_energy(edges, u, k + 1, U) - mu
        # the march sees E - U_j: energies resolve to the float spacing of
        # the largest of them, which is |mu|'s where |mu| dominates
        ulp = np.spacing(np.max(np.abs(mu - np.append(u, 0.0))))
        for guess in (mu, mu - 1e-12 * abs(mu), mu + 1e-12 * abs(mu),
                      mu - 0.3 * gap, mu + 0.3 * gap, mu + gap,
                      np.min(u) - 1.0, 1e6, np.nan, np.inf, -np.inf):
            got = linear_bound_state_energy(edges, u, k, U, guess)
            assert abs(got - mu) <= 4.0 * ulp, (i, guess)
            near = np.array([got - 1e-6 * gap, got + 1e-6 * gap])
            counts = sturm_count(np.diff(edges), SCALE * (near[:, None] - u))
            assert counts[0] == k < counts[1], (i, guess)


def test_seeded_linear_eigenvalue_takes_one_count_and_few_walks(monkeypatch):
    # the guess rungs give a one-level count bracket in one batch, then
    # Illinois steps on D, one scalar walk each, close it
    edges, u = np.array([-8.0, -1.0, 1.0, 8.0]), np.array([0.0, -12.0, 0.0])
    wronskian, count = shooting._wronskian, shooting.sturm_count
    walks, batches = [], []

    def walked(*args):
        walks.append(args[2])
        return wronskian(*args)

    def counted(*args, **kwargs):
        batches.append(len(args[1]))
        return count(*args, **kwargs)

    monkeypatch.setattr(shooting, "_wronskian", walked)
    monkeypatch.setattr(shooting, "sturm_count", counted)
    for k in range(3):
        walks.clear()
        mu = linear_bound_state_energy(edges, u, k, U)
        unseeded = len(walks)
        for guess in (mu, mu * (1.0 - 1e-9), mu * (1.0 + 1e-12)):
            walks.clear()
            batches.clear()
            got = linear_bound_state_energy(edges, u, k, U, guess)
            assert got == mu and len(batches) == 1, (k, guess)
            assert len(walks) <= 5 < unseeded, (k, guess)
    # a deep well resolves E only to 8-64 of its floats (the spacing of
    # E - U_mid): the Illinois steps sit on that grid and still close the
    # bracket in a few walks
    edges, u = np.array([-8.0, -0.7, 0.7, 8.0]), np.array([0.0, -5.0e4, 0.0])
    seeded = []
    for k in range(133, 141):
        mu = linear_bound_state_energy(edges, u, k, U)
        for guess in (mu, mu * (1.0 - 1e-9), mu * (1.0 + 1e-12)):
            walks.clear()
            batches.clear()
            assert linear_bound_state_energy(edges, u, k, U, guess) == mu
            seeded.append((len(batches), len(walks)))
    assert all(n == 1 for n, _ in seeded) and sum(w for _, w in seeded) <= 5 * 24


def test_scalar_wronskian_has_the_sign_of_the_sturm_count():
    # D of the shots from both walls, met at the lowest region's left edge,
    # is the Wronskian of the batched walk's end states and has the sign
    # (-1)^N of the one-sided count; on flat boxes the ladder rungs
    # min(U) + 2^j unit land on the levels
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
        counts = sturm_count(widths, SCALE * (es[:, None] - u))
        for e, count in zip(es.tolist(), counts):
            d = _wronskian(sides, SCALE, e)
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
        assert sturm_count(widths, coeffs)[0] == sturm_count(thin_widths,
                                                             thin)[0] == 8


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
# sampled shot must match its reference to 1e-12 of max |psi|


def _ref_march(widths, coeffs):
    psi, dpsi = np.zeros(coeffs.shape[0]), np.ones(coeffs.shape[0])
    for j, width in enumerate(widths):
        psi, dpsi = _renormalized(*_step(psi, dpsi, coeffs[:, j], width))
    return psi


def _ref_sturm(widths, coeffs, final_crossing):
    psi, dpsi = np.zeros(coeffs.shape[0]), np.ones(coeffs.shape[0])
    total = np.zeros(coeffs.shape[0], dtype=int)
    for j, d in enumerate(widths):
        w = coeffs[:, j]
        end_psi, end_dpsi = _step(psi, dpsi, w, d)
        osc = w > 0
        k = np.sqrt(np.where(osc, w, 1.0))
        phi = np.arctan2(dpsi / k, psi)
        m_lo = np.ceil((-phi - np.pi / 2) / np.pi + 1e-12)
        m_hi = np.floor((k * d - phi - np.pi / 2) / np.pi - 1e-12)
        waves = np.maximum(0.0, m_hi - m_lo + 1.0).astype(int)
        crossing = np.sign(end_psi) * np.sign(psi) < 0
        if j == len(widths) - 1 and not final_crossing:
            crossing[:] = False
        total += np.where(osc, waves, crossing)
        psi, dpsi = _renormalized(end_psi, end_dpsi)
    return total


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
        for final in (True, False):
            assert np.array_equal(sturm_count(widths, coeffs, final),
                                  _ref_sturm(widths, coeffs, final))
        edges = np.concatenate([[-1.0], -1.0 + np.cumsum(widths)])
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
