import math

import numpy as np
import pytest

from wavekit.errors import UsageError
from wavekit.shooting import (_step, count_shot_nodes,
                              linear_bound_state_energy, march_endpoint,
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


def test_linear_eigenvalue_rejects_non_finite_profile():
    edges = np.array([0.0, 1.0, 2.0])
    with pytest.raises(UsageError):
        linear_bound_state_energy(edges, np.array([0.0, np.nan]), 0, U)
