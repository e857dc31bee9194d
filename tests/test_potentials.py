import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavekit import modified_nr, modified_rel, potentials, spin_half
from wavekit.errors import (ConfigurationError, DomainError,
                            InvalidScenarioError, SingularRegionError)
from wavekit.numgrid import Grid, WaveField
from wavekit.potentials import (E_EQUALS_2V, E_EQUALS_V, V_EQUALS_MINUS_E0,
                                PotentialSpec, evaluate, find_singular_set)
from wavekit.units import UnitSystem


WEIGHT_GRID, WEIGHT_UNITS = Grid.line(0.0, 1.0, 64), UnitSystem(c=2.0)
ZERO = WaveField(np.zeros(64), WEIGHT_GRID)
#: V = -E0 on the middle third; and a region narrower than the spacing
#: 1/63, between two grid points, that no sample sees
SAMPLED_AT_MINUS_E0 = PotentialSpec.piecewise_constant([1 / 3, 2 / 3],
                                                       [0.0, -4.0, 0.0])
NARROW_BELOW_MINUS_E0 = PotentialSpec.piecewise_constant([0.501, 0.502],
                                                         [0.0, -8.0, 0.0])
WEIGHTED_SOLVES = {
    "solve_rel_stationary": lambda V: modified_rel.solve_rel_stationary(
        WEIGHT_GRID, V, (4.5, 40.0), WEIGHT_UNITS),
    "propagate_rel_timedep": lambda V: modified_rel.propagate_rel_timedep(
        ZERO, ZERO, V, 1e-6, 1, WEIGHT_UNITS),
    "solve_spin_half_stationary": lambda V: spin_half.solve_spin_half_stationary(
        WEIGHT_GRID, V, WEIGHT_UNITS),
    "solve_massless": lambda V: spin_half.solve_massless(
        WEIGHT_GRID, V, WEIGHT_UNITS),
    "propagate_massless": lambda V: spin_half.propagate_massless(
        spin_half.SpinorField(ZERO.values, ZERO.values, WEIGHT_GRID), V, 1e-6,
        1, WEIGHT_UNITS),
}


@pytest.mark.parametrize("V, solve", [
    *((SAMPLED_AT_MINUS_E0, name) for name in WEIGHTED_SOLVES),
    (NARROW_BELOW_MINUS_E0, "solve_rel_stationary"),
])
def test_every_weighted_solver_refuses_v_at_or_below_minus_e0_alike(V, solve):
    # one check (potentials.check_weight) and one message for the weight
    # 1 + V/E0 of the relativistic and spin-1/2 equations
    if V is NARROW_BELOW_MINUS_E0:  # only the region levels hold it
        potentials.check_weight(evaluate(V, WEIGHT_GRID.x), WEIGHT_UNITS.E0)
    with pytest.raises(InvalidScenarioError) as info:
        WEIGHTED_SOLVES[solve](V)
    assert str(info.value) == \
        "potential must satisfy V > -E0 everywhere (1 + V/E0 > 0)"


def test_square_well_profile():
    spec = PotentialSpec.square_well(10.0, 1.0)
    x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    np.testing.assert_allclose(evaluate(spec, x), [0, -10, -10, -10, 0])


def test_step_and_barrier_profiles():
    step = PotentialSpec.step(3.0, 0.0)
    np.testing.assert_allclose(evaluate(step, np.array([-1.0, 1.0])), [0, 3])
    barrier = PotentialSpec.barrier(5.0, -0.5, 0.5)
    np.testing.assert_allclose(evaluate(barrier, np.array([-1.0, 0.0, 1.0])),
                               [0, 5, 0])


def test_harmonic_and_coulomb_values():
    harm = PotentialSpec.harmonic(2.0)
    assert evaluate(harm, np.array([3.0]))[0] == pytest.approx(0.5 * 4.0 * 9.0)
    cou = PotentialSpec.coulomb(1.0)
    assert evaluate(cou, np.array([2.0]))[0] == pytest.approx(-0.5)
    with pytest.raises(DomainError):
        evaluate(cou, np.array([0.0]))


def test_piecewise_constant_validation():
    with pytest.raises(ConfigurationError):
        PotentialSpec.piecewise_constant([0.0, 1.0], [1.0])
    spec = PotentialSpec.piecewise_constant([0.0], [1.0, -1.0])
    np.testing.assert_allclose(evaluate(spec, np.array([-0.5, 0.5])), [1, -1])
    assert spec.is_piecewise_constant


@pytest.mark.parametrize("make", [
    lambda: PotentialSpec.piecewise_constant([1.0, -1.0], [0.0, -5.0, 0.0]),
    lambda: PotentialSpec.piecewise_constant([0.0, 0.0], [0.0, -5.0, 0.0]),
    lambda: PotentialSpec.piecewise_constant(["a"], [0.0, 1.0]),
    lambda: PotentialSpec.tabulated([0.0, 2.0, 1.0], [0.0, 1.0, 2.0]),
    lambda: PotentialSpec.barrier(5.0, 1.0, -1.0),
])
def test_unsorted_positions_are_rejected(make):
    with pytest.raises(ConfigurationError):
        make()


def test_list_fields_are_stored_as_tuples():
    # a spec built from lists, as a config block builds it, keeps its values
    # when the caller's lists change
    fields = {"breakpoints": [-1.0, 1.0], "values": [0.0, -4.0, 0.0],
              "sample_x": [0.0, 1.0], "sample_v": [2.0, 3.0]}
    pieces = PotentialSpec("piecewise_constant", breakpoints=fields["breakpoints"],
                           values=fields["values"])
    table = PotentialSpec("tabulated", sample_x=fields["sample_x"],
                          sample_v=fields["sample_v"])
    for seq in fields.values():
        seq[0] = 9.0
    assert (pieces.breakpoints, pieces.values) == ((-1.0, 1.0), (0.0, -4.0, 0.0))
    assert (table.sample_x, table.sample_v) == ((0.0, 1.0), (2.0, 3.0))
    assert evaluate(pieces, np.array([0.0]))[0] == -4.0


def test_tabulated_interpolates():
    x = np.linspace(0.0, 1.0, 11)
    spec = PotentialSpec.tabulated(x, x**2)
    assert evaluate(spec, np.array([0.55]))[0] == pytest.approx(0.305, abs=1e-12)


def test_square_well_is_piecewise_constant_free_is_too():
    assert PotentialSpec.square_well(1.0, 1.0).is_piecewise_constant
    assert PotentialSpec.free().is_piecewise_constant
    assert not PotentialSpec.harmonic(1.0).is_piecewise_constant


def test_singular_set_harmonic_turning_points():
    # E = V at x = +-sqrt(2E/(m omega^2)); E=1, omega=1 -> +-sqrt(2)
    g = Grid.line(-6.0, 6.0, 400)
    s = find_singular_set(PotentialSpec.harmonic(1.0), 1.0, E_EQUALS_V, g)
    assert s.kind == E_EQUALS_V
    np.testing.assert_allclose(sorted(s.locations),
                               [-np.sqrt(2.0), np.sqrt(2.0)], atol=1e-9)


def test_singular_set_crossing_e_equals_2v():
    g = Grid.line(-6.0, 6.0, 400)
    s = find_singular_set(PotentialSpec.harmonic(1.0), 1.0, E_EQUALS_2V, g)
    np.testing.assert_allclose(sorted(s.locations), [-1.0, 1.0], atol=1e-9)


def test_singular_set_empty_for_free():
    g = Grid.line(-1.0, 1.0, 64)
    s = find_singular_set(PotentialSpec.free(), 1.0, E_EQUALS_V, g)
    assert s.locations == ()


def test_singular_set_skips_jump_discontinuities():
    # E - V changes sign across the well edge but never vanishes there
    g = Grid.line(-4.0, 4.0, 400)
    s = find_singular_set(PotentialSpec.square_well(10.0, 1.0), -5.0,
                          E_EQUALS_V, g)
    assert s.locations == ()


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=-20.0, max_value=-0.5),
       st.floats(min_value=1.0, max_value=40.0))
def test_singular_set_piecewise_constant_never_tangent(e, depth):
    # on a piecewise-constant profile E=V can only happen on a whole region,
    # so away from the region values the singular set is empty
    if abs(e + depth) < 1e-6 or abs(e) < 1e-6:
        return
    g = Grid.line(-5.0, 5.0, 256)
    s = find_singular_set(PotentialSpec.square_well(depth, 1.0), e,
                          E_EQUALS_V, g)
    assert s.locations == ()


def test_singular_set_proximity_is_distance_to_grid():
    g = Grid.line(-6.0, 6.0, 400)
    s = find_singular_set(PotentialSpec.harmonic(1.0), 1.0, E_EQUALS_V, g)
    d = min(np.min(np.abs(g.x - loc)) for loc in s.locations)
    assert s.proximity == pytest.approx(d)


# the condition as a multiple of the region value v: E = v, E = 2v, E = -v
SINGULAR_AT = [(E_EQUALS_V, 1.0), (E_EQUALS_2V, 2.0), (V_EQUALS_MINUS_E0, -1.0)]


@pytest.fixture
def evaluate_calls(monkeypatch):
    calls = []

    def counting(spec, x):
        calls.append(np.size(x))
        return evaluate(spec, x)

    monkeypatch.setattr(potentials, "evaluate", counting)
    return calls


@pytest.mark.parametrize("kind, factor", SINGULAR_AT)
@pytest.mark.parametrize("spec", [PotentialSpec.square_well(10.0, 1.0),
                                  PotentialSpec.step(-10.0, 0.5),
                                  PotentialSpec.piecewise_constant(
                                      [-2.0, 0.3, 1.0], [0.0, -10.0, -4.0, 0.0])])
def test_step_profile_jumps_are_rejected_without_bisection(
        spec, kind, factor, evaluate_calls):
    # E halfway between the region values -10 and 0: the condition changes
    # sign at every jump to or from -10 but is never near zero, so the
    # scan's residual check rejects every jump. The solvers' E = V check
    # reads the region levels and end values in Python floats and passes
    # E with no call to evaluate, so it neither scans nor bisects
    g = Grid.line(-4.0, 4.0, 400)
    s = find_singular_set(spec, factor * -5.0, kind, g)
    assert (s.locations, s.proximity) == ((), float("inf"))
    if kind == E_EQUALS_V:
        evaluate_calls.clear()
        assert modified_nr._singular_check(spec, g)(-5.0, "iterate") is None
        assert evaluate_calls == []


@pytest.mark.parametrize("kind, factor", SINGULAR_AT)
def test_step_profile_exact_zeros_are_every_scan_point_of_the_region(
        kind, factor, evaluate_calls):
    # E at a region value: the condition vanishes on the whole region, and
    # each scan point there is reported
    g = Grid.line(-4.0, 4.0, 400)
    spec = PotentialSpec.square_well(10.0, 1.0)
    xs = np.linspace(-4.0, 4.0, 8 * 400)
    for v in (-10.0, 0.0):
        s = find_singular_set(spec, factor * v, kind, g)
        on_region = xs[evaluate(spec, xs) == v]
        assert s.locations == tuple(sorted(round(float(x), 14)
                                           for x in on_region))


@pytest.mark.parametrize("kind, factor", SINGULAR_AT)
def test_step_profile_near_singular_energy_still_bisects_the_jump(
        kind, factor, evaluate_calls):
    # |E - v| < 1e-9 (scaled by the kind): the residual check accepts a
    # point at the jump, so the jump is bisected and reported
    g = Grid.line(-4.0, 4.0, 400)
    spec = PotentialSpec.square_well(10.0, 1.0)
    s = find_singular_set(spec, factor * (-10.0 + 1e-10), kind, g)
    assert s.locations
    assert all(abs(abs(x) - 1.0) < 1e-11 for x in s.locations)
    assert len(evaluate_calls) > 2


def _full_scan_singular_set(spec, E, kind, grid):
    """Reference: the singular set from the dense scan, written out. Every
    sign change is bisected and kept when the residual check passes; exact
    zeros of the scan are kept."""
    f = potentials._condition(spec, E, kind)
    xs = np.linspace(grid.x_min, grid.x_max, 8 * grid.n_points)
    fs = np.asarray(f(xs), dtype=float)
    tol_val = 1e-9 * max(1.0, abs(E))
    roots = [float(x) for x in xs[np.abs(fs) <= 1e-15 * max(1.0, abs(E))]]
    sign = np.sign(fs)
    for i in np.flatnonzero((sign[:-1] * sign[1:]) < 0):
        lo, hi, flo = xs[i], xs[i + 1], fs[i]
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            fm = f(mid)
            if fm == 0.0:
                lo = hi = mid
                break
            if flo * fm < 0:
                hi = mid
            else:
                lo, flo = mid, fm
        x_star = 0.5 * (lo + hi)
        if abs(f(x_star)) <= tol_val:
            roots.append(float(x_star))
    merged = []
    for r in sorted(set(round(r, 14) for r in roots)):
        if not merged or r - merged[-1] > 1e-11:
            merged.append(r)
    prox = (float(min(np.min(np.abs(grid.x - r)) for r in merged)) if merged
            else float("inf"))
    return potentials.SingularSet(kind, tuple(merged), prox)


@pytest.mark.parametrize("kind, factor", SINGULAR_AT)
def test_singular_set_of_random_piecewise_profiles_equals_the_full_scan(
        kind, factor):
    # E sits at a random level's singular energy, offset by none, by a
    # fraction of the 1e-9 residual tolerance on either side of it, or by
    # far more; breakpoints fall inside and outside the domain, and on
    # its ends, where the end node takes the outer level. The solvers'
    # E = V check, which scans only near a level, raises exactly when the
    # full scan finds a point
    rng = np.random.default_rng(sum(map(ord, kind)))
    g = Grid.line(-2.0, 2.0, 48)
    for _ in range(80):
        breaks = rng.uniform(-3.0, 3.0, int(rng.integers(0, 5)))
        if rng.uniform() < 0.4:
            breaks = np.append(breaks, rng.choice([g.x_min, g.x_max]))
        breaks = np.unique(breaks)
        values = rng.choice([-10.0, -4.0, 0.0, 3.5, 20.0], breaks.size + 1)
        spec = PotentialSpec.piecewise_constant(breaks, values)
        level = (evaluate(spec, rng.choice([g.x_min, g.x_max]))
                 if rng.uniform() < 0.4 else rng.choice(values))
        base = factor * float(level)
        offset = rng.choice([0.0, 0.5, -0.5, 0.999, 1.001, -2.0, 3.0, 1e6])
        E = base + offset * 1e-9 * max(1.0, abs(base))
        got = find_singular_set(spec, E, kind, g)
        want = _full_scan_singular_set(spec, E, kind, g)
        assert (got.locations, got.proximity) == (want.locations,
                                                  want.proximity), (spec, E)
        if kind == E_EQUALS_V:
            check = modified_nr._singular_check(spec, g)
            if want.empty:
                check(E, "iterate")
            else:
                with pytest.raises(SingularRegionError):
                    check(E, "iterate")


PIECEWISE_VARIANTS = ("free", "square_well", "step", "barrier",
                      "piecewise_constant")
DOMAINS = (Grid.line(-2.0, 2.0, 16), Grid.line(-1.3, 2.7, 16))


def _random_piecewise_spec(rng, variant, grid):
    """A seeded profile of ``variant`` whose jumps lie on either domain end,
    a float inside or outside it, or anywhere around the domain."""
    def jump():
        if rng.uniform() < 0.6:
            end = float(rng.choice([grid.x_min, grid.x_max]))
            return float(rng.choice([end, np.nextafter(end, -np.inf),
                                     np.nextafter(end, np.inf)]))
        return float(rng.uniform(grid.x_min - 1.0, grid.x_max + 1.0))

    def level():
        return float(rng.choice([-10.0, -4.0, -0.0, 0.0, 3.5, 20.0]))

    def two_jumps():
        a, b = jump(), jump()
        return (a, b) if a < b else two_jumps()

    if variant == "free":
        return PotentialSpec.free()
    if variant == "square_well":
        a, b = two_jumps()
        if rng.uniform() < 0.5:  # one edge placed, the other off by rounding
            h = float(rng.uniform(0.1, 2.0))
            return PotentialSpec.square_well(float(rng.uniform(0.5, 20.0)), h,
                                              a + h)
        return PotentialSpec.square_well(float(rng.uniform(0.5, 20.0)),
                                          0.5 * (b - a), 0.5 * (a + b))
    if variant == "step":
        return PotentialSpec.step(level(), jump())
    if variant == "barrier":
        return PotentialSpec.barrier(level(), *two_jumps())
    breaks = sorted({jump() for _ in range(int(rng.integers(0, 5)))})
    return PotentialSpec.piecewise_constant(breaks,
                                            [level() for _ in range(len(breaks) + 1)])


def _region_edges(spec, x_min, x_max):
    """Reference: x_min, the jumps strictly inside (x_min, x_max) in the
    order the spec lists them, and x_max, as a NumPy array."""
    if spec.variant == "square_well":
        breaks = [spec.center - spec.half_width, spec.center + spec.half_width]
    elif spec.variant == "step":
        breaks = [spec.edge]
    elif spec.variant == "barrier":
        breaks = [spec.left, spec.right]
    else:
        breaks = list(spec.breakpoints)
    return np.asarray([x_min] + [b for b in breaks if x_min < b < x_max] + [x_max])


@pytest.mark.parametrize("variant", PIECEWISE_VARIANTS)
def test_region_table_levels_are_evaluate_at_the_midpoints(variant):
    # bit for bit, -0.0 included, in Python floats; the shooting arrays
    # are the same table
    from wavekit.shooting import piecewise_regions
    rng = np.random.default_rng(sum(map(ord, variant)))
    for grid in DOMAINS:
        for _ in range(40):
            spec = _random_piecewise_spec(rng, variant, grid)
            edges, levels = potentials.region_table(spec, grid.x_min, grid.x_max)
            want = _region_edges(spec, grid.x_min, grid.x_max)
            mids = evaluate(spec, 0.5 * (want[:-1] + want[1:]))
            assert all(type(x) is float for x in edges + levels), spec
            assert [x.hex() for x in edges] == [float(x).hex() for x in want]
            assert [v.hex() for v in levels] == [float(v).hex() for v in mids]
            arrays = piecewise_regions(spec, grid.x_min, grid.x_max)
            np.testing.assert_array_equal(arrays[0], edges)
            np.testing.assert_array_equal(arrays[1], levels)


def _numpy_shortcut_singular_set(spec, E, kind, grid):
    """Reference: the singular set with the region levels read by NumPy,
    the condition at the sorted edges' midpoints and at the two domain
    ends in one call, before the full scan."""
    f = potentials._condition(spec, E, kind)
    if spec.is_piecewise_constant:
        edges = np.sort(_region_edges(spec, grid.x_min, grid.x_max))
        levels = f(np.concatenate([0.5 * (edges[:-1] + edges[1:]),
                                   edges[[0, -1]]]))
        if np.all(np.abs(levels) > 1e-9 * max(1.0, abs(E))):
            return potentials.SingularSet(kind, (), float("inf"))
    return _full_scan_singular_set(spec, E, kind, grid)


@pytest.mark.parametrize("variant", PIECEWISE_VARIANTS)
def test_singular_set_equals_the_numpy_level_reference(variant):
    # E on each level the profile takes at a region midpoint or a domain
    # end (for each kind), within the 1e-9 residual tolerance of it, and
    # just past it; jumps on, next to and off the domain ends
    rng = np.random.default_rng(sum(map(ord, variant)) + 1)
    for grid in DOMAINS:
        for _ in range(20):
            spec = _random_piecewise_spec(rng, variant, grid)
            edges = _region_edges(spec, grid.x_min, grid.x_max)
            points = np.append(0.5 * (edges[:-1] + edges[1:]), edges[[0, -1]])
            for v in set(evaluate(spec, points).tolist()):
                for kind, factor in SINGULAR_AT:
                    base = factor * v
                    for offset in (0.0, 0.5, -0.999, 0.999, -1.001, 1.001):
                        E = base + offset * 1e-9 * max(1.0, abs(base))
                        assert find_singular_set(spec, E, kind, grid) == \
                            _numpy_shortcut_singular_set(spec, E, kind, grid), \
                            (spec, E, kind)
