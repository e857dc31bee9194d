import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wavekit
from wavekit import _lapack, spin_half
from wavekit.errors import ConfigurationError, NonConvergenceError
from wavekit.numgrid import (BandedOperator, Grid, WaveField, build_laplacian,
                             count_nodes, eigenvalue, inner_product,
                             lowest_eigenpairs, matvec)
from wavekit.potentials import PotentialSpec
from wavekit.units import UnitSystem


def test_grid_validation_collects_all_failures():
    with pytest.raises(ConfigurationError) as exc:
        Grid("volume", 1.0, 0.0, 4)
    msg = str(exc.value)
    assert "kind" in msg and "n_points" in msg and "x_max" in msg


def test_grid_spacing_conventions():
    g = Grid.line(0.0, 1.0, 11)
    assert g.h == pytest.approx(0.1)
    assert g.x[0] == 0.0 and g.x[-1] == 1.0
    gp = Grid.line(0.0, 1.0, 10, boundary="periodic")
    assert gp.h == pytest.approx(0.1)
    # the identified endpoint is excluded
    assert gp.x[-1] == pytest.approx(0.9)
    assert np.sum(gp.trapezoid_weights) == pytest.approx(1.0)


def test_grid_hash_is_the_dataclass_hash_of_its_fields():
    g = Grid.line(-1.0, 2.0, 16, boundary="periodic")
    assert hash(g) == hash(("line", -1.0, 2.0, 16, "periodic"))
    twin = Grid.line(-1.0, 2.0, 16, boundary="periodic")
    assert twin == g and hash(twin) == hash(g)
    assert Grid.line(-1.0, 2.0, 17, boundary="periodic") != g


def test_radial_grid_excludes_origin():
    g = Grid.radial(10.0, 100)
    assert g.x_min == pytest.approx(0.1)
    assert g.x[0] > 0.0
    with pytest.raises(ConfigurationError):
        Grid("radial", 0.0, 1.0, 16)


def test_laplacian_constant_field_periodic_is_zero():
    g = Grid.line(0.0, 2.0, 32, boundary="periodic")
    L = build_laplacian(g)
    out = matvec(L.diagonals, np.ones(g.n_points))
    assert np.max(np.abs(out)) < 1e-12


def test_laplacian_convergence_order():
    # eigenvalue error ratio under grid halving: 4 for the second-order
    # stencil; coarse grids keep the fine-grid error well above the
    # eigensolver noise floor
    errs = []
    for n in (64, 128):
        g = Grid.line(0.0, np.pi, n)
        vals, _ = lowest_eigenpairs(build_laplacian(g), -0.5, np.zeros(n), 1)
        errs.append(abs(vals[0] - 0.5))
    ratio = errs[0] / errs[1]
    assert ratio == pytest.approx(4.0, rel=0.25)


def _applied(L, values):
    """L applied to a field on its grid, as a field."""
    return WaveField(matvec(L.diagonals, values), L.grid)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_laplacian_symmetric_dirichlet(seed):
    rng = np.random.default_rng(seed)
    g = Grid.line(-1.0, 1.0, 24)
    L = build_laplacian(g)
    a = rng.normal(size=g.n_points) + 1j * rng.normal(size=g.n_points)
    b = rng.normal(size=g.n_points) + 1j * rng.normal(size=g.n_points)
    a[0] = a[-1] = b[0] = b[-1] = 0.0  # fields satisfy the wall condition
    fa, fb = WaveField(a, g), WaveField(b, g)
    lhs = inner_product(_applied(L, a), fb)
    rhs = inner_product(fa, _applied(L, b))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_laplacian_symmetric_periodic(seed):
    rng = np.random.default_rng(seed)
    g = Grid.line(0.0, 2.0, 24, boundary="periodic")
    L = build_laplacian(g)
    a = rng.normal(size=g.n_points) + 1j * rng.normal(size=g.n_points)
    b = rng.normal(size=g.n_points) + 1j * rng.normal(size=g.n_points)
    fa, fb = WaveField(a, g), WaveField(b, g)
    lhs = inner_product(_applied(L, a), fb)
    rhs = inner_product(fa, _applied(L, b))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_radial_laplacian_has_no_zeroed_end_row():
    # the walls lie one spacing outside the radial grid, the left one at
    # the origin, so every node is an unknown with the full stencil
    g = Grid.radial(10.0, 64)
    dense = build_laplacian(g).to_dense()
    inv = 1.0 / g.h**2
    assert np.array_equal(dense, -2.0 * inv * np.eye(64)
                          + inv * (np.eye(64, k=1) + np.eye(64, k=-1)))


def test_count_nodes_on_sine_modes():
    g = Grid.line(0.0, np.pi, 200)
    for n in range(1, 6):
        assert count_nodes(np.sin(n * g.x)) == n - 1


def test_count_nodes_ignores_noise_floor():
    g = Grid.line(0.0, np.pi, 200)
    v = np.sin(g.x) + 1e-12 * np.cos(40 * g.x)
    assert count_nodes(v) == 0


def test_count_nodes_keeps_a_sample_well_above_the_floor():
    # 1e-5 of the peak is far above the 1e-8 floor: its sign counts twice
    assert count_nodes(np.array([1.0, -1e-5, 1.0])) == 2


def test_lowest_eigenpairs_box_energies():
    n = 512
    g = Grid.line(0.0, np.pi, n)
    L = build_laplacian(g)
    vals, states = lowest_eigenpairs(L, -0.5, np.zeros(n), 4)
    for j, e in enumerate(vals, start=1):
        assert e == pytest.approx(j**2 / 2.0, rel=1e-4)
    # trapezoid-normalized, walls pinned
    w = g.trapezoid_weights
    for j in range(4):
        assert np.sum(w * states[:, j] ** 2) == pytest.approx(1.0)
        assert states[0, j] == 0.0 and states[-1, j] == 0.0
        assert count_nodes(states[:, j]) == j


GRIDS = {"line": lambda n: Grid.line(-3.0, 3.0, n),
         "radial": lambda n: Grid.radial(6.0, n),
         "periodic": lambda n: Grid.line(-3.0, 3.0, n, "periodic")}


def _five_point(grid):
    """Diagonals of the symmetric five-point stencil (-1, 16, -30, 16,
    -1)/12h**2 on the grid: offsets -2 .. 2 and, on a periodic grid, the
    wraps +-(n - 1) and +-(n - 2) of one and two entries. It widens the
    bands past those of the three-point Laplacian."""
    n, inv = grid.n_points, 1.0 / grid.h**2
    coef = (-30.0 / 12.0 * inv, 16.0 / 12.0 * inv, -1.0 / 12.0 * inv)
    diags = {k: np.full(n - abs(k), coef[abs(k)]) for k in range(-2, 3)}
    if grid.boundary == "periodic":
        for d in (1, 2):
            diags[n - d] = diags[d - n] = np.full(d, coef[d])
    return diags


def _stencil(grid, span):
    """The grid's Laplacian (span 2, three points) or the five-point
    operator of :func:`_five_point` (span 4)."""
    if span == 2:
        return build_laplacian(grid)
    return BandedOperator(grid, _five_point(grid))


@pytest.mark.parametrize("span", [2, 4])
@pytest.mark.parametrize("kind", ["line", "radial", "periodic"])
def test_dirichlet_eigenvalue_has_the_bits_of_the_eigenpair_solve(kind, span):
    # the banded solve without vectors bisects the same tridiagonal form
    # (Jacobi bands for span 2, pentadiagonal ones for span 4, twice as
    # wide on periodic grids in ring-fold order), and its energies are
    # those of the dense operator on the unknowns
    rng = np.random.default_rng([span, len(kind)])
    for n in rng.integers(8, 400, size=25):
        g = GRIDS[kind](int(n))
        lap = _stencil(g, span)
        factor = -rng.uniform(0.1, 2.0)
        v = rng.normal(scale=rng.uniform(0.1, 50.0), size=g.n_points)
        index = int(rng.integers(0, g.n_points - 2))
        vals, _ = lowest_eigenpairs(lap, factor, v, 1, first=index)
        assert eigenvalue(lap, factor, v, index) == vals[0]
        u = lap.unknowns
        dense = (factor * lap.to_dense() + np.diag(v))[np.ix_(u, u)]
        scale = np.max(np.sum(np.abs(dense), axis=1))
        assert abs(vals[0] - np.linalg.eigvalsh(dense)[index]) <= 1e-12 * scale
    with pytest.raises(ConfigurationError):
        eigenvalue(lap, factor, v, g.n_points)


#: Solves banded problems with ``numgrid.band_eigh`` and
#: ``numgrid.band_solve`` before anything imports ``scipy.linalg``; then
#: imports the package in full and compares each result with
#: ``scipy.linalg.eig_banded`` or ``solve_banded``, bit for bit. The bands:
#: random symmetric ones of half-bandwidth 1, 2, 3 and 5, the Laplacian
#: bands with a potential of every boundary (Dirichlet line and radial
#: grids, periodic ring folds) and the folded spin-1/2 bands on both
#: boundaries. Prints the number of comparisons.
SCIPY_BITS = """\
import sys
import numpy as np
from wavekit import numgrid, spin_half
from wavekit.units import UnitSystem

rng = np.random.default_rng(31)
lower_bands, general_bands = [], []
for bw in (1, 2, 3, 5):
    for n in (8, 37, 200):
        for _ in range(3):
            scale = 10.0 ** int(rng.integers(-8, 9))
            lower_bands.append(scale * rng.standard_normal((bw + 1, n)))
            if bw > 1:  # SciPy solves bw = 1 with dgtsv, not dgbsv
                general_bands.append(scale * rng.standard_normal((2 * bw + 1, n)))
for n in (8, 9, 64, 401):
    for grid in (numgrid.Grid.line(-3.0, 3.0, n), numgrid.Grid.radial(6.0, n),
                 numgrid.Grid.line(-3.0, 3.0, n, "periodic")):
        lap = numgrid.build_laplacian(grid)
        band = -0.5 * lap.lower_band
        band[0] += rng.uniform(-5.0, 5.0, n)[lap.unknowns]
        lower_bands.append(band)
    for boundary in ("dirichlet", "periodic"):
        grid = numgrid.Grid.line(-3.0, 3.0, n, boundary)
        for massless in (False, True):
            op = spin_half.real_dirac_operator(grid, UnitSystem(c=10.0), 0.7,
                                               massless)
            s = 1.0 / np.sqrt(np.tile(1.0 + rng.uniform(0.0, 1.0, n), 2))
            band = spin_half._folded_band(op, s, boundary)[1]
            bw = band.shape[0] // 2
            lower_bands.append(band[bw:])
            shifted = band.copy()
            shifted[bw] -= rng.uniform(-1.0, 1.0)
            general_bands.append(shifted)
eigs = []
for band in lower_bands:
    m = band.shape[1]
    for first, last in ((0, 0), (m // 2 - 1, m // 2 + 1), (m - 3, m - 1)):
        for only in (True, False):
            eigs.append((band, first, last, only,
                         numgrid.band_eigh(band, first, last, only)))
solves = [(band, rhs, numgrid.band_solve(band, rhs)) for band in general_bands
          for rhs in [rng.standard_normal((band.shape[1], 3))]]
package = [m for m in sys.modules
           if m.split(".")[:2] in (["scipy", "linalg"], ["scipy", "_lib"])]
assert package == [], package

import scipy.linalg
import scipy.linalg.lapack

assert scipy.linalg._flapack is sys.modules["scipy.linalg._flapack"]
assert scipy.linalg.lapack.dsbevx is scipy.linalg._flapack.dsbevx

def same(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))

for band, first, last, only, got in eigs:
    want = scipy.linalg.eig_banded(band, lower=True, eigvals_only=only,
                                   select="i", select_range=(first, last))
    pairs = [(got, want)] if only else list(zip(got, want))
    assert all(same(a, b) for a, b in pairs), (band.shape, first, last, only)
for band, rhs, got in solves:
    bw = band.shape[0] // 2
    assert same(got, scipy.linalg.solve_banded((bw, bw), band, rhs)), band.shape
print(len(eigs) + len(solves))
"""


def test_band_helpers_have_the_bits_of_scipy_and_leave_scipy_linalg_whole():
    src = str(Path(wavekit.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", SCIPY_BITS], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    # 64 symmetric bands, each in three windows with and without vectors,
    # and 43 general bands, each solved once
    assert json.loads(out.stdout) == 6 * (36 + 12 + 16) + 27 + 16


def _reporting(routine, info):
    """``routine`` with its LAPACK ``info`` (the last output) replaced."""
    def call(*args, **kwargs):
        return (*routine(*args, **kwargs)[:-1], info)
    return call


def test_lapack_info_maps_to_typed_errors(monkeypatch):
    g = Grid.line(0.0, 1.0, 32)
    lap, v = build_laplacian(g), np.zeros(32)
    ring = Grid.line(0.0, 5.0, 48, boundary="periodic")
    units = UnitSystem(c=10.0)
    dsbevx, dgbsv = _lapack.dsbevx, _lapack.dgbsv
    monkeypatch.setattr(_lapack, "dsbevx", _reporting(dsbevx, 2))
    with pytest.raises(NonConvergenceError,
                       match=r"sbevx did not converge \(LAPACK info=2\)") as info:
        lowest_eigenpairs(lap, -0.5, v, 2)
    assert info.value.exit_code == 3
    # the spin-1/2 window solve ends in the same typed error
    with pytest.raises(NonConvergenceError, match="sbevx did not converge"):
        spin_half.solve_massless(ring, PotentialSpec.free(), units, n_states=2)
    monkeypatch.setattr(_lapack, "dsbevx", _reporting(dsbevx, -3))
    with pytest.raises(ValueError, match="argument 3 of internal sbevx"):
        eigenvalue(lap, -0.5, v, 0)
    monkeypatch.setattr(_lapack, "dsbevx", dsbevx)
    monkeypatch.setattr(_lapack, "dgbsv", _reporting(dgbsv, 5))
    with pytest.raises(NonConvergenceError, match="shifted band is exactly singular"):
        spin_half.solve_massless(ring, PotentialSpec.free(), units, n_states=2)


def _csr_product(diagonals, x):
    """Row i of M @ x as a CSR product forms it: from 0, add M[i, j] x[j]
    for the stored (nonzero) entries of row i in ascending column order."""
    entries = [[] for _ in range(len(x))]
    for k, row in diagonals.items():
        for t, a in enumerate(row):
            if a != 0.0:
                entries[t + max(-k, 0)].append((t + max(-k, 0) + k, a))
    out = np.zeros(x.shape, np.result_type(x, row))
    for i, row_entries in enumerate(entries):
        total = np.zeros(x.shape[1:], out.dtype)
        for j, a in sorted(row_entries):
            total = total + a * x[j]
        out[i] = total
    return out


def _random_diagonals(grid, span, rng):
    """The offsets of :func:`_stencil` with random coefficients, in a
    shuffled order (the product must not depend on it)."""
    diagonals = _stencil(grid, span).diagonals
    offsets = rng.permutation(list(diagonals))
    return {int(k): rng.standard_normal(len(diagonals[k])) for k in offsets}


def _dirac(grid, massless):
    return spin_half.real_dirac_operator(grid, UnitSystem(c=10.0),
                                         0.0 if massless else 0.7, massless)


@pytest.mark.parametrize("n", [8, 9, 37, 300])
@pytest.mark.parametrize("operator", [
    *((kind, span) for kind in ("dirichlet", "periodic", "radial")
      for span in (2, 4)),
    ("dirac", "massive"), ("dirac", "massless")],
    ids=lambda operator: "-".join(map(str, operator)))
@pytest.mark.parametrize("field", ["real", "complex", "block"])
def test_matvec_has_the_bits_of_the_csr_product(n, operator, field):
    rng = np.random.default_rng([n, len(operator[0]), len(field)])
    kind, variant = operator
    if kind == "radial":
        grid = Grid.radial(5.0, n)
    else:
        grid = Grid.line(-3.7, 5.1, n, boundary=kind if kind != "dirac" else
                         "periodic" if n % 2 else "dirichlet")
    if kind == "dirac":
        diagonals = _dirac(grid, variant == "massless")
    else:
        diagonals = _random_diagonals(grid, variant, rng)
    size = len(next(iter(diagonals.values()))) + abs(next(iter(diagonals)))
    shape = (size, 3) if field == "block" else (size,)

    def samples():  # a quarter of them signed zeros, which the sums must keep
        x = rng.standard_normal(shape)
        return np.where(rng.random(shape) < 0.25, np.copysign(0.0, x), x)

    x = samples()
    if field == "complex":
        x = x + 1j * samples()
    got, want = matvec(diagonals, x), _csr_product(diagonals, x)
    assert got.dtype == want.dtype
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_inner_product_sesquilinear():
    g = Grid.line(0.0, 1.0, 32)
    rng = np.random.default_rng(3)
    a = WaveField(rng.normal(size=32) + 1j * rng.normal(size=32), g)
    b = WaveField(rng.normal(size=32) + 1j * rng.normal(size=32), g)
    assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)))
    two_a = WaveField(2j * a.values, g)
    assert inner_product(two_a, b) == pytest.approx(-2j * inner_product(a, b))


def test_wavefield_norm_and_mismatch():
    g = Grid.line(0.0, 1.0, 16)
    f = WaveField(np.ones(16), g)
    assert f.norm() == pytest.approx(1.0)
    assert f.normalized().norm() == pytest.approx(1.0)
    from wavekit.errors import UsageError
    with pytest.raises(UsageError):
        WaveField(np.ones(8), g)
