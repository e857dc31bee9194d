"""Discretization primitives: uniform grids, the three-point Laplacian,
trapezoidal quadrature and banded eigensolves.

Conventions
-----------
* Grids are uniform; dirichlet/radial grids include both endpoints while
  periodic grids identify ``x_max`` with ``x_min`` and exclude it.
* ``dirichlet`` fields vanish at the two end nodes; the operator rows for
  the end nodes are zero.
* ``radial`` grids exclude the origin (x_min > 0) and carry the reduced
  function u(r) = r R(r); their walls lie one spacing off both ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (ConfigurationError, NonConvergenceError, UsageError,
                     in_float_range)

LINE = "line"
RADIAL = "radial"
DIRICHLET = "dirichlet"
PERIODIC = "periodic"
_NODE_FLOOR = 1e-8  # count_nodes: samples below it (relative) carry no sign


@dataclass(frozen=True)
class Grid:
    """Uniform 1D grid, either a line segment or a radial half-line piece."""

    kind: str
    x_min: float
    x_max: float
    n_points: int
    boundary: str = DIRICHLET

    def __post_init__(self):
        failures = []
        if self.kind not in (LINE, RADIAL):
            failures.append(f"unknown grid kind {self.kind!r}")
        if self.boundary not in (DIRICHLET, PERIODIC):
            failures.append(f"unknown boundary {self.boundary!r}")
        if self.n_points < 8:
            failures.append("n_points must be >= 8")
        if not self.x_max > self.x_min:
            failures.append("x_max must exceed x_min")
        elif not np.isfinite(self.x_max - self.x_min):
            failures.append("x_max - x_min must be a finite number")
        elif self.n_points >= 8:  # the stencils divide by h**2
            what = f"grid spacing h = {self.h!r}: h**2 or 1/h**2"
            try:
                h_sq = in_float_range(lambda: self.h**2, what)
                in_float_range(lambda: 1.0 / h_sq, what)
            except ConfigurationError as exc:
                failures.append(str(exc))
        if self.kind == RADIAL:
            if self.x_min <= 0.0:
                failures.append("radial grids require x_min > 0 (origin excluded)")
            if self.boundary != DIRICHLET:
                failures.append("radial grids are dirichlet only")
        if failures:
            raise ConfigurationError("invalid grid: " + "; ".join(failures), failures)
        # the dataclass hash of the same fields, formed once: the exact
        # fixed point's cache looks a grid up on every solve
        object.__setattr__(self, "_hash", hash((
            self.kind, self.x_min, self.x_max, self.n_points, self.boundary)))

    def __hash__(self):
        return self._hash

    @property
    def h(self) -> float:
        # periodic grids identify x_max with x_min and exclude it, so the
        # n_points nodes split the full circumference
        if self.boundary == PERIODIC:
            return (self.x_max - self.x_min) / self.n_points
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @cached_property
    def x(self) -> np.ndarray:
        if self.boundary == PERIODIC:
            return self.x_min + self.h * np.arange(self.n_points)
        return np.linspace(self.x_min, self.x_max, self.n_points)

    @cached_property
    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.n_points, self.h)
        if self.boundary != PERIODIC:
            w[0] = w[-1] = 0.5 * self.h
        return w

    @classmethod
    def line(cls, x_min, x_max, n_points, boundary=DIRICHLET) -> "Grid":
        return cls(LINE, x_min, x_max, n_points, boundary)

    @classmethod
    def radial(cls, r_max, n_points) -> "Grid":
        """Radial grid [h, r_max] with the first node one spacing off the origin."""
        h = r_max / n_points
        return cls(RADIAL, h, r_max, n_points, DIRICHLET)


@dataclass(frozen=True, eq=False)
class WaveField:
    """Complex amplitudes sampled on a grid."""

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=complex))
        if self.values.shape != (self.grid.n_points,):
            raise UsageError(
                f"field length {self.values.shape} does not match grid "
                f"({self.grid.n_points} points)"
            )

    def norm(self) -> float:
        return float(np.sqrt(inner_product(self, self).real))

    def normalized(self) -> "WaveField":
        n = self.norm()
        if n == 0.0:
            raise UsageError("cannot normalize the zero field")
        return WaveField(self.values / n, self.grid)


def matvec(diagonals: dict, x: np.ndarray) -> np.ndarray:
    """``M @ x`` for the operator M with these diagonals, ``x`` a vector or
    a block of columns: from zeros, the products of each diagonal are added
    in ascending offset order, so each row sums over ascending columns from
    0 as a CSR product does, with the same bits. A periodic wrap (at most
    two entries) is added to a vector entry by entry, in floats."""
    n = len(x)
    if x.ndim > 1:  # a block: each coefficient scales a row of it
        diagonals = {k: row[:, None] for k, row in diagonals.items()}
    offsets = sorted(diagonals)
    out = np.zeros(x.shape, np.result_type(x, diagonals[offsets[0]]))
    for k in offsets:
        row = diagonals[k]
        if len(row) <= 2 and x.ndim == 1:
            for i, a in enumerate(row.tolist(), max(-k, 0)):
                out[i] = out.item(i) + a * x.item(i + k)
        elif k >= 0:
            o = out[:n - k]
            o += row * x[k:]
        else:
            o = out[-k:]
            o += row * x[:n + k]
    return out


def dense_matrix(diagonals: dict) -> np.ndarray:
    """The dense array of the square operator with these diagonals."""
    k, row = next(iter(diagonals.items()))
    dense = np.zeros((len(row) + abs(k),) * 2, row.dtype)
    for k, row in diagonals.items():
        i = np.arange(len(row)) + max(-k, 0)
        dense[i, i + k] = row
    return dense


def general_band(diagonals: dict, order: np.ndarray) -> np.ndarray:
    """LAPACK general band storage, ``band[b + p - q, q] = M[order[p],
    order[q]]``, of the operator with these diagonals on the unknowns
    ``order``; b is the distance of its farthest nonzero entry."""
    k, row = next(iter(diagonals.items()))
    pos = np.full(len(row) + abs(k), -1)  # band position; -1 off the band
    pos[order] = np.arange(len(order))
    p, q, vals = (np.concatenate(a) for a in zip(*[
        (pos[t + max(-k, 0)], pos[t + max(k, 0)], row[t])
        for k, row in diagonals.items() for t in [np.flatnonzero(row)]]))
    keep = (p >= 0) & (q >= 0)  # entries between unknowns
    p, q, vals = p[keep], q[keep], vals[keep]
    b = int(np.max(np.abs(p - q), initial=0))
    band = np.zeros((2 * b + 1, len(order)), vals.dtype)
    band[b + p - q, q] = vals
    return band


@dataclass(frozen=True, eq=False)
class BandedOperator:
    """Real banded operator tied to a grid.

    ``diagonals`` maps offsets to coefficient rows; offset k holds the
    entries ``M[i, i+k]``, indexed by ``min(i, i+k)``. Periodic wrap terms
    appear as long offsets (+-(n-1), ...) with short rows. It is the one
    operator format (:func:`matvec`, :func:`general_band`).
    """

    grid: Grid
    diagonals: dict

    @cached_property
    def unknowns(self) -> np.ndarray:
        """The nodes an eigenproblem solves for, in band order: every node
        but the pinned ends of a Dirichlet line grid, visited in
        :func:`ring_fold_order`."""
        grid = self.grid
        lo = 1 if grid.kind == LINE and grid.boundary == DIRICHLET else 0
        return lo + ring_fold_order(grid.n_points - 2 * lo, grid.boundary)

    @cached_property
    def lower_band(self) -> np.ndarray:
        """Read-only LAPACK lower band storage of the operator on its
        :attr:`unknowns` u, where it is symmetric: ``band[d, p] = M[u[p +
        d], u[p]]``; d reaches the stencil's half-width, twice that on the
        ring fold of a periodic grid."""
        band = general_band(self.diagonals, self.unknowns)
        band = band[band.shape[0] // 2:]
        band.flags.writeable = False
        return band

    def to_dense(self) -> np.ndarray:
        return dense_matrix(self.diagonals)


def _laplacian_diagonals(n: int, h: float, boundary: str,
                         ghost_walls: bool = False) -> dict:
    """Diagonals of the three-point stencil (1, -2, 1)/h**2: offsets -1,
    0, 1, then on periodic grids the one-entry wraps +-(n - 1).

    ``ghost_walls=False`` puts the Dirichlet walls on the end nodes (end
    rows zero, fields pinned there); ``ghost_walls=True`` puts them one
    spacing outside the grid, so every node is an unknown (radial
    convention, wall at the origin).
    """
    inv = 1.0 / h**2
    diags = {-1: np.full(n - 1, inv), 0: np.full(n, -2.0 * inv),
             1: np.full(n - 1, inv)}
    if boundary == PERIODIC:
        diags[n - 1], diags[1 - n] = np.full(1, inv), np.full(1, inv)
    elif not ghost_walls:  # the rows of the end nodes are zero
        diags[0][[0, -1]] = diags[1][0] = diags[-1][-1] = 0.0
    return diags


def build_laplacian(grid: Grid) -> BandedOperator:
    """Three-point second-derivative operator (radial: walls off the grid)."""
    diags = _laplacian_diagonals(grid.n_points, grid.h, grid.boundary,
                                 ghost_walls=(grid.kind == RADIAL))
    return BandedOperator(grid, diags)


def inner_product(a: WaveField, b: WaveField) -> complex:
    """Trapezoidal <a|b> = integral of conj(a) * b."""
    if a.grid != b.grid:
        raise UsageError("inner_product requires fields on the same grid")
    w = a.grid.trapezoid_weights
    return complex(np.sum(np.conj(a.values) * w * b.values))


def count_nodes(values: np.ndarray) -> int:
    """Interior sign changes of the real part, ignoring near-zero samples."""
    v = np.real(values)
    scale = np.max(np.abs(v))
    if scale == 0.0:
        return 0
    v = v[np.abs(v) > _NODE_FLOOR * scale]
    if v.size < 2:
        return 0
    return int(np.sum(np.signbit(v[:-1]) != np.signbit(v[1:])))


def ring_fold_order(n: int, boundary: str) -> np.ndarray:
    """Site visit order that keeps grid neighbours close: ``0, n-1, 1,
    n-2, ...`` on periodic grids, so the wrap couples sites at most two
    places apart, and the natural order on Dirichlet grids."""
    k = np.arange(n)
    if boundary != PERIODIC:
        return k
    return np.where(k % 2 == 0, k // 2, n - 1 - k // 2)


def _solve_band(kinetic: BandedOperator, kinetic_factor: float,
                potential: np.ndarray, first: int, last: int,
                eigvals_only: bool):
    """Eigenvalues ``first`` .. ``last`` (ascending), with their vectors
    unless ``eigvals_only``, of ``kinetic_factor * L + diag(potential)``:
    one :func:`band_eigh` solve on :attr:`BandedOperator.lower_band`."""
    m = len(kinetic.unknowns)
    if not 0 <= first <= last < m:
        raise ConfigurationError(
            f"eigenvalue indices {first} .. {last} must lie in 0 .. {m - 1}")
    with np.errstate(over="ignore", invalid="ignore"):
        band = kinetic_factor * kinetic.lower_band
        band[0] += potential[kinetic.unknowns]
    in_float_range(band, "units, grid spacing and potential: the band of "
                   "-hbar**2/2m Laplacian + V")
    return band_eigh(band, first, last, eigvals_only)


def _check_info(info: int, routine: str, failure: str):
    """The one reading of a LAPACK ``info``: < 0 is a bad argument (a
    ValueError, as SciPy raises), > 0 the NonConvergenceError ``failure``."""
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal {routine}")
    if info > 0:
        raise NonConvergenceError(f"{failure} (LAPACK info={info})", [])


# dsbevx bisects to SciPy's absolute tolerance 2 * safmin. Where a band's
# largest entry lies below 2 * safmin / eps (2**-968), that tolerance is
# coarser than the band's own rounding: the levels lose digits and inverse
# iteration can stop short (info > 0 below about 2**-978 on 16-point
# grids). Such a band is solved scaled up by a power of two, which is exact.
_BAND_FLOOR = 2.0**-968


def band_eigh(band: np.ndarray, first: int, last: int, eigvals_only: bool):
    """Eigenvalues ``first`` .. ``last`` (ascending), with their vectors
    unless ``eigvals_only``, of the symmetric band in LAPACK lower storage:
    one LAPACK ``dsbevx`` call with the arguments that
    ``scipy.linalg.eig_banded(band, lower=True, select="i", select_range=
    (first, last))`` passes, so with its bits. A band below _BAND_FLOOR is
    solved scaled by a power of two and its levels scaled back."""
    from ._lapack import ABSTOL, dsbevx

    top = float(np.max(np.abs(band)))
    shift = -math.frexp(top)[1] if 0.0 < top < _BAND_FLOOR else 0
    w, v, m, _, info = dsbevx(
        np.ldexp(band, shift) if shift else band, 0.0, 1.0, first + 1,
        last + 1, compute_v=not eigvals_only,
        mmax=1 if eigvals_only else last - first + 1, range=2, lower=1,
        abstol=ABSTOL, overwrite_ab=0)
    _check_info(info, "sbevx", "the banded eigensolve did not converge: "
                "sbevx did not converge")
    w = np.ldexp(w[:m], -shift) if shift else w[:m]
    return w if eigvals_only else (w, v[:, :m])


def band_solve(band: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``M^-1 rhs`` for the square M with half-bandwidth bw >= 2 in LAPACK
    general band storage (2 bw + 1 rows): one LAPACK ``dgbsv`` call with
    the arguments that ``scipy.linalg.solve_banded((bw, bw), band, rhs)``
    passes, so with its bits (SciPy calls ``dgtsv`` at bw = 1). An exactly
    singular M is a NonConvergenceError."""
    from ._lapack import dgbsv

    bw = band.shape[0] // 2
    lu = np.zeros((3 * bw + 1, band.shape[1]))  # dgbsv fills bw rows on top
    lu[bw:] = band
    x, info = dgbsv(bw, bw, lu, rhs, overwrite_ab=1)[2:]
    _check_info(info, "gbsv", "the band is exactly singular: gbsv met a "
                "zero pivot")
    return x


def eigenvalue(kinetic: BandedOperator, kinetic_factor: float,
               potential: np.ndarray, index: int) -> float:
    """Eigenvalue ``index`` (ascending) of ``kinetic_factor * L +
    diag(potential)``, without its eigenvector.

    The same banded solve as :func:`lowest_eigenpairs` asked for no
    vectors: LAPACK bisects the same tridiagonal form either way, so the
    eigenvalue carries the same bits as the one it returns.
    """
    return float(_solve_band(kinetic, kinetic_factor, potential, index, index,
                             eigvals_only=True)[0])


def lowest_eigenpairs(kinetic: BandedOperator, kinetic_factor: float,
                      potential: np.ndarray, n_states: int, first: int = 0):
    """Eigenpairs ``first`` .. ``first + n_states - 1`` (ascending) of
    ``kinetic_factor * L + diag(potential)``; the lowest ones by default.

    One symmetric banded solve on every boundary (:func:`_solve_band`),
    which computes only the requested index window. Returned states live on the
    full grid (end values zero for Dirichlet line grids) and are
    normalized under trapezoidal quadrature. Within a degenerate level the
    states are one basis of its eigenspace, the one LAPACK returns.
    """
    vals, vecs = _solve_band(kinetic, kinetic_factor, potential, first,
                             first + n_states - 1, eigvals_only=False)
    grid = kinetic.grid
    states = np.zeros((grid.n_points, n_states))
    states[kinetic.unknowns] = vecs
    w = grid.trapezoid_weights
    states /= np.sqrt(np.einsum("i,ij->j", w, states**2))
    # deterministic sign: largest-magnitude sample positive
    peak = states[np.argmax(np.abs(states), axis=0), np.arange(n_states)]
    states[:, peak < 0] *= -1.0
    return np.asarray(vals, dtype=float), states


# Levels closer than this, relative to the operator scale ||A|| (largest
# absolute row sum), share one cluster: their vectors are a basis choice.
_CLUSTER_GAP = 1e-9


def _clusters(vals: np.ndarray, scale: float):
    """Index ranges [a, b) of the runs of ascending ``vals`` whose
    neighbours lie within _CLUSTER_GAP * scale of each other."""
    cuts = np.flatnonzero(np.diff(vals) > _CLUSTER_GAP * scale) + 1
    edges = [0, *cuts.tolist(), len(vals)]
    return list(zip(edges[:-1], edges[1:]))
