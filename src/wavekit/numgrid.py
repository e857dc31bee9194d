"""Discretization primitives: uniform grids, finite-difference Laplacians,
trapezoidal quadrature and banded eigensolves.

Conventions
-----------
* Grids are uniform; dirichlet/radial grids include both endpoints while
  periodic grids identify ``x_max`` with ``x_min`` and exclude it.
* ``dirichlet`` fields vanish at the two end nodes; the operator rows for
  the end nodes are zero and near-boundary rows fold the odd-reflection
  ghost values back into the stencil (exact for functions satisfying the
  boundary condition).
* ``radial`` grids exclude the origin (x_min > 0) and carry the reduced
  function u(r) = r R(r) with Dirichlet behaviour at both ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigurationError, UsageError

if TYPE_CHECKING:
    import scipy.sparse

LINE = "line"
RADIAL = "radial"
DIRICHLET = "dirichlet"
PERIODIC = "periodic"
_NODE_FLOOR = 1e-8  # count_nodes: samples below it (relative) carry no sign


def _has_finite_inverse_square(h: float) -> bool:
    """h**2 and 1/h**2 are finite and nonzero (the stencils divide by h**2)."""
    h_sq = h * h
    return 0.0 < h_sq < np.inf and 1.0 / h_sq < np.inf


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
        elif self.n_points >= 8 and not _has_finite_inverse_square(self.h):
            failures.append(f"grid spacing h = {self.h!r}: h**2 or 1/h**2 "
                            "is out of the float range")
        if self.kind == RADIAL:
            if self.x_min <= 0.0:
                failures.append("radial grids require x_min > 0 (origin excluded)")
            if self.boundary != DIRICHLET:
                failures.append("radial grids are dirichlet only")
        if failures:
            raise ConfigurationError("invalid grid: " + "; ".join(failures), failures)

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


@dataclass(frozen=True, eq=False)
class BandedOperator:
    """Real banded operator tied to a grid.

    ``diagonals`` maps offsets to coefficient rows; offset k holds the
    entries ``M[i, i+k]``. Periodic wrap terms appear as long offsets
    (+-(n-1), ...) with short rows.
    """

    grid: Grid
    diagonals: dict

    @cached_property
    def matrix(self) -> scipy.sparse.csr_matrix:
        import scipy.sparse  # loaded by the solves that need it, not at import

        offsets = sorted(self.diagonals)
        return scipy.sparse.diags(
            [self.diagonals[k] for k in offsets], offsets,
            shape=(self.grid.n_points, self.grid.n_points), format="csr",
        )

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
        :attr:`unknowns` u: ``band[d, p] = M[u[p + d], u[p]]``.

        The operator is symmetric there, so its upper diagonals give every
        entry. The band reaches the farthest entry from the diagonal: the
        stencil's half-width in the natural order of Dirichlet and radial
        grids, twice that in the ring-fold order of periodic ones.
        """
        sites = self.unknowns
        pos = np.full(self.grid.n_points, -1)  # band position; -1 if pinned
        pos[sites] = np.arange(len(sites))
        p, q, vals = (np.concatenate(a) for a in zip(*[
            (pos[: len(row)], pos[k : k + len(row)], row)
            for k, row in self.diagonals.items() if k >= 0]))
        keep = (p >= 0) & (q >= 0)
        d, col = np.abs(p - q)[keep], np.minimum(p, q)[keep]
        band = np.zeros((int(np.max(d)) + 1, len(sites)))
        band[d, col] = vals[keep]
        band.flags.writeable = False
        return band

    def apply(self, field: WaveField) -> WaveField:
        if field.grid is not self.grid and field.grid != self.grid:
            raise UsageError("field grid does not match operator grid")
        return WaveField(self.matrix @ field.values, self.grid)

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()


def _laplacian_diagonals(n: int, h: float, order: int, boundary: str,
                         ghost_walls: bool = False) -> dict:
    """Stencil diagonals.

    ``ghost_walls=False`` puts the Dirichlet walls on the end nodes (end
    rows zero, fields pinned there); ``ghost_walls=True`` puts them one
    spacing outside the grid, so every node is an unknown (radial
    convention, wall at the origin). Odd reflection about the wall keeps
    the order-4 stencil accurate and the eigenproblem block symmetric.
    """
    inv = 1.0 / h**2
    if order == 2:
        main = np.full(n, -2.0 * inv)
        off = np.full(n - 1, inv)
        if boundary == PERIODIC:
            wrap = np.array([inv])
            return {0: main, 1: off.copy(), -1: off.copy(),
                    n - 1: wrap.copy(), -(n - 1): wrap.copy()}
        if ghost_walls:
            return {0: main, 1: off.copy(), -1: off.copy()}
        main[0] = main[-1] = 0.0
        up = off.copy(); up[0] = 0.0        # row 0
        lo = off.copy(); lo[-1] = 0.0       # row n-1
        return {0: main, 1: up, -1: lo}
    if order == 4:
        c0, c1, c2 = -30.0 / 12.0 * inv, 16.0 / 12.0 * inv, -1.0 / 12.0 * inv
        main = np.full(n, c0)
        d1 = np.full(n - 1, c1)
        d2 = np.full(n - 2, c2)
        if boundary == PERIODIC:
            return {0: main, 1: d1.copy(), -1: d1.copy(), 2: d2.copy(), -2: d2.copy(),
                    n - 1: np.full(1, c1), -(n - 1): np.full(1, c1),
                    n - 2: np.full(2, c2), -(n - 2): np.full(2, c2)}
        if ghost_walls:
            main[0] += -c2
            main[-1] += -c2
            return {0: main, 1: d1.copy(), -1: d1.copy(),
                    2: d2.copy(), -2: d2.copy()}
        main[0] = main[-1] = 0.0
        main[1] += -c2
        main[-2] += -c2
        up1 = d1.copy(); up1[0] = 0.0
        lo1 = d1.copy(); lo1[-1] = 0.0
        up2 = d2.copy(); up2[0] = 0.0
        lo2 = d2.copy(); lo2[-1] = 0.0
        return {0: main, 1: up1, -1: lo1, 2: up2, -2: lo2}
    raise ConfigurationError(f"unsupported stencil order {order} (use 2 or 4)")


def build_laplacian(grid: Grid, order: int = 2) -> BandedOperator:
    """Centered-difference second-derivative operator of the given order."""
    diags = _laplacian_diagonals(grid.n_points, grid.h, order, grid.boundary,
                                 ghost_walls=(grid.kind == RADIAL))
    return BandedOperator(grid, diags)


def build_radial_laplacian(grid: Grid, l: int, order: int = 2) -> BandedOperator:
    """Reduced radial operator u -> u'' - l(l+1)/r^2 u on a radial grid."""
    if grid.kind != RADIAL:
        raise ConfigurationError("build_radial_laplacian requires a radial grid")
    if l < 0:
        raise ConfigurationError("angular momentum l must be >= 0")
    diags = _laplacian_diagonals(grid.n_points, grid.h, order, grid.boundary,
                                 ghost_walls=True)
    if l > 0:
        main = diags[0] - l * (l + 1) / grid.x**2
        diags = {**diags, 0: main}
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


def band_storage(matrix: scipy.sparse.spmatrix) -> np.ndarray:
    """LAPACK general band storage (``ab[b + i - j, j] = M[i, j]``, b sub-
    and b super-diagonals) of a sparse matrix, copied from its stored
    entries; b is the distance of the farthest stored entry from the
    diagonal. For a symmetric matrix, ``ab[b:]`` is its lower band storage.
    """
    coo = matrix.tocoo()
    b = int(np.max(np.abs(coo.row - coo.col), initial=0))
    ab = np.zeros((2 * b + 1, matrix.shape[0]))
    ab[b + coo.row - coo.col, coo.col] = coo.data
    return ab


def _band(kinetic: BandedOperator, kinetic_factor: float,
          potential: np.ndarray, first: int, last: int) -> np.ndarray:
    """Lower band storage of ``kinetic_factor * L + diag(potential)`` on
    the unknowns of the grid (:attr:`BandedOperator.lower_band`), checked
    to hold eigenvalue indices ``first`` .. ``last``."""
    m = len(kinetic.unknowns)
    if not 0 <= first <= last < m:
        raise ConfigurationError(
            f"eigenvalue indices {first} .. {last} must lie in 0 .. {m - 1}")
    band = kinetic_factor * kinetic.lower_band
    band[0] += potential[kinetic.unknowns]
    return band


def eigenvalue(kinetic: BandedOperator, kinetic_factor: float,
               potential: np.ndarray, index: int) -> float:
    """Eigenvalue ``index`` (ascending) of ``kinetic_factor * L +
    diag(potential)``, without its eigenvector.

    The same banded solve as :func:`lowest_eigenpairs` asked for no
    vectors: LAPACK bisects the same tridiagonal form either way, so the
    eigenvalue carries the same bits as the one it returns.
    """
    band = _band(kinetic, kinetic_factor, potential, index, index)
    import scipy.linalg  # loaded by the eigensolves, not at import

    return float(scipy.linalg.eig_banded(
        band, lower=True, eigvals_only=True, select="i",
        select_range=(index, index))[0])


def lowest_eigenpairs(kinetic: BandedOperator, kinetic_factor: float,
                      potential: np.ndarray, n_states: int, first: int = 0):
    """Eigenpairs ``first`` .. ``first + n_states - 1`` (ascending) of
    ``kinetic_factor * L + diag(potential)``; the lowest ones by default.

    One symmetric banded solve on every boundary (LAPACK ``dsbevx``), on
    the unknowns in band order (:attr:`BandedOperator.lower_band`), which
    computes only the requested index window. Returned states live on the
    full grid (end values zero for Dirichlet line grids) and are
    normalized under trapezoidal quadrature. Within a degenerate level the
    states are one basis of its eigenspace, the one LAPACK returns.
    """
    last = first + n_states - 1
    band = _band(kinetic, kinetic_factor, potential, first, last)
    import scipy.linalg  # loaded by the eigensolves, not at import

    vals, vecs = scipy.linalg.eig_banded(band, lower=True, select="i",
                                         select_range=(first, last))
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
