"""Modified Dirac sector on a 1D grid: Clifford-algebra checks, the
position-dependent-prefactor Hamiltonian, the generalized stationary
eigenproblem with a Wilson stabilization term, and the massless equation.

The computational representation is the two-component 1D reduction with
alpha = sigma_x, beta = sigma_z; the 4x4 matrices are housed for algebra
checks only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, InvalidScenarioError,
                     NonConvergenceError, StabilityError, UsageError,
                     in_float_range)
from .numgrid import (Grid, PERIODIC, _clusters, _laplacian_diagonals,
                      band_eigh, band_solve, count_nodes, dense_matrix,
                      general_band, matvec, ring_fold_order)
from .potentials import PotentialSpec, evaluate
from .reference import SpectrumResult
from .units import UnitSystem

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True, eq=False)
class SpinorField:
    """Two complex component arrays on a shared 1D grid."""

    up: np.ndarray
    down: np.ndarray
    grid: Grid

    def __post_init__(self):
        object.__setattr__(self, "up", np.asarray(self.up, dtype=complex))
        object.__setattr__(self, "down", np.asarray(self.down, dtype=complex))
        n = self.grid.n_points
        if self.up.shape != (n,) or self.down.shape != (n,):
            raise UsageError("spinor components must match the grid length")

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.up, self.down])

    @classmethod
    def from_stacked(cls, vec: np.ndarray, grid: Grid) -> "SpinorField":
        n = grid.n_points
        return cls(vec[:n], vec[n:], grid)

    def norm(self) -> float:
        w = self.grid.trapezoid_weights
        return float(np.sqrt(np.sum(w * (np.abs(self.up) ** 2
                                         + np.abs(self.down) ** 2)).real))


@dataclass(frozen=True, eq=False)
class CliffordSet:
    """Alpha/beta (and Pauli) matrices with their anticommutation identities."""

    alphas: tuple
    beta: np.ndarray
    paulis: tuple
    dimension_tag: str  # "2x2" or "4x4"

    @classmethod
    def reduction_2x2(cls) -> "CliffordSet":
        return cls((SIGMA_X,), SIGMA_Z, (SIGMA_X, SIGMA_Y, SIGMA_Z), "2x2")

    @classmethod
    def full_4x4(cls) -> "CliffordSet":
        zero = np.zeros((2, 2), dtype=complex)
        alphas = tuple(np.block([[zero, s], [s, zero]]) for s in
                       (SIGMA_X, SIGMA_Y, SIGMA_Z))
        beta = np.block([[np.eye(2), zero], [zero, -np.eye(2)]]).astype(complex)
        return cls(alphas, beta, (SIGMA_X, SIGMA_Y, SIGMA_Z), "4x4")


def clifford_check(cs: CliffordSet) -> dict:
    """Max violation of every anticommutation identity of the set."""
    dim = cs.beta.shape[0]
    eye = np.eye(dim)

    def dev(m):
        return float(np.max(np.abs(m)))

    report = {}
    for i, ai in enumerate(cs.alphas):
        for k, ak in enumerate(cs.alphas):
            target = 2.0 * eye if i == k else 0.0 * eye
            report[f"alpha{i}_alpha{k}"] = dev(ai @ ak + ak @ ai - target)
    for i, ai in enumerate(cs.alphas):
        report[f"alpha{i}_beta"] = dev(ai @ cs.beta + cs.beta @ ai)
    report["beta_sq"] = dev(cs.beta @ cs.beta - eye)
    pe = np.eye(2)
    for i, si in enumerate(cs.paulis):
        report[f"sigma{i}_sq"] = dev(si @ si - pe)
    report["sigma_xy_anticommute"] = dev(
        cs.paulis[0] @ cs.paulis[1] + cs.paulis[1] @ cs.paulis[0])
    report["max_violation"] = max(report.values())
    return report


def _derivative_diagonals(grid: Grid) -> dict:
    """Centered first difference; periodic wrap or Dirichlet ghost zeros."""
    n, c = grid.n_points, 0.5 / grid.h
    diags = {1: np.full(n - 1, c), -1: np.full(n - 1, -c)}
    if grid.boundary == PERIODIC:
        diags.update({n - 1: np.array([-c]), 1 - n: np.array([c])})
    return diags


def _check_weight(v: np.ndarray, units: UnitSystem):
    if np.any(v <= -units.E0):
        raise InvalidScenarioError("potential must satisfy V > -E0 everywhere")


def real_dirac_operator(grid: Grid, units: UnitSystem, wilson_r: float = 0.0,
                        massless: bool = False) -> dict:
    """Diagonals of the 2n-point real symmetric U^H H U of the Dirac
    operator H = -i hbar c alpha d/dx + beta M with U = diag(1, i):
    [[M, hbar c D], [hbar c D^T, -M]], where D is the (antisymmetric)
    centered difference and M = m c^2 - (hbar c r h / 2) Laplacian carries
    the Wilson doubling suppressor. ``massless`` drops the M blocks. A
    spinor (v1, v2) of this operator is (up, down) = (v1, i v2) of H.
    """
    n = grid.n_points
    mass = {} if massless else {0: np.full(n, units.E0)}
    if mass and wilson_r != 0.0:
        # the Laplacian with walls one spacing outside the grid
        lap = _laplacian_diagonals(n, grid.h, grid.boundary, ghost_walls=True)
        scale = 0.5 * units.hbar * units.c * wilson_r * grid.h
        mass = {k: mass.get(k, 0.0) - scale * row for k, row in lap.items()}
    op = {k: np.concatenate([row, np.zeros(abs(k)), -row])  # [[M, .], [., -M]]
          for k, row in mass.items()}
    for k, row in _derivative_diagonals(grid).items():
        # D[i, i + k] is A[i, n + i + k] and A[n + i + k, i]: offsets +-(n + k)
        for big in (n + k, -n - k):
            diag = op.setdefault(big, np.zeros(2 * n - abs(big)))
            diag[max(-k, 0):max(-k, 0) + len(row)] = units.hbar * units.c * row
    return dict(sorted(op.items()))


def free_dirac_matrix(grid: Grid, units: UnitSystem,
                      wilson_r: float = 0.0) -> np.ndarray:
    """Dense Hermitian 2n x 2n matrix of -i hbar c alpha d/dx + m c^2 beta,
    plus the Wilson doubling suppressor -(hbar c r h / 2) beta Laplacian."""
    n = grid.n_points
    h = dense_matrix(real_dirac_operator(grid, units, wilson_r)).astype(complex)
    # undo the conjugation by U = diag(1, i)
    h[:n, n:] *= -1j
    h[n:, :n] *= 1j
    return h


# Shifts and residual targets, like the clusters, are set against ||A||
# (largest absolute row sum), the scale of every rounding error here.
_SHIFT_NUDGE = 2.0**-46  # offset of the shift from a cluster's middle
_ROUNDING = 64 * np.finfo(float).eps  # residual that ends the iteration
_RESIDUAL_TOL = 1e-9  # residual bound relative to max(1, |E|), or rounding
_MAX_SWEEPS = 10      # inverse-iteration sweeps per cluster


def _folded_band(op: dict, inv_root_w: np.ndarray, boundary: str):
    """The folded operator W^-1/2 A W^-1/2 with its unknowns reordered to a
    narrow band: the two components interleaved site by site, the sites in
    :func:`ring_fold_order` (half-bandwidth 5 on periodic grids, 3 on
    Dirichlet ones). Returns its diagonals in band order, their
    :func:`general_band` and ``pos``, the band position of each unknown.
    Each entry is ``a_ij * (s_i * s_j)``, ``s = inv_root_w``: exactly symmetric.
    """
    m, s = len(inv_root_w), inv_root_w
    sites = ring_fold_order(m // 2, boundary)
    order = np.stack([sites, sites + m // 2], axis=1).ravel()
    band = general_band({k: row * (s[max(-k, 0):m - max(k, 0)]
                                   * s[max(k, 0):m + min(k, 0)])
                         for k, row in op.items()}, order)
    b = band.shape[0] // 2
    folded = {d: band[b - d, max(d, 0):m + min(d, 0)] for d in range(-b, b + 1)}
    return folded, band, np.argsort(order)


def _cluster_vectors(folded, band: np.ndarray, scale: float,
                     levels: np.ndarray, rng):
    """Orthonormal eigenvectors of the levels of one cluster, ascending,
    and the number of sweeps (banded solves) they took.

    Block inverse iteration with a shift just above the cluster's middle
    (banded LU, then QR), and Rayleigh-Ritz inside the block to split it.
    A sweep's residual is max|A x - theta x| / max|x| over the block. The
    sweeps stop once it is at rounding level; after _MAX_SWEEPS the block
    is kept only if each residual is within _RESIDUAL_TOL * max(1, |E|),
    else NonConvergenceError carries the residual of every sweep.
    """
    bw = band.shape[0] // 2
    middle = 0.5 * (levels[0] + levels[-1])
    shifted = band.copy()
    shifted[bw] -= middle + _SHIFT_NUDGE * scale
    floor = _ROUNDING * scale
    x = rng.standard_normal((band.shape[1], len(levels)))
    history = []
    for sweep in range(1, _MAX_SWEEPS + 1):
        try:
            x = band_solve(shifted, x)
        except NonConvergenceError:
            raise NonConvergenceError(
                f"inverse iteration at E = {middle:.12g}: the shifted band "
                "is exactly singular", history) from None
        q = np.linalg.qr(x)[0]
        aq = matvec(folded, q)
        theta, z = np.linalg.eigh(0.5 * (q.T @ aq + aq.T @ q))
        x = q @ z
        res = np.max(np.abs(aq @ z - x * theta), axis=0) / np.max(np.abs(x), axis=0)
        history.append(float(np.max(res)))
        if history[-1] <= floor:
            return x, sweep
    bound = np.maximum(floor, _RESIDUAL_TOL * np.maximum(1.0, np.abs(theta)))
    if np.all(res <= bound):
        return x, _MAX_SWEEPS
    raise NonConvergenceError(
        f"inverse iteration at E = {middle:.12g} ({len(levels)} level(s)) "
        f"left a residual of {history[-1]:.3e} after {_MAX_SWEEPS} sweeps, "
        f"above the bound {_RESIDUAL_TOL:g} * max(1, |E|)", history)


def _weighted_spectrum(grid: Grid, V: PotentialSpec, units: UnitSystem,
                       n_states: int, wilson_r: float,
                       massless: bool) -> SpectrumResult:
    """The ``n_states`` smallest-|E| solutions of A v = E (1 + V/E0) v for
    the real operator A of :func:`real_dirac_operator`, sorted by |E|.

    The weight is diagonal and positive, so it is folded in symmetrically
    and a standard eigenproblem is solved over an index window. With a mass
    block exactly n of the 2n eigenvalues are negative (the inertia of
    [[M, B], [B^T, -M]] with M positive definite, kept by the congruence);
    without one the spectrum is symmetric about zero. Either way the
    n_states smallest |E| lie among the indices n - n_states ... n +
    n_states - 1. The window is still checked against its edge eigenvalues
    and widened until it provably holds them.

    The folded operator is reordered to a band (:func:`_folded_band`), a
    similarity transform that keeps the window. Its energies come from
    banded bisection, vectors only for the clusters of the selected levels
    (:func:`_cluster_vectors`).
    """
    n = grid.n_points
    if n_states < 1 or n_states > 2 * n:
        raise ConfigurationError("n_states out of range")
    v = np.asarray(evaluate(V, grid.x), dtype=float)
    _check_weight(v, units)
    with np.errstate(all="ignore"):  # a band past the float range: checked below
        op = real_dirac_operator(grid, units, wilson_r, massless)
        weight = np.concatenate([1.0 + v / units.E0, 1.0 + v / units.E0])
        inv_root_w = 1.0 / np.sqrt(weight)
        folded, band, pos = _folded_band(op, inv_root_w, grid.boundary)
    bw = band.shape[0] // 2
    scale = in_float_range(lambda: float(np.max(np.sum(np.abs(band), axis=0))),
                           f"wilson_r = {wilson_r!r}, units and grid spacing: "
                           "the folded Dirac operator's largest row sum")
    half = n_states
    widenings = 0
    while True:
        lo, hi = max(n - half, 0), min(n + half, 2 * n) - 1
        vals = band_eigh(band[bw:], lo, hi, eigvals_only=True)
        order = np.argsort(np.abs(vals), kind="stable")[:n_states]
        edge = np.max(np.abs(vals[order]))
        if (lo == 0 or vals[0] <= -edge) and (hi == 2 * n - 1 or vals[-1] >= edge):
            break
        half *= 2
        widenings += 1
    energies = vals[order]
    rng = np.random.default_rng(0)  # seeded start blocks: reports repeat
    sizes, solves = [], 0
    window_vecs = np.zeros((2 * n, len(vals)))
    for a, b in _clusters(vals, scale):
        if np.any((order >= a) & (order < b)):
            window_vecs[:, a:b], sweeps = _cluster_vectors(
                folded, band, scale, vals[a:b], rng)
            sizes.append(b - a)
            solves += sweeps
    vecs = inv_root_w[:, None] * window_vecs[pos][:, order]
    vecs /= np.sqrt(grid.trapezoid_weights @ (vecs[:n] ** 2 + vecs[n:] ** 2))
    residuals = np.max(np.abs(matvec(op, vecs) - energies * weight[:, None] * vecs),
                       axis=0) / np.max(np.abs(vecs), axis=0)
    states = [SpinorField(vec[:n], 1j * vec[n:], grid) for vec in vecs.T]
    return SpectrumResult(energies, states,
                          tuple(count_nodes(sf.up) for sf in states),
                          {"residuals": residuals.tolist(),
                           "method": "banded_bisection_inverse_iteration",
                           "dim": 2 * n, "bandwidth": bw,
                           "window": [lo, hi], "widenings": widenings,
                           "clusters": sizes, "banded_solves": solves,
                           "max_residual": float(np.max(residuals)),
                           **({"massless": True} if massless
                              else {"wilson_r": wilson_r})})


def solve_spin_half_stationary(grid: Grid, V: PotentialSpec, units: UnitSystem,
                               wilson_r: float = 1.0,
                               n_states: int = 8) -> SpectrumResult:
    """Generalized eigenproblem H_D psi = E (1 + V/E0) psi with the
    Wilson-stabilized Dirac operator, sorted by |E|."""
    return _weighted_spectrum(grid, V, units, n_states, wilson_r, massless=False)


def solve_massless(grid: Grid, V: PotentialSpec, units: UnitSystem,
                   n_states: int = 8) -> SpectrumResult:
    """Stationary massless problem -i hbar c sigma d/dx psi = E (1+V/E0) psi:
    the spin-1/2 solver without a mass block (naive centered difference,
    no mass to attach a Wilson term to), sorted by |E|."""
    return _weighted_spectrum(grid, V, units, n_states, 0.0, massless=True)


def propagate_massless(psi0: SpinorField, V: PotentialSpec, dt: float,
                       steps: int, units: UnitSystem):
    """Classical RK4 stepping of i hbar phi_t = H phi with
    H = -i hbar c sigma d/dx / (1 + V/E0).

    The operator is not symmetric for non-constant V; the per-step norm is
    recorded as a diagnostic and only a 10x blow-up is an error. Returns
    (trajectory, norms).
    """
    grid = psi0.grid
    v = np.asarray(evaluate(V, grid.x), dtype=float)
    _check_weight(v, units)
    d = _derivative_diagonals(grid)
    pref = 1.0 / (1.0 + v / units.E0)
    coeff = -units.c  # from (1/(i hbar)) * (-i hbar c) = -c

    def rhs(vec):
        d_up, d_down = matvec(d, vec.reshape(2, -1).T).T
        return np.concatenate([coeff * pref * d_down, coeff * pref * d_up])

    vec = psi0.stacked()
    norm0 = psi0.norm()
    trajectory = [psi0]
    norms = [norm0]
    for k in range(steps):
        k1 = rhs(vec)
        k2 = rhs(vec + 0.5 * dt * k1)
        k3 = rhs(vec + 0.5 * dt * k2)
        k4 = rhs(vec + dt * k3)
        vec = vec + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        sf = SpinorField.from_stacked(vec, grid)
        nrm = sf.norm()
        if norm0 > 0 and nrm > 10.0 * norm0:
            raise StabilityError(f"norm grew beyond 10x at step {k + 1}")
        trajectory.append(sf)
        norms.append(nrm)
    return trajectory, norms
