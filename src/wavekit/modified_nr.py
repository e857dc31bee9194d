"""Modified non-relativistic equations: the energy-dependent stationary
eigenproblem, the wave-type time-dependent propagation, separation of
variables, and the perturbation audit of the additional potential term.

The stationary equation is rearranged as
``[-hbar^2/2m Laplacian + W(E, x)] psi = E psi`` with the effective
potential ``W(E, x) = 3 V - V^2/(E - V)``, which is energy-dependent and
genuinely singular wherever E = V(x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .errors import (ConfigurationError, NonConvergenceError,
                     NonHyperbolicRegimeError, NoRootError,
                     SingularCoefficientError, SingularRegionError,
                     StabilityError, StateTrackingError, UsageError,
                     in_float_range)
from .numgrid import (PERIODIC, Grid, WaveField, build_laplacian,
                      eigenvalue, lowest_eigenpairs, matvec)
from .potentials import (E_EQUALS_V, SINGULAR_TOL, PotentialSpec,
                         domain_levels, evaluate, find_singular_set,
                         region_table)
from .reference import kinetic_operator
from .shooting import (PreparedProblem, bracketed_roots, count_shot_nodes,
                       is_index, march_endpoint, piecewise_regions,
                       shot_state)
from .units import UnitSystem

REJECT = "reject"
CLAMP = "clamp"


@dataclass(frozen=True)
class GuardPolicy:
    """Handling of near-singular denominators E - V(x).

    ``reject`` raises with the singular set; ``clamp`` floors the
    denominator magnitude at ``floor`` (sign preserved) for exploratory
    runs.
    """

    mode: str = REJECT
    floor: float = 1e-6

    def __post_init__(self):
        if self.mode not in (REJECT, CLAMP):
            raise ConfigurationError(f"unknown guard policy {self.mode!r}")
        if self.floor <= 0:
            raise ConfigurationError("guard floor must be > 0")


@dataclass(eq=False)
class ModifiedEigenResult:
    """One self-consistent eigenpair of the modified stationary equation.

    ``state`` and ``self_consistency_residual`` are built by
    ``build_state`` and ``build_residual`` the first time they are read and
    cached from then on, so a caller that reads only the energy or node
    count pays neither for the normalized state nor, where a count
    certified an exact-backend fixed point, for the linear eigenvalue
    behind the residual.
    """

    energy: float
    build_state: Callable[[], WaveField] = field(repr=False)
    iterations: int
    build_residual: Callable[[], float] = field(repr=False)
    node_count: int
    method: str

    @cached_property
    def state(self) -> WaveField:
        return self.build_state()

    @cached_property
    def self_consistency_residual(self) -> float:
        return self.build_residual()


@dataclass(frozen=True, eq=False)
class TimeDepState:
    """Second-order-in-time state: field, its time derivative, and the
    fixed scenario energies (E, eps) the equation coefficients use."""

    psi: WaveField
    dpsi_dt: WaveField
    t: float
    E: float
    epsilon: float

    def __post_init__(self):
        if self.psi.grid != self.dpsi_dt.grid:
            raise UsageError("psi and dpsi_dt must share one grid")


def effective_potential(V: PotentialSpec, E: float, grid: Grid,
                        guard: GuardPolicy = GuardPolicy()) -> np.ndarray:
    """W(E, x) = 3V - V^2/(E - V) sampled on the grid."""
    if not np.isfinite(E):
        raise UsageError("E must be finite")
    v = np.asarray(evaluate(V, grid.x), dtype=float)
    if guard.mode == REJECT:
        _reject_singular(V, E, grid, "energy")
    return _effective_samples(v, E, guard)


def _effective_samples(v: np.ndarray, E: float, guard: GuardPolicy) -> np.ndarray:
    """W(E, x) from samples ``v`` of V, inf or nan past the float range
    with no warning; under ``clamp`` the denominator E - V is floored in
    magnitude at ``guard.floor``, sign preserved."""
    denom = E - v
    if guard.mode == CLAMP:
        small = np.abs(denom) < guard.floor
        denom = np.where(small, np.where(denom >= 0, guard.floor, -guard.floor),
                         denom)
    with np.errstate(over="ignore", invalid="ignore"):
        return 3.0 * v - v**2 / denom


def _effective_levels(v: list, E: float, guard: GuardPolicy) -> list:
    """:func:`_effective_samples` on a list of Python floats, in its
    operations and order: inf or nan where NumPy gives them, with no
    warning."""
    floor, clamp = float(guard.floor), guard.mode == CLAMP
    w = []
    for level in v:
        denom = E - level
        if clamp and abs(denom) < floor:
            denom = floor if denom >= 0 else -floor
        square = level * level
        if denom:
            w.append(3.0 * level - square / denom)
        else:  # x/0 as NumPy gives it, where Python raises
            w.append(3.0 * level - (math.copysign(math.inf, denom) if square
                                    else math.nan))
    return w


def _reject_singular(V: PotentialSpec, E: float, grid: Grid, what: str):
    """Raise :class:`SingularRegionError` when E = V(x) inside the domain."""
    sset = find_singular_set(V, E, E_EQUALS_V, grid)
    if not sset.empty:
        raise SingularRegionError(
            f"{what} E={E} has E = V(x) at {sset.locations}", sset)


def _singular_check(V: PotentialSpec, grid: Grid, region_levels=None):
    """:func:`_reject_singular` for the energies of the solves of V on
    ``grid``. The levels of a piecewise-constant V (:func:`domain_levels`,
    on ``region_levels`` when the region table is already read) are read
    once, and :func:`find_singular_set` runs only for an E within its
    residual tolerance (``SINGULAR_TOL``) of one of them, or not finite:
    the same errors, found at the same locations."""
    if not V.is_piecewise_constant:
        return lambda E, what: _reject_singular(V, E, grid, what)
    levels = domain_levels(V, grid.x_min, grid.x_max, region_levels)
    rel = SINGULAR_TOL  # a closure cell, not a global read, per iterate

    def check(E, what):
        tol = rel * max(1.0, abs(E))
        if math.isfinite(E):
            for v in levels:  # |E - v| > tol for every level
                if not abs(E - v) > tol:
                    break
            else:
                return
        _reject_singular(V, E, grid, what)
    return check


@lru_cache(maxsize=16, typed=True)
def _exact_problem(V: PotentialSpec, grid: Grid, m: float, hbar: float):
    """What the exact-backend fixed point reads of one potential, prepared
    once for every solve on it: the region edges and levels
    (:func:`region_table`) as tuples, the linear problem
    (:class:`PreparedProblem`) and the E = V check (:func:`_singular_check`
    on those levels). Keyed on the spec's identity (its list fields are
    tuples, so it cannot change under its key), the whole grid (the check
    falls back on :func:`find_singular_set`, which samples it) and the two
    unit constants the problem reads, an int apart from its float. Solves
    that interleave the roots of up to 16 potentials all hit."""
    edges, levels = region_table(V, grid.x_min, grid.x_max)
    problem = PreparedProblem(edges, SimpleNamespace(m=m, hbar=hbar))
    return tuple(edges), tuple(levels), problem, _singular_check(V, grid, levels)


def _walled(grid: Grid):
    """Refuse a periodic ``grid``: the closed-form solvers put Dirichlet
    walls at its ends, whose levels are not the ring's."""
    if grid.boundary == PERIODIC:
        raise ConfigurationError(
            "grid.boundary: a periodic grid has no closed-form solve; the "
            "shooting solvers and the exact fixed-point backend put "
            "Dirichlet walls at the grid ends")


def _nonlinear_coefficient(e: np.ndarray, region_values: np.ndarray,
                           units: UnitSystem) -> np.ndarray:
    """Region coefficients w with psi'' = -w psi for the modified equation:
    w = (2m/hbar^2) (E - 2V)^2/(E - V), broadcast over trial energies."""
    e = np.atleast_1d(np.asarray(e, dtype=float))[:, None]
    v = region_values[None, :]
    return (2.0 * units.m / units.hbar**2) * (e - 2.0 * v) ** 2 / (e - v)


def shooting_spectrum(grid: Grid, edges, coefficient, e_bracket, n_scan: int,
                      poles=()):
    """Every energy in ``e_bracket`` with a nontrivial Dirichlet solution of
    psi'' = -w psi on the regions between ``edges``, by closed-form
    interface matching; ``coefficient(e)`` maps an array of trial energies
    to the region coefficients w, shape (n_trials, n_regions).

    ``n_scan`` evenly spaced energies are scanned for sign changes of the
    matching function, skipping those within ``SINGULAR_TOL`` (relative)
    of any of the ``poles`` of w; a bracket end that close to one is
    rejected. A sign-change cell across a skipped energy is still bisected,
    and a midpoint on a pole reads no warning.
    Returns the results sorted by energy, each with its |matching
    residual|, node count and normalized shot state, which is sampled
    only when first read. The walls sit at the grid ends, so a periodic
    grid is refused (:func:`_walled`).
    """
    _walled(grid)
    e_lo, e_hi = float(e_bracket[0]), float(e_bracket[1])
    if not e_hi > e_lo:
        raise ConfigurationError("e_bracket must be an increasing interval")
    margin = SINGULAR_TOL * max(1.0, abs(e_lo), abs(e_hi))
    poles = np.asarray(poles, dtype=float)

    def near_pole(e):
        return np.any(np.abs(np.subtract.outer(e, poles)) <= margin, axis=-1)

    if np.any(near_pole(np.array([e_lo, e_hi]))):
        raise ConfigurationError("e_bracket endpoint is singular (E = V)")
    e_scan = np.linspace(e_lo, e_hi, n_scan)
    widths = np.diff(edges)

    def matching(e_arr):
        return march_endpoint(widths, coefficient(e_arr))

    with np.errstate(divide="ignore", invalid="ignore"):
        roots = bracketed_roots(matching, e_scan, skip_mask=near_pole(e_scan))
    if roots.size == 0:
        raise NoRootError(f"no matching sign change in [{e_lo}, {e_hi}]")
    coeffs = coefficient(roots)
    residuals = np.abs(matching(roots))
    return [ModifiedEigenResult(energy=float(e),
                                build_state=partial(shot_state, grid, edges, row),
                                iterations=0, build_residual=partial(float, r),
                                node_count=count_shot_nodes(edges, row),
                                method="shooting")
            for e, row, r in zip(roots, coeffs, residuals)]


def solve_stationary_shooting(grid: Grid, V: PotentialSpec, e_bracket,
                              units: UnitSystem = UnitSystem(),
                              n_scan: int = 10000):
    """All modified-equation eigenenergies in ``e_bracket`` by closed-form
    interface matching on a piecewise-constant potential, Dirichlet walls
    at the grid ends (:func:`shooting_spectrum`; the region values, where
    E = V, are the poles). Returns results sorted by energy.
    """
    edges, region_values = piecewise_regions(V, grid.x_min, grid.x_max)
    ends = np.asarray(e_bracket, dtype=float)[:, None]
    in_float_range(lambda: (ends - 2.0 * region_values) ** 2,
                   "potential: (E - 2V)**2")  # a parabola in E peaks at an end
    return shooting_spectrum(
        grid, edges, lambda e: _nonlinear_coefficient(e, region_values, units),
        e_bracket, n_scan, poles=region_values)


def _grid_eigenpair(lap, factor, w_samples, state_index):
    """Eigenvalue ``state_index`` of -hbar^2/2m Laplacian + W, computed
    alone, and a callable that solves for its normalized state.

    The eigenvalue index is the state on every grid. On Dirichlet grids it
    is the node count too (a Jacobi matrix's k-th eigenvector has k sign
    changes, Gantmacher-Krein); on periodic ones the node counts of a
    degenerate pair depend on the basis LAPACK returns, the index does not.
    """
    if state_index >= len(lap.unknowns):
        raise StateTrackingError(f"state {state_index} exceeds the "
                                 f"{len(lap.unknowns)} unknowns of the grid")

    def state():
        states = lowest_eigenpairs(lap, factor, w_samples, 1,
                                   first=state_index)[1]
        return WaveField(states[:, 0], lap.grid).normalized()
    return eigenvalue(lap, factor, w_samples, state_index), state


def solve_stationary_fixed_point(grid: Grid, V: PotentialSpec, state_index: int,
                                 e_init: float, tol: float = 1e-10,
                                 max_iter: int = 200, damping: float = 0.5,
                                 units: UnitSystem = UnitSystem(),
                                 guard: GuardPolicy = GuardPolicy(),
                                 backend: str = "grid") -> ModifiedEigenResult:
    """Damped self-consistent iteration on E: linearize at W(E_k), take
    eigenvalue ``state_index`` of the linear problem, relax toward it.

    ``backend='grid'`` uses the discrete banded eigensolve (any potential,
    any boundary) on V sampled and the kinetic operator built once per
    solve; each iterate asks for eigenvalue ``state_index`` alone
    (:func:`_grid_eigenpair`), on Dirichlet grids the state with
    ``state_index`` nodes. ``backend='exact'`` uses closed-form
    piecewise-constant linear shooting, its Sturm bracket seeded at the
    iterate, so the converged energy is free of discretization error and
    comparable with :func:`solve_stationary_shooting` at 1e-8; it reads the
    region table, the linear problem and the E = V check prepared once per
    potential (:func:`_exact_problem`) and makes no NumPy call before the
    state is read. Its solve gets the iterate and ``tol``: where a count
    certifies |mu - E_k| < tol it answers with a closer instead of mu, the
    iteration converges at E_k, and the residual calls the closer. Its
    Dirichlet walls sit at the grid ends, so a periodic grid is refused
    (:func:`_walled`). Under the ``reject`` guard every
    iterate, and on the grid backend every linearized eigenvalue, is
    checked for E = V(x) inside the domain; on a piecewise-constant V
    against levels read once (:func:`_singular_check`). The state and the
    residual of the result, the eigenvector or shot at the returned energy
    and |mu - E|, are computed when first read.
    """
    if not is_index(state_index):
        raise ConfigurationError(
            f"state_index must be an integer >= 0, got {state_index!r}")
    if not 0.0 < damping <= 1.0:
        raise ConfigurationError("damping must lie in (0, 1]")
    if backend not in ("grid", "exact"):
        raise ConfigurationError(f"unknown backend {backend!r}")
    reject, exact = guard.mode == REJECT, backend == "exact"
    # V as the exact backend's region values, Python floats up to the
    # state, or the grid backend's samples
    if exact:
        _walled(grid)
        edges, v, problem, singular = _exact_problem(V, grid, units.m, units.hbar)
    else:
        factor, lap = kinetic_operator(grid, units)
        v = np.asarray(evaluate(V, grid.x), dtype=float)
        singular = _singular_check(V, grid) if reject else None
    effective = _effective_levels if exact else _effective_samples

    def result(energy, state, iterations, residual):
        """The result at ``energy``; ``residual`` is a float, or a
        callable that forms it."""
        if state is None:  # exact backend: the shot, already normalized
            def state():
                return shot_state(grid, edges, _nonlinear_coefficient(
                    energy, np.asarray(v), units)[0])
        if not callable(residual):
            residual = partial(float, residual)
        return ModifiedEigenResult(float(energy), state, iterations, residual,
                                   state_index, "fixed_point")

    e_k = float(e_init)
    history = [e_k]
    for it in range(1, max_iter + 1):
        # surfacing singularities is part of the contract: check every iterate
        if reject:
            singular(e_k, "iterate")
        w = in_float_range(effective(v, e_k, guard),
                           "potential: W = 3V - V**2/(E - V)")
        if exact:
            mu = problem.solve(w, state_index, e_k, tol)
            state = None
            if callable(mu):  # a count certified |mu - e_k| < tol; mu() closes it
                return result(e_k, None, it, lambda: abs(mu() - e_k))
        else:
            mu, state = _grid_eigenpair(lap, factor, w, state_index)
        residual = abs(mu - e_k)
        if residual <= tol:
            return result(e_k, state, it, residual)
        # when W does not actually depend on E (free case, or an iterate
        # landing where the profile is stationary), mu is already the exact
        # fixed point: re-solving at mu would reproduce the same operator
        if reject and not exact:
            singular(mu, "linearized eigenvalue")
        moved = effective(v, mu, guard)
        if (moved == w) if exact else np.array_equal(moved, w):
            return result(mu, state, it, 0.0)
        e_k = (1.0 - damping) * e_k + damping * mu
        history.append(e_k)
    raise NonConvergenceError(
        f"fixed point did not converge in {max_iter} iterations", history)


def additional_term_report(psi_ref: WaveField, E_ref: float,
                           V: PotentialSpec) -> dict:
    """First-order audit of the additional term -2V + V^2/(E - V) on a
    reference eigenstate.

    ``minus_2V_part`` is plain quadrature. ``pv_part`` is the density times
    V^2/(E - V) integrated by QUADPACK, a Cauchy principal value wherever
    E - V changes sign inside the domain: the domain is cut midway between
    consecutive poles and each piece integrated about its pole p with the
    Cauchy weight 1/(x - p) (QAWC); a pole on a domain end is a plain
    endpoint. A piece QUADPACK reports unconverged raises
    :class:`NonConvergenceError` with the piece values so far.
    """
    import scipy.integrate  # this audit alone integrates: kept off import time
    import scipy.interpolate

    grid = psi_ref.grid
    if abs(psi_ref.norm() - 1.0) > 1e-8:
        raise UsageError("psi_ref must be normalized")
    density = np.abs(psi_ref.values) ** 2
    v = np.asarray(evaluate(V, grid.x), dtype=float)
    w = grid.trapezoid_weights
    minus_2v = float(np.sum(w * density * (-2.0) * v))

    sset = find_singular_set(V, E_ref, E_EQUALS_V, grid)
    dens_spline = scipy.interpolate.CubicSpline(grid.x, density)

    def integrand(x):
        vx = evaluate(V, x)
        return dens_spline(x) * vx**2 / (E_ref - vx)

    a, b = grid.x_min, grid.x_max
    poles = [p for p in sset.locations if a < p < b]
    cuts = [a, *(0.5 * (p + q) for p, q in zip(poles, poles[1:])), b]
    parts = []
    for lo, hi, p in zip(cuts, cuts[1:], poles or [None]):
        if p is None:
            out = scipy.integrate.quad(integrand, lo, hi, limit=400,
                                       full_output=1)
        else:
            out = scipy.integrate.quad(lambda x: integrand(x) * (x - p), lo, hi,
                                       weight="cauchy", wvar=p, limit=400,
                                       full_output=1)
        parts.append(out[0])
        if len(out) > 3:  # QUADPACK's message: ier > 0
            raise NonConvergenceError(
                f"principal value on [{lo}, {hi}] did not converge: {out[3]}",
                parts)
    pv = sum(parts)
    shift = minus_2v + pv
    return {
        "minus_2V_part": minus_2v,
        "pv_part": float(pv),
        "pv_flag": not sset.empty,
        "first_order_shift": float(shift),
        "shift_to_E_ratio": float(abs(shift / E_ref)) if E_ref != 0 else float("inf"),
        "pole_locations": tuple(sset.locations),
    }


def timedep_speed_squared(V: PotentialSpec, E: float, epsilon: float,
                          grid: Grid, units: UnitSystem) -> np.ndarray:
    """Coefficient s(x) = (eps^2/2m) (E - V)/(E - 2V)^2 of the wave form
    psi_tt = s psi_xx. Raises when singular or non-hyperbolic, and
    ConfigurationError when a factor of s leaves the float range."""
    v = np.asarray(evaluate(V, grid.x), dtype=float)
    what = f"epsilon = {epsilon!r}, E = {E!r}: s = (eps^2/2m) (E - V)/(E - 2V)^2"
    denom = in_float_range(lambda: E - 2.0 * v, what)
    singular = np.abs(denom) < 1e-12 * max(1.0, abs(E))
    if np.any(singular):
        raise SingularCoefficientError(
            f"E = 2V on the grid near x = {grid.x[singular][:5]}")
    s = (in_float_range(lambda: (epsilon**2 / (2.0 * units.m)) * (E - v), what)
         / in_float_range(lambda: denom**2, what))
    if np.any(s <= 0.0):
        bad = grid.x[s <= 0.0]
        raise NonHyperbolicRegimeError(
            "squared wave speed non-positive (requires E > V)", tuple(bad))
    return s


def step_bound(inv_m: np.ndarray, a: dict) -> float:
    """Largest leapfrog step 2/omega for M psi_tt = A psi, times the safety
    factor 0.9: omega**2 = max(M^-1) times the largest absolute row sum of
    A bounds the spectrum of M^-1 A (Gershgorin). ``inv_m`` is the diagonal
    of M^-1 and ``a`` holds the diagonals of A; omega is formed as a
    product of square roots, finite where omega**2 need not be, and a row
    sum past the float range gives the bound 0."""
    with np.errstate(over="ignore"):
        rows = matvec({k: np.abs(row) for k, row in a.items()},
                      np.ones(len(inv_m)))
    omega = math.sqrt(float(np.max(inv_m))) * math.sqrt(float(np.max(rows)))
    return 0.9 * 2.0 / omega


def leapfrog(state0: TimeDepState, inv_m: np.ndarray, a: dict, dt: float,
             steps: int, stride: int = 1, max_growth=None):
    """Leapfrog evolution of M psi_tt = A psi from ``state0``, with
    ``inv_m`` the diagonal of M^-1 and ``a`` the diagonals of A in the
    field's dtype: psi_tt = inv_m * (A psi). The step ``dt`` must lie in
    (0, :func:`step_bound`].

    Returns the states at steps 0, stride, 2 stride, ... and the final
    step; the default keeps every state, and zero steps keep ``state0``
    alone. With ``max_growth`` set, raises :class:`StabilityError` at the
    first step whose norm exceeds ``max_growth`` times the initial norm.
    """
    for name, value, least in (("stride", stride, 1), ("steps", steps, 0)):
        if not is_index(value, least):
            raise ConfigurationError(
                f"{name} must be an integer >= {least}, got {value!r}")
    limit = step_bound(inv_m, a)
    if dt <= 0 or dt > limit:
        raise ConfigurationError(
            f"dt={dt} violates the stability bound {limit:.3e}")
    if dt * dt == 0.0:  # the step would divide by 2 dt and drop dt**2 terms
        raise ConfigurationError(f"dt={dt}: dt**2 underflows to 0")
    if steps == 0:
        return [state0]
    grid, t0 = state0.psi.grid, state0.t
    if max_growth is not None:
        bound = max_growth * max(float(np.linalg.norm(state0.psi.values)),
                                 1e-300) + 1e-300

    def guard(psi, k):
        if max_growth is None:
            return
        with np.errstate(over="ignore", invalid="ignore"):
            norm = float(np.linalg.norm(psi))
        if not norm <= bound:  # an overflowing (inf or nan) norm grew too
            raise StabilityError(
                f"norm grew beyond {max_growth}x at step {k}; reduce dt below "
                f"{limit:.3e}")

    def state(psi, vel, t):
        return TimeDepState(WaveField(psi, grid), WaveField(vel, grid), t,
                            state0.E, state0.epsilon)

    dt2 = dt**2
    psi_prev = state0.psi.values.copy()  # the loop reuses it as a buffer
    vel = state0.dpsi_dt.values
    acc = np.multiply(inv_m, matvec(a, psi_prev))
    psi = psi_prev + dt * vel + 0.5 * dt2 * acc
    guard(psi, 1)
    trajectory = [state0]
    if stride == 1 or steps <= 1:  # step 1 is kept like step k below
        trajectory.append(state(psi.copy(), vel + dt * acc, t0 + dt))
    psi_next = np.empty_like(psi)
    for k in range(2, steps + 1):
        # psi_next = 2 psi - psi_prev + dt^2 inv_m (A psi), in place
        acc = matvec(a, psi)
        np.multiply(inv_m, acc, out=acc)
        np.multiply(dt2, acc, out=acc)
        np.multiply(2.0, psi, out=psi_next)
        psi_next -= psi_prev
        psi_next += acc
        guard(psi_next, k)
        if k % stride == 0 or k == steps:
            # the velocity at step k, one-sided to second order (psi_prev
            # is step k - 2; the centred difference is step k - 1's)
            trajectory.append(state(psi_next.copy(),
                                    (3.0 * psi_next - 4.0 * psi + psi_prev)
                                    / (2.0 * dt), t0 + k * dt))
        psi_prev, psi, psi_next = psi, psi_next, psi_prev
    return trajectory


def propagate_timedep(state0: TimeDepState, V: PotentialSpec, dt: float,
                      steps: int, units: UnitSystem = UnitSystem(),
                      stride: int = 1):
    """Leapfrog evolution (:func:`leapfrog`) of psi_tt = s(x) psi_xx with s
    from the modified time-dependent equation: M^-1 = s, A = the Laplacian.
    Returns the states at steps 0, stride, 2 stride, ... and the final
    step; the default keeps every state."""
    grid = state0.psi.grid
    s = timedep_speed_squared(V, state0.E, state0.epsilon, grid, units)
    # cast once to the field dtype, not inside every product
    lap = {k: row.astype(state0.psi.values.dtype)
           for k, row in build_laplacian(grid).diagonals.items()}
    return leapfrog(state0, s, lap, dt, steps, stride)


def separated_solution(psi_n: WaveField, epsilon: float, B1: complex, B2: complex,
                       t: float, units: UnitSystem = UnitSystem()) -> WaveField:
    """Spatial eigenfield times the separated time factor
    f(t) = B1 exp(+i eps t/hbar) + B2 exp(-i eps t/hbar)."""
    phase = epsilon * t / units.hbar
    f = B1 * np.exp(1j * phase) + B2 * np.exp(-1j * phase)
    return WaveField(psi_n.values * f, psi_n.grid)


def separation_constant(epsilon: float, units: UnitSystem = UnitSystem()) -> float:
    """The separation constant -eps^2/hbar^2 linking f'' = C f to the
    spatial problem."""
    return -(epsilon / units.hbar) ** 2
