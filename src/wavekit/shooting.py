"""Closed-form marching through piecewise-constant coefficient regions.

All stationary 1D problems here reduce to psi'' = -w_j psi on constant
regions: oscillatory (w > 0), exponential (w < 0) or linear (w = 0).
Marching starts from psi = 0, psi' = 1 at the left wall; the Dirichlet
matching function is psi at the right wall. The marchers are vectorized
over a whole array of trial energies so that dense scans and batched
bisection stay cheap; the Sturm count of the same closed forms, for the
shots from both walls, picks linear eigenvalues by node count. The march,
the counts and the sampled shot share one region walk, which evaluates
the transfer coefficients of every (trial, region) pair once, then only
applies them and renormalizes.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NoRootError, StateTrackingError, UsageError
from .numgrid import Grid, WaveField
from .potentials import PotentialSpec, evaluate, region_edges


def piecewise_regions(spec: PotentialSpec, x_min: float, x_max: float):
    """Breakpoints and region values of a piecewise-constant potential
    restricted to [x_min, x_max]. Returns (edges, values) with
    len(edges) == len(values) + 1.
    """
    if not spec.is_piecewise_constant:
        raise UsageError(f"potential variant {spec.variant!r} is not piecewise-constant")
    edges = region_edges(spec, x_min, x_max)
    return edges, evaluate(spec, 0.5 * (edges[:-1] + edges[1:]))


#: Largest cosh/sinh argument of a transfer; decay rates below
#: ``_SAFE_RATE`` keep kappa sinh of it finite.
_GROW_CLAMP = 700.0
_SAFE_RATE = 3.5e4


def _transfer(w, width):
    """Transfer coefficients (diag, to_psi, to_dpsi) of psi'' = -w psi
    across ``width``: the matrix [[diag, to_psi], [to_dpsi, diag]] maps
    (psi, psi') at the start of a region to its end.

    Mask-free, so the arguments broadcast (trials x regions, or sample
    offsets for one energy). Each branch gets a zero argument where it is
    not selected, so sin = sinh = 0 and cos = cosh = 1 there and the two
    transfer matrices combine by plain arithmetic; w = 0 is their common
    k -> 0 limit, except that psi' carries into psi by the width. The
    overflow guard clamps only the cosh/sinh argument: oscillatory phases,
    thousands of radians in deep wells, stay exact. Past a decay rate of
    about 3.6e4, kappa sinh of the clamped argument still overflows; those
    cells get the matrix times e^-grow instead, a positive factor that the
    marchers' renormalization absorbs.
    """
    w = np.asarray(w, dtype=float)
    k = np.sqrt(np.abs(w))
    phase = k * width
    osc = w > 0
    wave = np.where(osc, phase, 0.0)
    grow = np.where(osc, 0.0, np.minimum(phase, _GROW_CLAMP))  # renormalized after
    s, c = np.sin(wave), np.cos(wave)
    sh, ch = np.sinh(grow), np.cosh(grow)
    lin = k == 0
    diag = c * ch
    to_psi = np.where(lin, width, s + sh) / np.where(lin, 1.0, k)
    if k.max(initial=0.0) < _SAFE_RATE:
        return diag, to_psi, k * (sh - s)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        to_dpsi = k * (sh - s)
        huge = np.isinf(to_dpsi)
        half_gap = 0.5 * (1.0 - np.exp(-2.0 * grow))
        return (np.where(huge, 1.0 - half_gap, diag),
                np.where(huge, half_gap / k, to_psi),
                np.where(huge, half_gap * k, to_dpsi))


def _apply(psi, dpsi, diag, to_psi, to_dpsi):
    """(psi, psi') moved across a region with coefficients of :func:`_transfer`."""
    return diag * psi + to_psi * dpsi, to_dpsi * psi + diag * dpsi


def _step(psi, dpsi, w, width):
    """Advance (psi, psi') across one region of psi'' = -w psi; broadcasts
    like :func:`_transfer`."""
    return _apply(psi, dpsi, *_transfer(w, width))


def _scale(psi, dpsi):
    """max(|psi|, |psi'|), floored at 1e-280 where both are 0."""
    return np.maximum(np.maximum(np.abs(psi), np.abs(dpsi)), 1e-280)


def _renormalized(psi, dpsi):
    """Divide by :func:`_scale`: a positive factor, so zeros and signs are
    unchanged while the state stays clear of overflow."""
    scale = _scale(psi, dpsi)
    return psi / scale, dpsi / scale


def _walk(widths, coeffs):
    """Start and end (psi, psi') in each region of the left shot psi(0)=0,
    psi'(0)=1, per trial row of ``coeffs`` (or for one trial); a start is
    the previous end :func:`_renormalized`."""
    diag, to_psi, to_dpsi = _transfer(coeffs, widths)
    start = np.zeros(coeffs.shape[:-1]), np.ones(coeffs.shape[:-1])
    for j in range(coeffs.shape[-1]):
        end = _apply(*start, diag[..., j], to_psi[..., j], to_dpsi[..., j])
        yield start, end
        if j + 1 < coeffs.shape[-1]:  # the last end is not renormalized here
            start = _renormalized(*end)


#: Trial rows marched together: bounds the (rows x regions) transfer
#: temporaries of long energy scans.
_MARCH_ROWS = 2048


def march_endpoint(widths, coeffs) -> np.ndarray:
    """psi at the right wall for the shot psi(0)=0, psi'(0)=1.

    ``coeffs`` has shape (n_trials, n_regions); rescaled after each region
    to dodge overflow (positive factors, so root locations are unchanged).
    """
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
    ends = []
    for i in range(0, max(len(coeffs), 1), _MARCH_ROWS):
        for _, end in _walk(widths, coeffs[i:i + _MARCH_ROWS]):
            pass
        ends.append(_renormalized(*end)[0])
    return ends[0] if len(ends) == 1 else np.concatenate(ends)


def _states(widths, coeffs):
    """(psi, psi') at the start and the end of each region of the walk:
    four arrays shaped like ``coeffs``, regions on the last axis."""
    states = np.array([(*start, *end) for start, end in _walk(widths, coeffs)])
    return states.transpose(1, *range(2, states.ndim), 0)


def _zeros(widths, coeffs, final_crossing: bool = True):
    """:func:`sturm_count` for ``coeffs`` of any leading shape, and the
    shot's end (psi, psi')."""
    psi, dpsi, end_psi, end_dpsi = _states(widths, coeffs)
    osc = coeffs > 0
    k = np.sqrt(np.where(osc, coeffs, 1.0))
    phi = np.arctan2(dpsi / k, psi)
    # zeros at xi = (phi + pi/2 + m pi)/k inside (0, d)
    m_lo = np.ceil((-phi - np.pi / 2) / np.pi + 1e-12)
    m_hi = np.floor((k * widths - phi - np.pi / 2) / np.pi - 1e-12)
    crossing = np.sign(end_psi) * np.sign(psi) < 0
    crossing[..., -1] &= final_crossing
    total = np.where(osc, np.maximum(m_hi - m_lo + 1.0, 0.0), crossing)
    total = total.sum(axis=-1).astype(int)
    if final_crossing:
        total += np.sign(end_psi[..., -1]) * (-1.0) ** total < 0
    return total, (end_psi[..., -1], end_dpsi[..., -1])


def sturm_count(widths, coeffs, final_crossing: bool = True) -> np.ndarray:
    """Zeros of the left shot inside the open interval, one count per trial.

    ``coeffs`` has shape (n_trials, n_regions). For a linear Sturm-Liouville
    coefficient the count is N(E), the number of Dirichlet eigenvalues below
    E (oscillation theorem). Zeros of R cos(k xi - phi) are counted
    analytically in oscillatory regions; an exponential or linear region
    holds at most one, read from the signs at its two ends. The analytic
    count leaves out a zero within 1e-12 pi rad of a region end, so it lags
    just above an eigenvalue whose last region oscillates; psi at the right
    wall has the sign (-1)^N, which restores the missed zero. With
    ``final_crossing=False`` neither that nor a sign change across a
    non-oscillatory last region is counted: near an eigenvalue the endpoint
    is the matching residual, not the field.
    """
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
    return _zeros(widths, coeffs, final_crossing)[0]


def _sides(widths, u):
    """Widths and U of the shots from either wall to c, the left edge of the
    lowest region (the right one mirrored), padded to one length with
    zero-width regions, which transfer as the identity: shapes (2, 1, n)."""
    m, n = int(np.argmin(u)), len(u)
    w2, u2 = np.zeros((2, 1, max(m, n - m))), np.full((2, 1, max(m, n - m)), u[m])
    w2[0, 0, :m], u2[0, 0, :m] = widths[:m], u[:m]
    w2[1, 0, :n - m], u2[1, 0, :n - m] = widths[m:][::-1], u[m:][::-1]
    return w2, u2


def _match(widths2, coeffs2, count: bool = True):
    """Count N(E) (None unless ``count``) and D(E) per trial from one walk
    of both shots of :func:`_sides`. With Pruefer angles theta_L, theta_R
    at c, N = ceil((theta_L + theta_R)/pi) - 1 is :func:`sturm_count`: the
    zeros of both shots, plus one where the phases left over pass pi.
    D = psi_L psi_R' + psi_L' psi_R of the unit-normalized states (psi_R'
    along the right shot) is sin(theta_L + theta_R): smooth across each
    eigenvalue, of sign (-1)^N."""
    if count:
        zeros, (psi, dpsi) = _zeros(widths2, coeffs2)
    else:
        *_, (_, (psi, dpsi)) = _walk(widths2, coeffs2)
    norm = np.maximum(np.hypot(psi, dpsi), 1e-280)
    psi, dpsi = psi / norm, dpsi / norm
    d = psi[0] * dpsi[1] + dpsi[0] * psi[1]
    if not count:
        return None, d
    n = zeros[0] + zeros[1]
    return n + (d * (-1.0) ** n < 0), d


def count_shot_nodes(edges, coeffs) -> int:
    """Interior zeros of the left shot, straight from the closed forms.

    Sampling-based counting is unreliable here: in a forbidden outer region
    the residual of an imperfect root grows like e^{kappa L} and either
    drowns the oscillatory amplitude or reads as a fake crossing. Counting
    zeros analytically per region (:func:`sturm_count`, without the final
    region's residual crossing) avoids both.
    """
    widths = np.diff(np.asarray(edges, dtype=float))
    return int(sturm_count(widths, coeffs, final_crossing=False)[0])


def sample_shot(edges, coeffs, x) -> np.ndarray:
    """psi of the left shot for one trial at the positions ``x``, scaled to
    max |psi| = 1: the closed form from the start of each position's region,
    times the renormalizations and the growth the transfers dropped between
    that region and the one holding the largest |psi|, summed in log space.
    Past the growth clamp a position's own growth e^g stays in log space."""
    edges, coeffs, x = (np.asarray(a, dtype=float) for a in (edges, coeffs, x))
    widths = np.diff(edges)
    psi0, dpsi0, psi1, dpsi1 = _states(widths, coeffs)
    # the transfer leaves e^-drop off a region's end state: G - 700 past the
    # clamp of G = kappa width, G where kappa sinh(clamped G) overflows
    kappa = np.sqrt(np.maximum(-coeffs, 0.0))
    grow = kappa * widths
    with np.errstate(over="ignore"):
        over = np.isinf(kappa * np.sinh(np.minimum(grow, _GROW_CLAMP)))
    drop = np.where(over, grow, np.maximum(grow - _GROW_CLAMP, 0.0))
    # e-folds to the next start: the factor that _renormalized divides out
    # (floored, so an end state that cancels to (0, 0) stays finite)
    f = np.log(_scale(psi1, dpsi1)) + drop
    j = np.searchsorted(edges[1:-1], x, side="right")
    offset = x - edges[j]
    psi, _ = _step(psi0[j], dpsi0[j], coeffs[j], offset)
    lift = np.zeros_like(psi)  # log of a factor kept out of psi
    c = np.flatnonzero(drop[j] > 0)
    lift[c] = g = kappa[j[c]] * offset[c]
    psi[c] = 0.5 * ((1.0 + np.exp(-2.0 * g)) * psi0[j[c]]
                    - np.expm1(-2.0 * g) / kappa[j[c]] * dpsi0[j[c]])
    # psi at the far wall is the matching residual, not a field value; pin
    # it so a leftover sign does not read as a spurious node
    psi[x >= edges[-1]] = 0.0
    size = lift + np.log(np.abs(psi), out=np.full_like(psi, -np.inf),
                         where=psi != 0.0)
    k = np.argmax((np.cumsum(f) - f)[j] + size)  # largest |psi|, roughly
    # levels as partial sums from the peak's region: growth elsewhere costs
    # no precision, and nothing overflows
    r = j[k]
    level = np.concatenate([-np.cumsum(f[:r][::-1])[::-1], [0.0],
                            np.cumsum(f[r:-1])])
    p = psi * np.exp(np.where(psi != 0.0, level[j] + lift - size[k], 0.0))
    m = np.max(np.abs(p))
    return p / m if m > 0 else p


def bracketed_roots(matching, e_scan: np.ndarray, skip_mask=None):
    """Sign-change scan plus batched bisection of a vectorized matching
    function. Returns the refined roots; scan points under ``skip_mask``
    (singular energies) are dropped and sign changes across them ignored.
    """
    e_scan = np.asarray(e_scan, dtype=float)
    if skip_mask is not None:
        e_scan = e_scan[~np.asarray(skip_mask, dtype=bool)]
    vals = matching(e_scan)
    sign = np.sign(vals)
    idx = np.flatnonzero(sign[:-1] * sign[1:] < 0)
    if idx.size == 0:
        return np.empty(0)
    lo = e_scan[idx].copy()
    hi = e_scan[idx + 1].copy()
    flo = vals[idx].copy()
    for _ in range(_SCAN_BISECTIONS):
        mid = 0.5 * (lo + hi)
        fm = matching(mid)
        left = flo * fm <= 0
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
        flo = np.where(left, flo, fm)
    return 0.5 * (lo + hi)


def shot_state(grid: Grid, edges, coeffs) -> WaveField:
    """The left shot for one trial at the nodes of ``grid``, normalized."""
    return WaveField(sample_shot(edges, coeffs, grid.x).astype(complex),
                     grid).normalized()


_SCAN_BISECTIONS = 64  # bracketed_roots: halvings of each sign-change cell
#: linear_bound_state_energy: offsets -1, 1, -1/4, 1/4, ... (4^-j) of the
#: trials next to a guess or a secant root; steps of the resolution around
#: a secant root; fractions of a bracket that holds more than one level
_RUNGS = np.repeat(4.0 ** -np.arange(32), 2) * np.tile([-1.0, 1.0], 32)
_WINDOW = np.arange(-32.0, 33.0)
_SPLIT = np.arange(1.0, 65.0) / 65.0


def _rungs(center, size, floor):
    """center -+ size 4^-j (j < 32) for the offsets of at least ``floor``."""
    ratio = size / floor
    n = 32 if ratio >= 4.0**31 else int(math.log(ratio, 4)) + 1 if ratio >= 1 else 0
    return center + size * _RUNGS[:2 * n]


def is_index(value, least: int = 0) -> bool:
    """An int or NumPy integer >= ``least``, and not a bool."""
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value >= least)


def linear_bound_state_energy(edges, region_potentials, state_index: int,
                              units, guess=None):
    """Energy of the ``state_index``-th Dirichlet eigenstate of the standard
    operator -hbar^2/2m psi'' + U psi on a piecewise-constant profile U.

    Each round is one walk of the shots from either wall to the left edge
    of the lowest region, for every trial energy (:func:`_match`). The
    count N(E) picks the state by its node count, not by the order of
    matching roots on a scan (in deep wells neighbouring roots share scan
    cells); D(E) is smooth across the root, where a one-sided endpoint or
    phase is nearly a step if its last region is forbidden. The first round
    holds min U + unit 2^j up to a bound on E_k; the bracket keeps
    N(lo) <= k < N(hi) at the closest trials. While it holds more levels,
    a round splits it in 65; with one, the sign of D is the count, and a
    round takes the secant root e of D, e +- j resolution steps (j <= 32),
    the rungs e +- width 4^-j and every eighth of the bracket, on the grid
    of steps. The walk sees E - U_j, so E resolves to the float spacing
    s of the largest |E - U_j| (and |E|): the energy is the middle of the
    cell [m s, (m + 1) s] that holds the bracket.

    A ``guess`` near the eigenvalue E (a fixed-point iterate) adds the
    rungs guess +- unit 4^-j to the first round, so the bracket is about
    3 |E - guess| wide and one secant round closes it. The counts still
    pick the state: a poor, non-finite or out-of-range guess only costs
    the extra trials.
    """
    edges = np.asarray(edges, dtype=float)
    widths, u = edges[1:] - edges[:-1], np.asarray(region_potentials, dtype=float)
    if not is_index(state_index):
        raise UsageError(
            f"state_index must be an integer >= 0, got {state_index!r}")
    if len(widths) != len(u) or not (widths > 0).all():
        raise UsageError("edges must increase, one region per potential")
    if not np.isfinite(u).all():
        raise UsageError("region potentials must be finite")
    scale, k = 2.0 * units.m / units.hbar**2, state_index
    widths2, u2 = _sides(widths, u)
    levels = [*u.tolist(), 0.0]

    def resolution(e):  # the float spacing of the largest |E - U_j|, |E|
        return math.ulp(max(abs(e - v) for v in levels))

    # lowest level of a box spanning the interval: the spectral spacing scale
    unit = (np.pi / widths.sum()) ** 2 / scale
    # comparison with the constant profiles min(U) and max(U) puts E_k
    # between min(U) + unit and max(U) + (k+1)^2 unit: one walk
    lo, n_lo, d_lo, hi = min(levels[:-1]), 0, math.nan, None
    try:
        top = max(levels[:-1]) + 2.0 * (k + 1) ** 2 * unit
        doublings = math.ceil(math.log2((top - lo) / unit)) + 1
    except OverflowError:  # (k + 1)**2 or the bound past the float range
        raise StateTrackingError(f"the energy bound of state {k} leaves "
                                 "the float range") from None
    trial = lo + np.ldexp(unit, np.arange(-1, doublings))
    if guess is not None:
        near = _rungs(float(guess), unit, resolution(float(guess)))
        near = near[(near > lo) & (near < top)]  # a far guess adds no trials
        trial = np.sort(np.concatenate([trial, near]))
    one = False
    for _ in range(64):
        n, d = _match(widths2, scale * (trial[:, None] - u2), not one)
        # with one level in the bracket, the sign of D, (-1)^N, counts
        above = d * (-1.0) ** k < 0 if one else n > k
        i = int(above.argmax()) if above.any() else len(above)
        if i > 0:
            lo, d_lo = float(trial[i - 1]), float(d[i - 1])
            n_lo = k if one else n[i - 1]
        if i < len(above):
            hi, d_hi = float(trial[i]), float(d[i])
            n_hi = k + 1 if one else n[i]
        if hi is None:
            break
        width, one, step = hi - lo, n_lo == k and n_hi == k + 1, resolution(lo)
        cell = math.floor(lo / step)
        if one and hi <= (cell + 1) * step:
            return (cell + 0.5) * step
        if math.nextafter(lo, hi) == hi:
            break  # levels closer than the float spacing
        if not one:
            trial = lo + width * _SPLIT
            continue
        e = (lo * d_hi - hi * d_lo) / (d_hi - d_lo) if d_hi != d_lo else math.nan
        e = min(max(e, lo), hi) if math.isfinite(e) else 0.5 * (lo + hi)
        trial = np.concatenate([e + step * _WINDOW, _rungs(e, width, 32 * step),
                                lo + width * _SPLIT[7::8]])
        trial = np.round(trial / step) * step
        trial = np.sort(trial[(trial > lo) & (trial < hi)])
    raise NoRootError(f"could not isolate linear eigenstate {state_index}")
