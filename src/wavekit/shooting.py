"""Closed-form marching through piecewise-constant coefficient regions.

All stationary 1D problems here reduce to psi'' = -w_j psi on constant
regions: oscillatory (w > 0), exponential (w < 0) or linear (w = 0).
Marching starts from psi = 0, psi' = 1 at the left wall; the Dirichlet
matching function is psi at the right wall. The march, the Sturm count and
the sampled shot share one region walk, vectorized over trial energies; a
linear eigenvalue takes one scalar walk of the same closed forms per energy.
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
    """:func:`sturm_count` for ``coeffs`` of any leading shape."""
    psi, dpsi, end_psi, _ = _states(widths, coeffs)
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
    return total


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
    return _zeros(widths, coeffs, final_crossing)


def _wronskian(sides, scale, e):
    """D(E) = psi_L psi_R' + psi_L' psi_R of the unit-normalized left and
    mirrored right shots (psi_R' along the right shot) at c, the left edge
    of the lowest region, walked for one energy in plain ``math`` with
    :func:`_transfer`'s closed forms, growth clamp (first: ``math.sinh``
    raises past it) and overflow branch. With Pruefer angles theta_L,
    theta_R at c, D = sin(theta_L + theta_R): smooth across each eigenvalue
    and of the sign (-1)^N of the Sturm count N(E) (:func:`sturm_count`)."""
    ends = []
    for regions in sides:
        psi, dpsi = 0.0, 1.0
        for width, level in regions:
            w = scale * (e - level)
            k = math.sqrt(abs(w))
            if w > 0.0:
                s, c = math.sin(k * width), math.cos(k * width)
                psi, dpsi = c * psi + s / k * dpsi, -k * s * psi + c * dpsi
            else:
                ch, to_psi, to_dpsi = 1.0, width, 0.0
                if w < 0.0:
                    grow = min(k * width, _GROW_CLAMP)
                    ch, sh = math.cosh(grow), math.sinh(grow)
                    to_psi, to_dpsi = sh / k, k * sh
                    if to_dpsi == math.inf:
                        half_gap = 0.5 * (1.0 - math.exp(-2.0 * grow))
                        ch, to_psi, to_dpsi = 1.0 - half_gap, half_gap / k, half_gap * k
                psi, dpsi = ch * psi + to_psi * dpsi, to_dpsi * psi + ch * dpsi
            size = max(abs(psi), abs(dpsi), 1e-280)
            psi, dpsi = psi / size, dpsi / size
        size = max(math.hypot(psi, dpsi), 1e-280)
        ends.append((psi / size, dpsi / size))
    (psi_l, dpsi_l), (psi_r, dpsi_r) = ends
    return psi_l * dpsi_r + dpsi_l * psi_r


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


def is_index(value, least: int = 0) -> bool:
    """An int or NumPy integer >= ``least``, and not a bool."""
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value >= least)


def linear_bound_state_energy(edges, region_potentials, state_index: int,
                              units, guess=None):
    """Energy of the ``state_index``-th Dirichlet eigenstate of the standard
    operator -hbar^2/2m psi'' + U psi on a piecewise-constant profile U.

    The Sturm count N(E) (:func:`sturm_count`) picks the state by its node
    count, not by the order of roots on a scan (in deep wells neighbouring
    roots share scan cells). One batch of counts at the doubling ladder
    min U + unit 2^j (up to a bound on E_k) and, with a ``guess`` (a
    fixed-point iterate), at guess +- unit 4^-j, then batches at 64 inner
    points, each taking the lowest count past k, narrow the bracket until
    N(lo) = k and N(hi) = k + 1; a seeded bracket is about 3 |E - guess|
    wide. There the sign of D(E) (:func:`_wronskian`, one scalar walk per
    energy) counts, and Illinois regula falsi on D, on the grid of steps s,
    the float spacing of the largest |E - U_j| and |E|, closes it to a cell
    [m s, (m + 1) s], whose middle is returned, seeded or not. D is smooth
    across the root, where a one-sided endpoint is a near step behind a
    forbidden last region. An index whose levels lie closer together than
    the float spacing at their bound is refused; a poor or non-finite guess
    only costs trials.
    """
    edges = np.asarray(edges, dtype=float)
    widths, u = edges[1:] - edges[:-1], np.asarray(region_potentials, dtype=float)
    w_list, u_list = widths.tolist(), u.tolist()
    if not is_index(state_index):
        raise UsageError(f"state_index must be an integer >= 0, got {state_index!r}")
    if len(w_list) != len(u_list) or not all(w > 0.0 for w in w_list):
        raise UsageError("edges must increase, one region per potential")
    if not all(map(math.isfinite, u_list)):
        raise UsageError("region potentials must be finite")
    scale, k, m = 2.0 * units.m / units.hbar**2, state_index, u_list.index(min(u_list))
    sides = list(zip(w_list[:m], u_list[:m])), list(zip(w_list[m:], u_list[m:]))[::-1]
    low, high = min(0.0, *u_list), max(0.0, *u_list)

    def resolution(e):  # the float spacing of the largest |E - U_j|, |E|
        return math.ulp(max(e - low, high - e))

    # lowest level of a box spanning the interval: the spectral spacing scale
    unit = (math.pi / sum(w_list)) ** 2 / scale
    # comparison with the constant profiles min(U) and max(U) puts E_k
    # between min(U) + unit and max(U) + (k+1)^2 unit
    lo, n_lo, hi, n_hi = min(u_list), 0, None, None
    try:
        top = max(u_list) + 2.0 * (k + 1) ** 2 * unit
        doublings = math.ceil(math.log2((top - lo) / unit)) + 1
        if (2 * k + 1) * unit < math.ulp(top):  # a flat box's level spacing
            raise StateTrackingError(f"the levels near state {k} lie closer together "
                                     "than the float spacing at their bound")
    except OverflowError:  # (k + 1)**2 or the bound past the float range
        raise StateTrackingError(f"the energy bound of state {k} leaves "
                                 "the float range") from None
    trial = [lo + math.ldexp(unit, j) for j in range(-1, doublings)]
    g = float(guess) if guess is not None else math.nan
    if lo < g < top:  # rungs down to the resolution; a far guess adds none
        floor = max(resolution(g), math.ldexp(unit, -62))
        trial += [e for j in range(32) if unit * 0.25**j >= floor
                  for e in (g - unit * 0.25**j, g + unit * 0.25**j) if lo < e < top]
        trial.sort()
    trial = np.array(trial)
    for _ in range(64):
        n = sturm_count(widths, scale * (trial[:, None] - u))
        i = int((n > k).argmax()) if (n > k).any() else len(n)
        if i > 0:
            lo, n_lo = float(trial[i - 1]), int(n[i - 1])
        if i < len(n):
            hi, n_hi = float(trial[i]), int(n[i])
        if hi is None or n_lo == k and n_hi == k + 1 or math.nextafter(lo, hi) == hi:
            break
        trial = lo + (hi - lo) * (np.arange(1.0, 65.0) / 65.0)
    if hi is None or not (n_lo == k and n_hi == k + 1):
        raise NoRootError(f"could not isolate linear eigenstate {state_index}")
    # one level in the bracket: the sign of D counts
    sign, side = (-1.0) ** k, None
    d_lo, d_hi = _wronskian(sides, scale, lo), _wronskian(sides, scale, hi)
    for _ in range(4096):  # a bound: each walk narrows the bracket
        step = resolution(lo)
        cell = math.floor(lo / step)
        if hi <= (cell + 1) * step:
            return (cell + 0.5) * step
        # Illinois regula falsi on the grid of steps, strictly inside
        e = (lo * d_hi - hi * d_lo) / (d_hi - d_lo) if d_hi != d_lo else math.nan
        e = e if lo <= e <= hi else 0.5 * (lo + hi)
        e = min(max(round(e / step), cell + 1), math.ceil(hi / step) - 1) * step
        d = _wronskian(sides, scale, e)
        # the end that stays put twice running has its D halved
        above = d * sign < 0
        twice, side = (0.5 if side == above else 1.0), above
        if above:
            hi, d_hi, d_lo = e, d, twice * d_lo
        else:
            lo, d_lo, d_hi = e, d, twice * d_hi
    raise NoRootError(f"could not isolate linear eigenstate {state_index}")
