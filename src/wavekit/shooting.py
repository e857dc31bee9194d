"""Closed-form marching through piecewise-constant coefficient regions.

All stationary 1D problems here reduce to psi'' = -w_j psi on constant
regions: oscillatory (w > 0), exponential (w < 0) or linear (w = 0).
Marching starts from psi = 0, psi' = 1 at the left wall; the Dirichlet
matching function is psi at the right wall. The march and the sampled shot
share one region walk, vectorized over trial energies; every zero count
(the Sturm count of the linear eigensolve, the node count of a shooting
root) comes from one scalar walk of one energy, counting as it goes.
"""

from __future__ import annotations

import math
from math import atan2, ceil, cos, cosh, exp, floor, hypot, sin, sinh, sqrt, ulp

import numpy as np

from .errors import NoRootError, StateTrackingError, UsageError
from .numgrid import Grid, WaveField
from .potentials import PotentialSpec, region_table


def piecewise_regions(spec: PotentialSpec, x_min: float, x_max: float):
    """Breakpoints and region values of a piecewise-constant potential
    restricted to [x_min, x_max] as arrays (:func:`region_table`):
    (edges, values), one more edge than values."""
    edges, values = region_table(spec, x_min, x_max)
    return np.asarray(edges), np.asarray(values)


#: Largest cosh/sinh argument of a transfer; decay rates below
#: ``_SAFE_RATE`` keep kappa sinh of it finite.
_GROW_CLAMP = 700.0
_SAFE_RATE = 3.5e4
_HALF_PI = math.pi / 2
#: Longest phase k d counted: past it the end margin can hold two zeros.
_LONGEST_PHASE = 1e12

#: Grid points a seeded linear solve steps past its Newton point before it
#: falls back on the rungs, and the resolution steps by which its count
#: certificate stays short of ``tol``.
_CELL_STEPS = 4


def _transfer(w, width):
    """Transfer coefficients (diag, to_psi, to_dpsi) of psi'' = -w psi
    across ``width``: the matrix [[diag, to_psi], [to_dpsi, diag]] maps
    (psi, psi') at the start of a region to its end.

    Mask-free, so the arguments broadcast (trials x regions, or sample
    offsets for one energy): a branch not selected gets a zero argument, so
    sin = sinh = 0 and cos = cosh = 1 there, and w = 0 is the common k -> 0
    limit, except that psi' carries into psi by the width. Only the
    cosh/sinh argument is clamped: oscillatory phases, thousands of radians
    in deep wells, stay exact. Past a decay rate of about 3.6e4 kappa sinh
    of the clamped argument still overflows; those cells get the matrix
    times e^-grow, a positive factor the marchers' renormalization absorbs.
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
    psi'(0)=1, per row of ``coeffs``; a start is the last end :func:`_renormalized`."""
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
    ends = [_renormalized(*list(_walk(widths, coeffs[i:i + _MARCH_ROWS]))[-1][1])[0]
            for i in range(0, max(len(coeffs), 1), _MARCH_ROWS)]
    return ends[0] if len(ends) == 1 else np.concatenate(ends)


def _shot(regions, scale, e, slope=False):
    """Zeros inside the shot from psi = 0, psi' = 1 across ``regions``,
    (width, level) pairs of psi'' = -scale (e - level) psi (a coefficient w
    is the level -w at scale 1 and e = 0, to the bit), and its end
    (psi, psi'), renormalized; with ``slope`` then d(psi, psi')/dE there, or
    None past a linear region or the overflow branch. Plain ``math`` with
    :func:`_transfer`'s closed forms, growth clamp (first: ``math.sinh``
    raises past it) and overflow branch; the slope rides through each closed
    form (Pryce 1993), held past the clamp (d grow/dE = 0: the clamped
    transfer moves the Pruefer angle by about e^-1400).

    An oscillatory region's zeros are counted from the closed form, less
    those within 1e-12 pi rad of its start and 1e-12 max(1, k d) pi rad of
    its end, a margin that outgrows the rounding of a long phase: the count
    lags by at most the one zero a parity check restores, and a phase past
    1e12 rad, where the margin holds more, raises StateTrackingError. Any
    other region holds at most one zero, read from the signs at its ends."""
    psi, dpsi, zeros = 0.0, 1.0, 0
    dp = ddp = 0.0  # d psi/dE, d psi'/dE while ``slope``
    for width, level in regions:
        w = scale * (e - level)
        if w > 0.0:
            # zeros at k xi = phi + pi/2 + m pi inside (0, width)
            k = sqrt(w)
            phase, phi = k * width, atan2(dpsi / k, psi)
            if phase > _LONGEST_PHASE:
                raise StateTrackingError(f"a region's phase {phase:.6g} rad passes "
                                         "1e12, past which zeros go uncounted")
            inner = (floor((phase - phi - _HALF_PI) / math.pi
                           - 1e-12 * (phase if phase > 1.0 else 1.0))
                     - ceil((-phi - _HALF_PI) / math.pi + 1e-12) + 1)
            zeros += inner if inner > 0 else 0
            s, c = sin(phase), cos(phase)
            if slope:  # dk/dE = scale/2k, d phase = width dk
                dk = 0.5 * scale / k
                dphase = width * dk
                dp, ddp = (c * dp + s / k * ddp - dphase * s * psi
                           + (c * dphase - s * dk / k) / k * dpsi,
                           c * ddp - k * s * dp - (dk * s + k * c * dphase) * psi
                           - dphase * s * dpsi)
            psi, dpsi = c * psi + s / k * dpsi, -k * s * psi + c * dpsi
        else:
            ch, to_psi, to_dpsi = 1.0, width, 0.0
            if w < 0.0:
                k = sqrt(-w)
                grow = k * width
                if grow > _GROW_CLAMP:
                    grow = _GROW_CLAMP
                ch, sh = cosh(grow), sinh(grow)
                to_psi, to_dpsi = sh / k, k * sh
                if to_dpsi == math.inf:
                    half_gap = 0.5 * (1.0 - exp(-2.0 * grow))
                    ch, to_psi, to_dpsi = 1.0 - half_gap, half_gap / k, half_gap * k
                    slope = False
                elif slope:  # dkappa/dE = -scale/2 kappa; a clamped grow is held
                    dk = -0.5 * scale / k
                    dgrow = width * dk if grow < _GROW_CLAMP else 0.0
                    dp, ddp = (ch * dp + to_psi * ddp + dgrow * sh * psi
                               + (ch * dgrow - sh * dk / k) / k * dpsi,
                               ch * ddp + to_dpsi * dp
                               + (dk * sh + k * ch * dgrow) * psi
                               + dgrow * sh * dpsi)
            else:
                slope = False
            end = ch * psi + to_psi * dpsi
            zeros += end < 0.0 < psi or psi < 0.0 < end
            psi, dpsi = end, to_dpsi * psi + ch * dpsi
        size = psi if psi >= 0.0 else -psi  # max(abs(psi), abs(dpsi), 1e-280)
        size = dpsi if dpsi > size else -dpsi if -dpsi > size else size
        if not size >= 1e-280:  # under the floor, or a NaN psi: the builtins
            size = max(abs(psi), abs(dpsi), 1e-280)
        psi, dpsi = psi / size, dpsi / size
        if slope:
            dp, ddp = dp / size, ddp / size
    return zeros, psi, dpsi, (dp, ddp) if slope else None


def _wronskian(sides, scale, e, slope=False):
    """N(E) and D(E) = psi_L psi_R' + psi_L' psi_R of the unit-normalized
    left and mirrored right shots (psi_R' along the right shot) at c, the
    left edge of the lowest region: one :func:`_shot` walk per side. With
    Pruefer angles theta_L, theta_R at c, D = sin(theta_L + theta_R) is
    smooth across each eigenvalue, and N = ceil((theta_L + theta_R)/pi) - 1
    is the Sturm count: each shot's zeros, plus one where psi at c lacks
    the sign (-1)^zeros (the zero a lagging count missed), plus one where
    D has the sign -(-1)^zeros.

    With ``slope`` a third value is dD/dE = cos(theta_L + theta_R)
    (theta_L' + theta_R'), theta' = (psi' dp - psi ddp)/(psi^2 + psi'^2) at
    c, where (dp, ddp) = d(psi, psi')/dE from the walk. It is None where a
    walk has none, and where it is not finite."""
    n_l, psi_l, dpsi_l, tangent_l = _shot(sides[0], scale, e, slope)
    n_r, psi_r, dpsi_r, tangent_r = _shot(sides[1], scale, e, tangent_l is not None)
    # psi at c has the sign (-1)^n: a lagging count is made up here
    zeros = (n_l + (psi_l < 0.0 if n_l % 2 == 0 else psi_l > 0.0)
             + n_r + (psi_r < 0.0 if n_r % 2 == 0 else psi_r > 0.0))
    size_l, size_r = hypot(psi_l, dpsi_l), hypot(psi_r, dpsi_r)
    size_l = 1e-280 if size_l < 1e-280 else size_l  # max(size, 1e-280)
    size_r = 1e-280 if size_r < 1e-280 else size_r
    if tangent_r is not None:  # theta_L' + theta_R'; a state at (0, 0) has no angle
        (dp_l, ddp_l), (dp_r, ddp_r) = tangent_l, tangent_r
        turn = ((dpsi_l * dp_l - psi_l * ddp_l) / (size_l * size_l)
                if psi_l or dpsi_l else math.nan)
        turn += ((dpsi_r * dp_r - psi_r * ddp_r) / (size_r * size_r)
                 if psi_r or dpsi_r else math.nan)
    psi_l, dpsi_l = psi_l / size_l, dpsi_l / size_l
    psi_r, dpsi_r = psi_r / size_r, dpsi_r / size_r
    d = psi_l * dpsi_r + dpsi_l * psi_r
    n = zeros + (d * (-1.0) ** zeros < 0.0)
    if not slope:
        return n, d
    dd = (dpsi_l * dpsi_r - psi_l * psi_r) * turn if tangent_r is not None else math.nan
    return n, d, dd if math.isfinite(dd) else None


def count_shot_nodes(edges, coeffs) -> int:
    """Interior zeros of the left shot for one trial: one :func:`_shot`
    walk over the regions between ``edges`` at levels -w, less a last
    region that does not oscillate. Its sign change is no node: sampled,
    the residual of an imperfect root that grows like e^{kappa L} in a
    forbidden outer region drowns the oscillation or reads as a crossing,
    and for the same reason no parity check reads psi at the wall."""
    x, w = (np.asarray(a, dtype=float).tolist() for a in (edges, coeffs))
    regions = [(b - a, -c) for a, b, c in zip(x, x[1:], w)]
    return _shot(regions if w[-1] > 0.0 else regions[:-1], 1.0, 0.0)[0]


def sample_shot(edges, coeffs, x) -> np.ndarray:
    """psi of the left shot for one trial at the positions ``x``, scaled to
    max |psi| = 1: the closed form from the start of each position's region,
    times the renormalizations and the growth the transfers dropped between
    that region and the one holding the largest |psi|, summed in log space.
    Past the growth clamp a position's own growth e^g stays in log space."""
    edges, coeffs, x = (np.asarray(a, dtype=float) for a in (edges, coeffs, x))
    widths = np.diff(edges)
    psi0, dpsi0, psi1, dpsi1 = np.array([(*start, *end) for start, end
                                         in _walk(widths, coeffs)]).T
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
    lo, hi, flo = e_scan[idx], e_scan[idx + 1], vals[idx]  # copies
    for _ in range(64):  # halvings of each sign-change cell
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


def is_index(value, least: int = 0) -> bool:
    """An int or NumPy integer >= ``least``, and not a bool."""
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value >= least)


class PreparedProblem:
    """The operator -hbar^2/2m psi'' + U psi with Dirichlet walls at the
    ends of ``edges``, prepared once for solves at many piecewise-constant
    profiles U on the same regions (the iterates of a fixed point): the
    region widths, the scale 2m/hbar^2 and ``unit``, the lowest level of a
    box spanning the interval, the spectral spacing scale. :meth:`solve`
    does only the walks."""

    def __init__(self, edges, units):
        x = list(map(float, edges))
        self.widths = [b - a for a, b in zip(x, x[1:])]
        if not (self.widths and all(w > 0.0 for w in self.widths)):
            raise UsageError("edges must increase, one region per potential")
        self.scale = 2.0 * units.m / units.hbar**2
        self.unit = (math.pi / sum(self.widths)) ** 2 / self.scale
        self.splits = {}  # lowest region -> widths left of it, the rest mirrored

    def solve(self, levels, k: int, guess=None, tol=None):
        """Energy E_k of the ``k``-th Dirichlet eigenstate at the region
        levels ``levels``, a list of finite Python floats, one per region.

        The Sturm count N(E) picks the state by its node count, not by the
        order of roots on a scan (in deep wells neighbouring roots share
        scan cells); one scalar walk (:func:`_wronskian`) per energy gives
        N(E) and D(E), and no energy outside the bracket so far is walked.
        Energies resolve to a grid of steps s, the float spacing of the
        largest |E - U_j| and |E|. A ``guess`` (a fixed-point iterate) is
        walked first, with dD/dE: a Newton step on D lands on a grid point,
        and grid points toward the level are walked, a few at most, until a
        cell [m s, (m + 1) s] has N = k at its lower edge and k + 1 at its
        upper one. Without a slope, or when the step misses, rungs from the
        nearer end +- unit 4^j toward the level follow, nearest first,
        skipping those short of the secant root of D; without a guess the
        doubling ladder min U + unit 2^j (up to a bound on E_k) brackets
        the level. Rounds take the lowest of 64 inner points past k until
        N(lo) = k and N(hi) = k + 1. Then the sign of D counts, and
        Illinois regula falsi on D, on the grid, closes the bracket to a
        cell, whose middle is returned, seeded or not. Levels closer
        together than the float spacing at their bound are refused.

        With ``tol`` the count may answer first. When the Newton step from
        the guess g lands within reach of g, reach = tol less a few
        resolution steps over [g - tol, g + tol], the one point g +- reach
        on the level's side is walked: N = k at the lower of the two points
        and k + 1 at the upper one prove |E_k - g| < tol, and the solve
        returns None without resolving E_k. Otherwise the point stays a
        bracket end and the solve goes on as without ``tol``. The step
        only decides whether the point is tried; the counts prove it.
        """
        u, scale, unit = levels, self.scale, self.unit
        bottom, peak = min(u), max(u)
        m = u.index(bottom)
        left, right = self.splits.get(m) or self.splits.setdefault(
            m, (self.widths[:m], self.widths[m:][::-1]))
        sides = list(zip(left, u[:m])), list(zip(right, u[:m - 1 if m else None:-1]))
        low, high = bottom if bottom < 0.0 else 0.0, peak if peak > 0.0 else 0.0

        def resolution(e):  # the float spacing of the largest |E - U_j|, |E|
            a, b = e - low, high - e
            return ulp(b if b > a else a)  # max(a, b)

        # comparison with the constant profiles min(U) and max(U) puts E_k
        # between min(U) + unit and max(U) + (k+1)^2 unit
        try:
            top = peak + 2.0 * (k + 1) ** 2 * unit
        except OverflowError:
            top = math.inf
        span = (top - bottom) / unit  # the ladder's 2^j, j < log2(span) + 1
        if not span < math.inf:  # (k + 1)**2 or the bound past the float range
            raise StateTrackingError(f"the energy bound of state {k} leaves "
                                     "the float range")
        if (2 * k + 1) * unit < ulp(top):  # a flat box's level spacing
            raise StateTrackingError(f"the levels near state {k} lie closer "
                                     "together than the float spacing at "
                                     "their bound")
        # (E, N, D) with N <= k (N = 0 at min U), then with N > k
        ends = [(bottom, 0, None), None]
        g = float(guess) if guess is not None else math.nan
        seeded, closed = bottom < g < top, False
        if seeded:
            n_g, d_g, slope = _wronskian(sides, scale, g, True)
            up = n_g <= k
            ends[not up] = (g, n_g, d_g)
            e = g - d_g / slope if slope else math.nan
            if tol is not None:  # the count certificate for |E_k - g| < tol
                a, b = resolution(g - tol), resolution(g + tol)
                reach = tol - _CELL_STEPS * (b if b > a else a)  # max(a, b)
                c = g + reach if up else g - reach
                # c is walked, and an end, inside the bracket: c != g
                if abs(e - g) < reach and bottom < c < top and c != g:
                    n_c, d_c = _wronskian(sides, scale, c)
                    ends[n_c > k] = (c, n_c, d_c)
                    if (n_g, n_c) == ((k, k + 1) if up else (k + 1, k)):
                        return None

        def past(e):  # is N(e) > k? e is walked, and an end, only inside the bracket
            if e <= ends[0][0] or ends[1] is not None and e >= ends[1][0]:
                return e > ends[0][0]
            point = (e, *_wronskian(sides, scale, e))
            ends[point[1] > k] = point
            return point[1] > k

        if seeded and bottom < e < top:  # a Newton step on D to the nearest grid point
            step = resolution(e)
            edge = round(e / step)
            above = past(edge * step)
            for _ in range(_CELL_STEPS):  # grid points toward the level
                edge += -1 if above else 1
                # N = k, k + 1 at a cell's edges
                closed = past(edge * step) != above
                if closed:
                    break
        if seeded and not closed:  # rungs from the nearer end out to the bounds
            g, _, d_g = ends[not up]
            near = max(resolution(g), math.ldexp(unit, -62))
            for r in (unit * 0.25**j for j in range(31, -32, -1)):
                if r < near:
                    continue
                e = g + r if up else g - r
                if not bottom < e < top or past(e) == up:  # out of range or past
                    break
                # the next rung lies past the root of the secant of D through g, e
                d_e = ends[not up][2]
                near = r * d_g / (d_g - d_e) if 0.0 < d_e * d_g < d_g * d_g else r
        if ends[1] is None:  # the ladder
            for e in (bottom + math.ldexp(unit, j)
                      for j in range(-1, ceil(math.log2(span)) + 1)):
                if past(e):
                    break
            else:
                raise NoRootError(f"could not isolate linear eigenstate {k}")
        while True:  # rounds to one level, with both ends walked
            (lo, n_lo, d_lo), (hi, n_hi, d_hi) = ends
            if d_lo is not None and (n_lo, n_hi) == (k, k + 1):
                break
            if math.nextafter(lo, hi) == hi:  # levels split below the float spacing
                raise NoRootError(f"could not isolate linear eigenstate {k}")
            for j in range(1, 65):  # the lowest of 64 inner points past level k
                if past(lo + (hi - lo) * (j / 65.0)):
                    break
        # one level in the bracket: the sign of D counts
        sign, side = (-1.0) ** k, None
        for _ in range(4096):  # a bound: each walk narrows the bracket
            step = resolution(lo)
            cell = floor(lo / step)
            if hi <= (cell + 1) * step:
                return (cell + 0.5) * step
            # Illinois regula falsi on the grid of steps, strictly inside
            e = (lo * d_hi - hi * d_lo) / (d_hi - d_lo) if d_hi != d_lo else math.nan
            e = e if lo <= e <= hi else 0.5 * (lo + hi)
            e = min(max(round(e / step), cell + 1), ceil(hi / step) - 1) * step
            d = _wronskian(sides, scale, e)[1]
            # the end that stays put twice running has its D halved
            above = d * sign < 0
            twice, side = (0.5 if side == above else 1.0), above
            if above:
                hi, d_hi, d_lo = e, d, twice * d_lo
            else:
                lo, d_lo, d_hi = e, d, twice * d_hi
        raise NoRootError(f"could not isolate linear eigenstate {k}")


def linear_bound_state_energy(edges, region_potentials, state_index: int,
                              units, guess=None):
    """Energy of the ``state_index``-th Dirichlet eigenstate of the standard
    operator -hbar^2/2m psi'' + U psi on a piecewise-constant profile U,
    seeded at ``guess`` if given: the inputs checked, then
    :meth:`PreparedProblem.solve` on the problem prepared from ``edges``.
    """
    if not is_index(state_index):
        raise UsageError(f"state_index must be an integer >= 0, got {state_index!r}")
    u = list(map(float, region_potentials))
    if len(edges) != len(u) + 1:
        raise UsageError("edges must increase, one region per potential")
    if not all(map(math.isfinite, u)):
        raise UsageError("region potentials must be finite")
    return PreparedProblem(edges, units).solve(u, state_index, guess)
