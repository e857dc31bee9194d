"""Potential catalog and analysis of the singular sets E = V, E = 2V,
V = -E0 that the modified equations introduce through their denominators.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, DomainError, InvalidScenarioError,
                     UsageError, in_float_range, is_finite_number)
from .numgrid import Grid

FREE = "free"
SQUARE_WELL = "square_well"
STEP = "step"
BARRIER = "barrier"
HARMONIC = "harmonic"
COULOMB = "coulomb"
PIECEWISE_CONSTANT = "piecewise_constant"
TABULATED = "tabulated"

VARIANTS = (FREE, SQUARE_WELL, STEP, BARRIER, HARMONIC, COULOMB,
            PIECEWISE_CONSTANT, TABULATED)

E_EQUALS_V = "E_equals_V"
E_EQUALS_2V = "E_equals_2V"
V_EQUALS_MINUS_E0 = "V_equals_minus_E0"

SINGULARITY_KINDS = (E_EQUALS_V, E_EQUALS_2V, V_EQUALS_MINUS_E0)
_SCAN_FACTOR = 8     # find_singular_set: scan points per grid point
_BISECT_TOL = 1e-12  # find_singular_set: width of a bisected root
SINGULAR_TOL = 1e-9  # find_singular_set: residual bound, relative to max(1, |E|)


@dataclass(frozen=True, eq=False)
class PotentialSpec:
    """Declarative description of a potential V(x).

    Only the fields relevant to ``variant`` are meaningful; the factory
    classmethods are the intended constructors. The list fields are stored
    as tuples, so a spec does not change after it is built.
    """

    variant: str
    center: float = 0.0
    depth: float = 0.0          # square_well
    half_width: float = 0.0     # square_well
    height: float = 0.0         # step, barrier
    edge: float = 0.0           # step
    left: float = 0.0           # barrier
    right: float = 0.0          # barrier
    omega: float = 0.0          # harmonic
    mass: float = 1.0           # harmonic
    strength: float = 0.0       # coulomb
    breakpoints: tuple = ()     # piecewise_constant
    values: tuple = ()          # piecewise_constant
    sample_x: tuple = ()        # tabulated
    sample_v: tuple = ()        # tabulated

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigurationError(f"unknown potential variant {self.variant!r}")
        for name in _SCALAR_FIELDS:
            if not is_finite_number(getattr(self, name)):
                raise ConfigurationError(f"{name} must be a finite number")
        for name in _LIST_FIELDS:
            seq = getattr(self, name)
            if not (isinstance(seq, (list, tuple)) and all(map(is_finite_number, seq))):
                raise ConfigurationError(f"{name} must be a list of finite numbers")
            object.__setattr__(self, name, tuple(seq))  # a caller's list stays its own
        if self.variant == SQUARE_WELL and (self.depth <= 0 or self.half_width <= 0):
            raise ConfigurationError("square_well needs depth > 0 and half_width > 0")
        if self.variant == HARMONIC:
            in_float_range(lambda: 0.5 * self.mass * self.omega**2,
                           f"harmonic omega = {self.omega!r}: 0.5 mass omega**2")
        if self.variant == BARRIER and not self.left < self.right:
            raise ConfigurationError("barrier needs left < right")
        if self.variant == PIECEWISE_CONSTANT:
            if len(self.values) != len(self.breakpoints) + 1:
                raise ConfigurationError(
                    "piecewise_constant needs len(values) == len(breakpoints) + 1")
            _check_increasing("piecewise_constant breakpoints", self.breakpoints)
        if self.variant == TABULATED:
            if len(self.sample_x) != len(self.sample_v):
                raise ConfigurationError("tabulated needs matching sample arrays")
            if len(self.sample_x) < 2:
                raise ConfigurationError("tabulated needs at least two samples")
            _check_increasing("tabulated sample_x", self.sample_x)

    # -- factories ---------------------------------------------------------
    @classmethod
    def free(cls):
        return cls(FREE)

    @classmethod
    def square_well(cls, depth, half_width, center=0.0):
        return cls(SQUARE_WELL, center=center, depth=depth, half_width=half_width)

    @classmethod
    def step(cls, height, edge):
        return cls(STEP, height=height, edge=edge)

    @classmethod
    def barrier(cls, height, left, right):
        return cls(BARRIER, height=height, left=left, right=right)

    @classmethod
    def harmonic(cls, omega, mass=1.0, center=0.0):
        return cls(HARMONIC, center=center, omega=omega, mass=mass)

    @classmethod
    def coulomb(cls, strength):
        return cls(COULOMB, strength=strength)

    @classmethod
    def piecewise_constant(cls, breakpoints, values):
        return cls(PIECEWISE_CONSTANT, breakpoints=tuple(breakpoints),
                   values=tuple(values))

    @classmethod
    def tabulated(cls, sample_x, sample_v):
        return cls(TABULATED, sample_x=tuple(sample_x), sample_v=tuple(sample_v))

    @property
    def is_piecewise_constant(self) -> bool:
        return self.variant in (FREE, SQUARE_WELL, STEP, BARRIER, PIECEWISE_CONSTANT)


_SCALAR_FIELDS = ("center", "depth", "half_width", "height", "edge", "left",
                  "right", "omega", "mass", "strength")
_LIST_FIELDS = ("breakpoints", "values", "sample_x", "sample_v")


def _check_increasing(name: str, seq):
    """``evaluate`` and ``region_table`` read positions in ascending order."""
    if not all(a < b for a, b in zip(seq, seq[1:])):
        raise ConfigurationError(f"{name} must be strictly increasing")


def _profile(spec: PotentialSpec):
    """The jumps of a piecewise-constant ``spec`` in the order it lists
    them, and V at a point, in Python floats read from the spec's fields
    with :func:`evaluate`'s comparisons, so a jump takes the value
    :func:`evaluate` gives it."""
    v = spec.variant
    if v == FREE:
        return [], lambda x: 0.0
    if v == SQUARE_WELL:
        c, h, bottom = float(spec.center), float(spec.half_width), -float(spec.depth)
        return [c - h, c + h], lambda x: bottom if abs(x - c) <= h else 0.0
    if v == STEP:
        edge, height = float(spec.edge), float(spec.height)
        return [edge], lambda x: height if x >= edge else 0.0
    if v == BARRIER:
        left, right, height = float(spec.left), float(spec.right), float(spec.height)
        return [left, right], lambda x: height if left <= x <= right else 0.0
    if v == PIECEWISE_CONSTANT:
        breaks, values = list(map(float, spec.breakpoints)), list(map(float, spec.values))
        return breaks, lambda x: values[bisect.bisect_right(breaks, x)]
    raise UsageError(f"potential variant {v!r} is not piecewise-constant")


def region_table(spec: PotentialSpec, x_min: float, x_max: float):
    """The regions of a piecewise-constant ``spec`` on [x_min, x_max] in
    Python floats: the edges (x_min, the jumps strictly inside in the order
    the spec lists them, x_max) and one level per region, V at the region
    midpoint bit for bit as :func:`evaluate` gives it."""
    x_min, x_max = float(x_min), float(x_max)
    breaks, level = _profile(spec)
    edges = [x_min, *(b for b in breaks if x_min < b < x_max), x_max]
    return edges, [level(0.5 * (a + b)) for a, b in zip(edges, edges[1:])]


def domain_levels(spec: PotentialSpec, x_min: float, x_max: float,
                  region_levels=None) -> list:
    """The values of a piecewise-constant ``spec`` on [x_min, x_max] in
    Python floats: the region levels (:func:`region_table`'s, or
    ``region_levels`` when the table is already read) and V at each end,
    where a breakpoint on or next to an end can give the end node a level
    of its own."""
    level = _profile(spec)[1]
    x_min, x_max = float(x_min), float(x_max)
    if region_levels is None:
        region_levels = region_table(spec, x_min, x_max)[1]
    return region_levels + [level(x_min), level(x_max)]


def evaluate(spec: PotentialSpec, x):
    """V(x); accepts scalars or arrays. V sampled on an array is formed
    with no warning and checked once: a ConfigurationError names the
    potential where a sample leaves the float range."""
    x = np.asarray(x, dtype=float)
    v = spec.variant

    def values():
        if v == FREE:
            return np.zeros_like(x)
        if v == SQUARE_WELL:
            return np.where(np.abs(x - spec.center) <= spec.half_width,
                            -spec.depth, 0.0)
        if v == STEP:
            return np.where(x >= spec.edge, spec.height, 0.0)
        if v == BARRIER:
            return np.where((x >= spec.left) & (x <= spec.right), spec.height, 0.0)
        if v == HARMONIC:
            return 0.5 * spec.mass * spec.omega**2 * (x - spec.center) ** 2
        if v == COULOMB:
            if np.any(x <= 0.0):
                raise DomainError("coulomb potential requires x > 0")
            return -spec.strength / x
        if v == PIECEWISE_CONSTANT:
            idx = np.searchsorted(np.asarray(spec.breakpoints), x, side="right")
            return np.asarray(spec.values, dtype=float)[idx]
        sx = np.asarray(spec.sample_x)  # TABULATED
        if np.any(x < sx[0] - 1e-12) or np.any(x > sx[-1] + 1e-12):
            raise DomainError("tabulated samples do not cover the requested points")
        return np.interp(x, sx, np.asarray(spec.sample_v))

    if not x.ndim:
        return float(values())
    given = ", ".join(f"{k} = {val!r}" for k, val in vars(spec).items() if val)
    return in_float_range(values, f"potential: V(x) of {given}")


def check_weight(values, E0: float):
    """Refuse potential values at or below -E0: the relativistic and
    spin-1/2 equations carry the weight 1 + V/E0, which must stay positive."""
    if np.any(np.asarray(values) <= -E0):
        raise InvalidScenarioError(
            "potential must satisfy V > -E0 everywhere (1 + V/E0 > 0)")


@dataclass(frozen=True)
class SingularSet:
    """Zeros of an energy-denominator condition inside a grid domain."""

    kind: str
    locations: tuple
    proximity: float  # minimal distance from any grid node, inf when empty

    def __post_init__(self):
        if self.kind not in SINGULARITY_KINDS:
            raise UsageError(f"unknown singularity kind {self.kind!r}")

    @property
    def empty(self) -> bool:
        return len(self.locations) == 0


def _condition(spec: PotentialSpec, E: float, kind: str):
    if kind == E_EQUALS_V:
        return lambda x: E - evaluate(spec, x)
    if kind == E_EQUALS_2V:
        return lambda x: E - 2.0 * evaluate(spec, x)
    if kind == V_EQUALS_MINUS_E0:
        # E carries the rest energy E0 here: zeros of V(x) + E0
        return lambda x: evaluate(spec, x) + E
    raise UsageError(f"unknown singularity kind {kind!r}")


def find_singular_set(spec: PotentialSpec, E: float, kind: str,
                      grid: Grid) -> SingularSet:
    """All solutions of the singularity condition inside the grid domain.

    Sign-change scanning at ``_SCAN_FACTOR`` times the grid density followed
    by bisection. Jump discontinuities of piecewise potentials produce sign
    changes without zeros; those are filtered by a residual check.
    """
    if not math.isfinite(E):
        raise UsageError("E must be finite")
    f = _condition(spec, E, kind)
    tol_val = SINGULAR_TOL * max(1.0, abs(E))
    xs = np.linspace(grid.x_min, grid.x_max, _SCAN_FACTOR * grid.n_points)
    fs = np.asarray(f(xs), dtype=float)
    roots = []
    exact = np.flatnonzero(np.abs(fs) <= 1e-15 * max(1.0, abs(E)))
    for i in exact:
        roots.append(float(xs[i]))
    sign = np.sign(fs)
    for i in np.flatnonzero((sign[:-1] * sign[1:]) < 0):
        lo, hi = xs[i], xs[i + 1]
        flo = fs[i]
        while hi - lo > _BISECT_TOL:
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
        if abs(f(x_star)) <= tol_val:  # reject jump discontinuities
            roots.append(float(x_star))
    roots = sorted(set(round(r, 14) for r in roots))
    # merge near-duplicates from adjacent scan cells
    merged = []
    for r in roots:
        if not merged or r - merged[-1] > 10 * _BISECT_TOL:
            merged.append(r)
    if merged:
        prox = float(min(np.min(np.abs(grid.x - r)) for r in merged))
    else:
        prox = float("inf")
    return SingularSet(kind, tuple(merged), prox)
