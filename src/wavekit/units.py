"""Unit systems: hbar, mass, light speed and the derived rest energy."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError, in_float_range

#: The scales the solvers form from the constants alone, as (label, the
#: constants in it, its value from hbar, m and c). Each must be a finite,
#: nonzero float, or a solve divides by 0 or inf, or overflows: each is
#: checked, then its reciprocal (_RECIPROCALS).
_SCALES = (
    ("hbar**2", ("hbar",), lambda hbar, m, c: hbar**2),
    ("2*m/hbar**2", ("m", "hbar"), lambda hbar, m, c: 2.0 * m / hbar**2),
    ("m*c**2", ("m", "c"), lambda hbar, m, c: m * c**2),
    ("(m*c**2)**2", ("m", "c"), lambda hbar, m, c: (m * c**2) ** 2),
    ("(hbar*c)**2", ("hbar", "c"), lambda hbar, m, c: (hbar * c) ** 2),
    ("(m*c**2/hbar)**2", ("m", "c", "hbar"),
     lambda hbar, m, c: (m * c**2 / hbar) ** 2),
)
_RECIPROCALS = tuple(
    (f"1/({label})", names, lambda hbar, m, c, scale=scale: 1.0 / scale(hbar, m, c))
    for label, names, scale in _SCALES)


@dataclass(frozen=True)
class UnitSystem:
    """Fundamental constants of a scenario.

    ``E0 = m * c**2`` is derived, never stored, so the relativistic
    invariant cannot be violated by construction.
    """

    hbar: float = 1.0
    m: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        for name in ("hbar", "m", "c"):
            if getattr(self, name) <= 0.0:
                raise ConfigurationError(f"unit constant {name!r} must be > 0")
        hbar, m, c = float(self.hbar), float(self.m), float(self.c)
        for label, names, scale in _SCALES + _RECIPROCALS:
            try:  # Python floats: ** past the range raises, x / 0 too
                value = scale(hbar, m, c)
            except (OverflowError, ZeroDivisionError):
                value = math.inf
            if not math.isfinite(value):  # the label is formed to raise only
                given = ", ".join(f"{n} = {getattr(self, n)!r}" for n in names)
                in_float_range(value, f"unit constants {given}: {label}")

    @property
    def E0(self) -> float:
        """Rest energy m*c**2."""
        return self.m * self.c**2


#: Speed of light in atomic-like units, used as the relativistic default.
ATOMIC_C = 137.035999
