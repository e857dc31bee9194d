"""Unit systems: hbar, mass, light speed and the derived rest energy."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigurationError


def _sq(x: float) -> float:
    # x * x gives inf past the float range, where x**2 raises OverflowError
    return x * x


#: The scales the solvers form from the constants alone, as (label, the
#: constants in it, its value from hbar, m and c). Each must be a finite,
#: nonzero float, or a solve divides by 0 or inf, or overflows.
_SCALES = (
    ("hbar**2", ("hbar",), lambda hbar, m, c: _sq(hbar)),
    ("2*m/hbar**2", ("m", "hbar"), lambda hbar, m, c: 2.0 * m / _sq(hbar)),
    ("m*c**2", ("m", "c"), lambda hbar, m, c: m * _sq(c)),
    ("(m*c**2)**2", ("m", "c"), lambda hbar, m, c: _sq(m * _sq(c))),
    ("(hbar*c)**2", ("hbar", "c"), lambda hbar, m, c: _sq(hbar * c)),
    ("(m*c**2/hbar)**2", ("m", "c", "hbar"),
     lambda hbar, m, c: _sq(m * _sq(c) / hbar)),
)


@dataclass(frozen=True)
class UnitSystem:
    """Fundamental constants of a scenario.

    ``E0 = m * c**2`` is derived, never stored, so the relativistic
    invariant cannot be violated by construction.
    """

    hbar: float = 1.0
    m: float = 1.0
    c: float = 1.0
    e: float = 1.0
    labels: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("hbar", "m", "c"):
            if getattr(self, name) <= 0.0:
                raise ConfigurationError(f"unit constant {name!r} must be > 0")
        for label, names, scale in _SCALES:
            value = scale(self.hbar, self.m, self.c)
            if not 0.0 < value < math.inf:
                given = ", ".join(f"{n} = {getattr(self, n)!r}" for n in names)
                raise ConfigurationError(
                    f"unit constants {given}: {label} = {value!r} is out of "
                    "the float range")

    @property
    def E0(self) -> float:
        """Rest energy m*c**2."""
        return self.m * self.c**2


#: Speed of light in atomic-like units, used as the relativistic default.
ATOMIC_C = 137.035999
