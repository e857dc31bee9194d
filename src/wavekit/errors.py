"""Exception hierarchy shared by all wavekit modules.

Solver failures carry enough structure (singular sets, iterate histories,
offending regions) for the CLI to emit machine-readable error objects: each
class names its exit code and the extra fields of its error object.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGENCE = 3
EXIT_SINGULAR = 4


class WavekitError(Exception):
    """Base class for all wavekit errors."""
    exit_code = EXIT_CONFIG

    def fields(self) -> dict:
        """Fields of the error object beyond error, message and exit_code."""
        return {}


class ConfigurationError(WavekitError):
    """Invalid configuration: bad grid, unknown option, malformed scenario.

    ``failures`` aggregates every validation message, not just the first.
    """

    def __init__(self, message, failures=None):
        super().__init__(message)
        self.failures = list(failures) if failures is not None else [message]

    def fields(self):
        return {"failures": self.failures}


def is_finite_number(value) -> bool:
    """A real number, not a bool, whose float is finite (an int past the
    float range has none): the test of every number a config gives."""
    try:
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:
        return False


def in_float_range(value, label: str):
    """``value`` (a float, a list of Python floats or an array) where all
    of it is finite, else a ConfigurationError naming ``label``: the check
    of every scale derived from a config. A callable ``value`` is called
    under ``np.errstate(all="ignore")``, and an OverflowError or
    ZeroDivisionError from it (Python float ``**`` past the range, x / 0
    after an underflow) counts as out of range."""
    if callable(value):
        with np.errstate(all="ignore"):
            try:
                value = value()
            except (OverflowError, ZeroDivisionError):
                value = math.inf
    if (all(map(math.isfinite, value)) if isinstance(value, list)
            else math.isfinite(value) if isinstance(value, float)
            else np.isfinite(value).all()):
        return value
    raise ConfigurationError(f"{label} is out of the float range")


class UsageError(WavekitError):
    """API misuse: mismatched grids, non-normalized input and the like."""


class DomainError(WavekitError):
    """Function evaluated outside its mathematical domain."""


class SingularRegionError(WavekitError):
    """The energy-dependent denominator vanishes inside the domain."""
    exit_code = EXIT_SINGULAR

    def __init__(self, message, singular_set):
        super().__init__(message)
        self.singular_set = singular_set

    def fields(self):
        return {"singular_kind": self.singular_set.kind,
                "locations": list(self.singular_set.locations)}


class SingularCoefficientError(WavekitError):
    """A pointwise coefficient of the evolution equation is singular."""
    exit_code = EXIT_SINGULAR


class NonHyperbolicRegimeError(WavekitError):
    """The squared wave speed is non-positive somewhere on the grid."""
    exit_code = EXIT_SINGULAR

    def __init__(self, message, offending_positions):
        super().__init__(message)
        self.offending_positions = offending_positions

    def fields(self):
        return {"locations": [float(x) for x in self.offending_positions]}


class NonConvergenceError(WavekitError):
    """Iterative solver hit its iteration cap; ``history`` holds iterates."""
    exit_code = EXIT_NONCONVERGENCE

    def __init__(self, message, history):
        super().__init__(message)
        self.history = list(history)

    def fields(self):
        return {"iterate_history": [float(x) for x in self.history]}


class StateTrackingError(WavekitError):
    """Node-count tracking could not identify the requested state."""
    exit_code = EXIT_NONCONVERGENCE


class NoRootError(WavekitError):
    """A root bracket contained no sign change."""
    exit_code = EXIT_NONCONVERGENCE


class StabilityError(WavekitError):
    """Explicit time stepping became unstable (norm blow-up)."""
    exit_code = EXIT_NONCONVERGENCE


class InvalidScenarioError(WavekitError):
    """Scenario violates a structural precondition (e.g. V <= -E0)."""


class OutOfScopeError(WavekitError):
    """Requested feature is deliberately not implemented."""
