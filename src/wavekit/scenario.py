"""Scenario configuration, execution, reporting, comparison and sweeps.

Configs are YAML documents (nested key-value text); reports are JSON with
deterministic ordering; field tables go to CSV. Nothing in the artifact
uses randomness, so identical configs always produce identical payloads.
:data:`SCHEMAS` holds every config key, :data:`EQUATIONS` every equation.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
import yaml

from . import __version__
# the EXIT_* codes are re-exported for callers that import them from here
from .errors import (EXIT_CONFIG, EXIT_NONCONVERGENCE, EXIT_OK,  # noqa: F401
                     EXIT_SINGULAR, ConfigurationError, UsageError,
                     WavekitError, in_float_range, is_finite_number)
from .numgrid import PERIODIC, Grid, WaveField, count_nodes
from .potentials import PotentialSpec
from .planewave import (PlaneWaveState, constant_A, constant_A_prime,
                        constant_B, constant_B_prime, constant_D,
                        constant_D_prime, residual_massless,
                        residual_nr_stationary, residual_nr_timedep,
                        residual_rel_stationary, residual_rel_timedep,
                        residual_spin_half)
from .reference import solve_schrodinger_stationary
from .modified_nr import (GuardPolicy, TimeDepState, propagate_timedep,
                          solve_stationary_fixed_point,
                          solve_stationary_shooting)
from .modified_rel import propagate_rel_timedep, solve_rel_stationary
from .spin_half import SpinorField, solve_massless, solve_spin_half_stationary
from .units import ATOMIC_C, UnitSystem

@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """Validated description of one run."""

    equation: str
    units: UnitSystem
    potential: PotentialSpec
    grid: Grid
    solver: dict
    output: dict
    raw: dict = field(default_factory=dict)


@dataclass(eq=False)
class RunReport:
    """Deterministic result record for one scenario execution."""

    scenario: dict
    payload: dict
    diagnostics: dict
    version: str
    input_digest: str
    payload_digest: str  # sha256 of canonical_json({"scenario", "payload"})
    # canonical_json texts of the members the run has encoded already
    encoded: dict = field(default_factory=dict, repr=False)

    def to_dict(self) -> dict:
        members = dict(vars(self))
        del members["encoded"]
        return members

    def to_json(self) -> str:
        """``canonical_json(self.to_dict())``, the text of a report file;
        a member in ``encoded`` is spliced in, not encoded again."""
        return join_canonical({
            name: self.encoded.get(name) or canonical_json(value)
            for name, value in self.to_dict().items()})


def canonical_json(obj, allow_nan: bool = True) -> str:
    """Compact JSON with sorted keys: the text of every digest and every
    JSON file the CLI writes; ``allow_nan=False`` refuses NaN and infinity."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=allow_nan, default=_jsonable)


def _payload_json(payload: dict) -> str:
    """``canonical_json(payload)``, spliced from one encoding per member and
    per element of a list of dicts (``states``, ``frames``), so no encoding
    holds the whole payload. A payload holds finite numbers only, so a NaN
    or an infinity in it is a ConfigurationError that names its member."""
    members = {}
    for key in sorted(payload):  # the first member that holds one is named
        value = payload[key]
        try:
            if isinstance(value, list) and all(isinstance(item, dict)
                                               for item in value):
                members[key] = "[" + ",".join(canonical_json(item, allow_nan=False)
                                              for item in value) + "]"
            else:
                members[key] = canonical_json(value, allow_nan=False)
        except ValueError:
            raise ConfigurationError(f"payload.{key} holds a NaN or an infinity: "
                                     "a number out of the float range") from None
    return join_canonical(members)


def join_canonical(members: dict) -> str:
    """``canonical_json`` of an object given its members' canonical_json
    texts by key: the same text, with no member encoded again."""
    return "{" + ",".join(f"{canonical_json(key)}:{members[key]}"
                          for key in sorted(members)) + "}"


def _sha256(text: str) -> str:
    import hashlib  # loads OpenSSL: kept off import time

    return hashlib.sha256(text.encode()).hexdigest()


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"not serializable: {type(obj)}")


# -- config schema --------------------------------------------------------

def _is_integer(value) -> bool:
    """An integer, also when written as an integral float."""
    return is_finite_number(value) and float(value).is_integer()


def _is_bracket(value) -> bool:
    """Two finite numbers in increasing order, a finite distance apart."""
    return (isinstance(value, (list, tuple)) and len(value) == 2
            and all(map(is_finite_number, value)) and value[0] < value[1]
            and math.isfinite(float(value[1]) - float(value[0])))


def _one_of(*choices):
    return (lambda v: v in choices), " or ".join(choices)


_POSITIVE = (lambda v: is_finite_number(v) and v > 0), "a number > 0"
_FINITE = is_finite_number, "a finite number"
_FINITE_OR_NULL = ((lambda v: v is None or is_finite_number(v)),
                   "null or a finite number")
_COUNT = (lambda v: _is_integer(v) and v >= 1), "an integer >= 1"

#: Every config block but ``equation`` and ``potential`` (which
#: :class:`PotentialSpec` checks): key -> (default, check, what a value must
#: be). A key not listed is rejected. ``sweep`` is the extra block of a
#: ``wavekit sweep`` config.
SCHEMAS = {
    "units": {
        "hbar": (1.0, *_POSITIVE),
        "m": (1.0, *_POSITIVE),
        "c": (1.0, *_POSITIVE),  # ATOMIC_C where EQUATIONS says so
    },
    "grid": {
        "kind": ("line", *_one_of("line", "radial")),
        "x_min": (0.0, *_FINITE),
        "x_max": (1.0, *_FINITE),
        "n_points": (128, _is_integer, "an integer"),
        "boundary": ("dirichlet", *_one_of("dirichlet", "periodic")),
    },
    "solver": {
        "n_states": (4, *_COUNT),
        "state_index": (0, lambda v: _is_integer(v) and v >= 0, "an integer >= 0"),
        "e_init": (1.0, *_FINITE),
        "tol": (1e-10, *_POSITIVE),
        "max_iter": (200, *_COUNT),
        "damping": (0.5, lambda v: is_finite_number(v) and 0.0 < v <= 1.0,
                    "a number in (0, 1]"),
        "wilson_r": (1.0, *_FINITE),
        "dt": (1e-3, *_POSITIVE),
        "steps": (100, *_COUNT),
        "policy": ("reject", *_one_of("reject", "clamp")),
        "guard_floor": (1e-6, *_POSITIVE),
        "method": ("fixed_point", *_one_of("fixed_point", "shooting")),
        "backend": ("grid", *_one_of("grid", "exact")),
        "e_bracket": (None, lambda v: v is None or _is_bracket(v),
                      "null or two finite increasing numbers a finite "
                      "distance apart"),
        "momenta": ([0.5, 1.0, 2.0],
                    lambda v: isinstance(v, list) and all(map(is_finite_number, v)),
                    "a list of finite numbers"),
        "potential_value": (0.0, *_FINITE),
        "epsilon": (None, *_FINITE_OR_NULL),
        "E": (None, *_FINITE_OR_NULL),
        "mode": (1, _is_integer, "an integer"),
    },
    "output": {"frame_stride": (10, *_COUNT)},
    "sweep": {
        "parameter": (None, lambda v: isinstance(v, str) and all(v.split(".")),
                      "a dotted key path"),
        "values": (None, lambda v: isinstance(v, list) and len(v) > 0,
                   "a non-empty list"),
    },
}

SCENARIO_BLOCKS = ("equation", "potential", "units", "grid", "solver", "output")


def _unknown(what: str, name, known) -> str:
    """Failure text for an unknown name, with the nearest known one."""
    import difflib  # only a failing config reads it: kept off import time

    near = difflib.get_close_matches(str(name), list(known), n=1)
    hint = f" (did you mean {near[0]!r}?)" if near else ""
    return f"unknown {what} {name!r}{hint}"


def _config_block(name: str, block, failures: list, **defaults) -> dict | None:
    """Block ``name`` checked against ``SCHEMAS[name]``: every schema key,
    with ``defaults``, then the schema's, for those not given; None when
    something fails. An absent block is empty. Each unknown key and each
    failing value is appended to ``failures``."""
    if block is None:
        block = {}
    elif not isinstance(block, dict):
        failures.append(f"{name} block must be a mapping")
        return None
    schema = SCHEMAS[name]
    before = len(failures)
    failures.extend(_unknown(f"{name} key", key, schema)
                    for key in block if key not in schema)
    values = {key: block.get(key, defaults.get(key, spec[0]))
              for key, spec in schema.items()}
    for key, (_default, check, what) in schema.items():
        if not check(values[key]):
            failures.append(f"{name}.{key} must be {what}, got {values[key]!r}")
    return values if len(failures) == before else None


def load_document(text: str) -> dict:
    """The mapping of a YAML config text."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"config is not valid YAML: {exc}")
    if not isinstance(doc, dict):
        raise ConfigurationError("config must be a mapping")
    return doc


def _potential_from_dict(block: dict, failures: list) -> PotentialSpec:
    if not isinstance(block, dict) or "variant" not in block:
        failures.append("potential block must contain a 'variant'")
        return PotentialSpec.free()
    try:
        return PotentialSpec(**block)
    except (ConfigurationError, TypeError) as exc:
        failures.append(f"potential: {exc}")
        return PotentialSpec.free()


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse and validate a YAML scenario, reporting every failure at once."""
    return validate_scenario(load_document(text))


def validate_scenario(doc: dict) -> ScenarioConfig:
    """The config of a scenario document, which it keeps as ``raw``;
    raises one :class:`ConfigurationError` listing every failure."""
    failures = [_unknown("block", key, SCENARIO_BLOCKS)
                for key in doc if key not in SCENARIO_BLOCKS]

    equation = doc.get("equation")
    spec = EQUATIONS.get(equation) if isinstance(equation, str) else None
    if spec is None:
        failures.append(_unknown("equation id", equation, EQUATIONS))
        spec = Equation("solve", False, None)  # check the rest as a solve
    if doc.get("grid") is None and spec.command != "dispersion":
        failures.append("missing grid block")

    units = _config_block("units", doc.get("units"), failures,
                          c=ATOMIC_C if spec.atomic_c else 1.0)
    potential = _potential_from_dict(doc.get("potential") or {"variant": "free"},
                                     failures)
    grid = _config_block("grid", doc.get("grid"), failures)
    solver = _config_block("solver", doc.get("solver"), failures)
    output = _config_block("output", doc.get("output"), failures)
    if units is not None:
        try:
            units = UnitSystem(**units)
        except ConfigurationError as exc:
            failures.append(f"units: {exc}")
    if grid is not None:
        try:
            grid = Grid(grid["kind"], float(grid["x_min"]), float(grid["x_max"]),
                        int(grid["n_points"]), grid["boundary"])
        except ConfigurationError as exc:
            failures.append(f"grid: {exc}")
    if failures:
        raise ConfigurationError(
            "invalid scenario: " + "; ".join(failures), failures)
    return ScenarioConfig(equation, units, potential, grid, solver, output,
                          raw=doc)


def parse_sweep(text: str):
    """The base scenario, swept parameter and values of a sweep config."""
    doc = load_document(text)
    failures = []
    sweep = _config_block("sweep", doc.pop("sweep", None), failures)
    if failures:
        raise ConfigurationError("invalid sweep: " + "; ".join(failures), failures)
    return doc, sweep["parameter"], sweep["values"]


# -- runners: config -> (payload, diagnostics) ------------------------------

def _spectrum_payload(energies, states, node_counts, residuals):
    payload = {
        "kind": "spectrum",
        "energies": [float(e) for e in energies],
        "node_counts": [int(n) for n in node_counts],
        "self_consistency_residuals": [float(r) for r in residuals],
    }
    if states:
        payload["states"] = [
            {"re": s.up.real.tolist(), "im": s.up.imag.tolist(),
             "re2": s.down.real.tolist(), "im2": s.down.imag.tolist()}
            if isinstance(s, SpinorField) else
            {"re": s.values.real.tolist(), "im": s.values.imag.tolist()}
            for s in states]
    return payload


def _linear_spectrum(res):
    """Report of a :class:`SpectrumResult`; its residuals go to the payload."""
    diagnostics = dict(res.diagnostics)
    residuals = diagnostics.pop("residuals")
    return (_spectrum_payload(res.energies, res.states, res.node_counts,
                              residuals), diagnostics)


def _modified_spectrum(results):
    """Report of a list of :class:`ModifiedEigenResult`."""
    payload = _spectrum_payload(
        [r.energy for r in results], [r.state for r in results],
        [r.node_count for r in results],
        [r.self_consistency_residual for r in results])
    return payload, {"iterations": [r.iterations for r in results],
                     "method": results[0].method}


def _initial_wave(config: ScenarioConfig):
    """Initial data for time-dependent runs: a plane-wave mode by default."""
    grid = config.grid
    k = 2.0 * np.pi * int(config.solver["mode"]) / (grid.x_max - grid.x_min)
    in_float_range(lambda: k * max(abs(grid.x_min), abs(grid.x_max)),
                   f"solver.mode = {config.solver['mode']!r}: the phase k * x")
    return WaveField(np.exp(1j * k * grid.x), grid), k


def _trajectory(config: ScenarioConfig, trajectory):
    """Report of a trajectory a stepper kept with stride ``frame_stride``:
    frames at steps 0, stride, 2 stride, ...; its last state is the final
    step, which is a frame only when the stride divides ``steps``."""
    grid, steps = config.grid, int(config.solver["steps"])
    frames = [{"t": float(s.t), "re": s.psi.values.real.tolist(),
               "im": s.psi.values.imag.tolist()}
              for s in trajectory[:steps // int(config.output["frame_stride"]) + 1]]
    payload = {"kind": "trajectory", "x": grid.x.tolist(), "frames": frames,
               "n_steps": steps}
    return payload, {"final_norm": trajectory[-1].psi.norm()}


def _run_schrodinger(config: ScenarioConfig):
    return _linear_spectrum(solve_schrodinger_stationary(
        config.grid, config.potential, int(config.solver["n_states"]),
        config.units))


def _run_nr_stationary(config: ScenarioConfig):
    solver = config.solver
    if solver["method"] == "shooting":
        if solver["e_bracket"] is None:
            raise ConfigurationError("shooting requires solver.e_bracket")
        return _modified_spectrum(solve_stationary_shooting(
            config.grid, config.potential, solver["e_bracket"], config.units))
    res = solve_stationary_fixed_point(
        config.grid, config.potential, int(solver["state_index"]),
        float(solver["e_init"]), float(solver["tol"]),
        int(solver["max_iter"]), float(solver["damping"]), config.units,
        GuardPolicy(solver["policy"], solver["guard_floor"]),
        backend=solver["backend"])
    payload, diagnostics = _modified_spectrum([res])
    if config.grid.boundary == PERIODIC:  # the index is no node count there:
        payload["node_counts"] = [count_nodes(res.state.values)]  # count it
    return payload, diagnostics


def _run_rel_stationary(config: ScenarioConfig):
    if config.solver["e_bracket"] is None:
        raise ConfigurationError(f"{config.equation} requires solver.e_bracket")
    return _modified_spectrum(solve_rel_stationary(
        config.grid, config.potential, config.solver["e_bracket"], config.units))


def _run_nr_timedep(config: ScenarioConfig):
    solver, units, grid = config.solver, config.units, config.grid
    psi0, k = _initial_wave(config)
    eps, given = solver["epsilon"], f"solver.epsilon = {solver['epsilon']!r}"
    if eps is None:
        given = f"solver.mode = {solver['mode']!r}"
        eps = in_float_range(lambda: (units.hbar * k) ** 2 / (2.0 * units.m),
                             f"{given}: epsilon = (hbar k)**2/2m")
    in_float_range(lambda: eps**2 + abs(eps / units.hbar),
                   f"{given}: epsilon**2 + |epsilon/hbar|")
    E = float(eps if solver["E"] is None else solver["E"])
    dpsi0 = WaveField(-1j * eps / units.hbar * psi0.values, grid)
    state0 = TimeDepState(psi0, dpsi0, 0.0, E, float(eps))
    return _trajectory(config, propagate_timedep(
        state0, config.potential, float(solver["dt"]), int(solver["steps"]),
        units, int(config.output["frame_stride"])))


def _run_rel_timedep(config: ScenarioConfig):
    units, grid = config.units, config.grid
    psi0, k = _initial_wave(config)
    given = f"solver.mode = {config.solver['mode']!r}"
    E = in_float_range(lambda: math.sqrt((units.c * units.hbar * k) ** 2
                                         + units.E0**2),
                       f"{given}: E = sqrt((c hbar k)**2 + E0**2)")
    in_float_range(lambda: E / units.hbar, f"{given}: E/hbar")
    dpsi0 = WaveField(-1j * E / units.hbar * psi0.values, grid)
    return _trajectory(config, propagate_rel_timedep(
        psi0, dpsi0, config.potential, float(config.solver["dt"]),
        int(config.solver["steps"]), units, int(config.output["frame_stride"])))


def _run_spin_half(config: ScenarioConfig):
    return _linear_spectrum(solve_spin_half_stationary(
        config.grid, config.potential, config.units,
        float(config.solver["wilson_r"]), int(config.solver["n_states"])))


def _run_massless(config: ScenarioConfig):
    return _linear_spectrum(solve_massless(
        config.grid, config.potential, config.units,
        int(config.solver["n_states"])))


def _run_dispersion_audit(config: ScenarioConfig):
    units, solver = config.units, config.solver
    rows = []
    v0, E0 = float(solver["potential_value"]), units.E0
    for p in solver["momenta"]:
        p = float(p)
        row, at_p = {"p": p}, f" at p = {p!r}"
        momenta = f"solver.momenta = {solver['momenta']!r}: "
        K = in_float_range(lambda: p**2 / (2.0 * units.m),
                           momenta + "eps = p**2/2m" + at_p)

        def constants():
            """The calibration constants into ``row``; returned with the
            time-dependent residual's eps**2 p**2/(2m hbar**2) and
            -4/eps**2 (for p != 0)."""
            eps_rel = float(np.sqrt((units.c * p) ** 2 + E0**2))
            row.update(constant_A=constant_A(units),
                       constant_A_prime=constant_A_prime(K),
                       constant_B=constant_B(eps_rel, units),
                       constant_B_prime=constant_B_prime(p, units),
                       constant_D=constant_D(eps_rel, units),
                       constant_D_prime=constant_D_prime(p, units))
            return [K**2 * p**2 / (2.0 * units.m * units.hbar**2),
                    -4.0 / K**2 if p else 0.0, *row.values()]

        in_float_range(constants, momenta + "a scale or constant" + at_p)
        # each equation has its own dispersion relation at constant V;
        # pick the E that satisfies it so every residual closes: a real
        # E, and residuals in the float range, or the row is refused
        if not K * (K + 4.0 * v0) >= 0.0:
            raise ConfigurationError(
                f"solver.potential_value = {solver['potential_value']!r}: no "
                f"real E solves (E - 2V)**2 = K (E - V){at_p}")

        def residuals():
            e_nr = 0.5 * (K + 4.0 * v0 + np.sqrt(K * (K + 4.0 * v0)))
            e_rel = v0 + np.sqrt(E0**2 + (units.c * p / (1.0 + v0 / E0)) ** 2)
            e_spin = np.sqrt((units.c * p) ** 2 + E0**2) * E0 / (E0 + v0)
            st_nr = PlaneWaveState(p, e_nr - v0, e_nr, v0)
            st_spin = PlaneWaveState(p, e_spin - v0, e_spin, v0)
            row.update(
                residual_nr_stationary=residual_nr_stationary(st_nr, units),
                residual_nr_timedep=residual_nr_timedep(st_nr, units),
                residual_rel_stationary=residual_rel_stationary(
                    PlaneWaveState(p, e_rel - v0, e_rel, v0), units),
                residual_rel_timedep=residual_rel_timedep(st_spin, units),
                residual_spin_half_plus=residual_spin_half(st_spin, units, +1),
                residual_massless_plus=residual_massless(PlaneWaveState(
                    p, units.c * p, units.c * p * E0 / (E0 + v0), v0), units, +1))
            return list(row.values())

        in_float_range(residuals, f"solver.potential_value = "
                       f"{solver['potential_value']!r}: a residual{at_p}")
        rows.append(row)
    return {"kind": "residual_table", "rows": rows}, {}


class Equation(NamedTuple):
    command: str        # the CLI command that runs the equation
    atomic_c: bool      # units.c defaults to ATOMIC_C instead of 1
    run: Callable       # ScenarioConfig -> (payload, diagnostics)


#: Every equation id. Runners call the solvers through this module's
#: globals at call time, so wrapping a solver here reaches every run.
EQUATIONS = {
    "schrodinger": Equation("solve", False, _run_schrodinger),
    "modified_nr_stationary": Equation("solve", False, _run_nr_stationary),
    "modified_nr_timedep": Equation("propagate", False, _run_nr_timedep),
    "modified_rel_stationary": Equation("solve", True, _run_rel_stationary),
    "modified_rel_timedep": Equation("propagate", True, _run_rel_timedep),
    "spin_half_stationary": Equation("solve", True, _run_spin_half),
    "massless_spin_half": Equation("solve", True, _run_massless),
    "dispersion_audit": Equation("dispersion", False, _run_dispersion_audit),
}


def run_scenario(config: ScenarioConfig) -> RunReport:
    """Run one scenario; raises typed errors for exit-code mapping."""
    t0 = time.perf_counter()
    payload, diagnostics = EQUATIONS[config.equation].run(config)
    diagnostics["wall_time_s"] = time.perf_counter() - t0
    echo = canonical_json(config.raw)
    scenario = json.loads(echo)
    # the payload is encoded once, for its digest and for the report file;
    # the scenario is re-encoded (a raw key that is no string comes back
    # as one, so the echo need not be the text of ``scenario``)
    encoded = {"scenario": canonical_json(scenario),
               "payload": _payload_json(payload)}
    return RunReport(scenario, payload, diagnostics, __version__, _sha256(echo),
                     _sha256(join_canonical(encoded)), encoded)


def error_object(exc: WavekitError) -> dict:
    return {"error": type(exc).__name__, "message": str(exc),
            "exit_code": exc.exit_code, **exc.fields()}


def compare_reports(a: RunReport, b: RunReport) -> dict:
    """Per-level energy deltas and state overlap deficits of two spectra; a
    state pair with no overlap (vectors of different lengths, or a zero
    vector) is named in ``warnings``.

    Raises UsageError unless both payloads are spectra, and ValueError when
    a spectrum is truncated: no ``energies``, a state without ``re``/``im``,
    or fewer states than energies."""
    pa, pb = a.payload, b.payload
    if pa.get("kind") != "spectrum" or pb.get("kind") != "spectrum":
        raise UsageError("compare_reports needs two spectrum payloads")
    ea, eb = (_entry(p, "energies", "spectrum payload") for p in (pa, pb))
    n = min(len(ea), len(eb))
    warnings = []
    if len(ea) != len(eb):
        warnings.append(f"spectra lengths differ ({len(ea)} vs {len(eb)}); "
                        f"comparing the common prefix of {n}")
    deltas = [float(eb[i] - ea[i]) for i in range(n)]
    deficits = []
    if "states" in pa and "states" in pb:
        for p in (pa, pb):
            if len(p["states"]) != len(p["energies"]):
                raise ValueError(f"spectrum payload holds {len(p['energies'])} "
                                 f"energies but {len(p['states'])} states")
        for i in range(n):
            va, vb = _state_vector(pa["states"][i]), _state_vector(pb["states"][i])
            if va.shape != vb.shape:
                warnings.append(f"state {i}: no overlap, the vectors differ in "
                                f"length ({len(va)} vs {len(vb)})")
                continue
            na, nb = np.linalg.norm(va), np.linalg.norm(vb)
            if na > 0 and nb > 0:
                deficits.append(float(1.0 - abs(np.vdot(va, vb)) / (na * nb)))
            else:
                warnings.append(f"state {i}: no overlap, a vector has zero norm")
    out = {"energy_deltas": deltas, "n_compared": n, "warnings": warnings}
    if deficits:
        out["overlap_deficit_max"] = max(deficits)
        out["overlap_deficit_mean"] = sum(deficits) / len(deficits)
    return out


def _state_vector(state: dict) -> np.ndarray:
    """A report state as one complex vector; a spinor's down component
    (``re2``/``im2``) follows its up component."""
    parts = [("re", "im"), ("re2", "im2")] if "re2" in state else [("re", "im")]
    return np.concatenate([np.asarray(_entry(state, re, "state"))
                           + 1j * np.asarray(_entry(state, im, "state"))
                           for re, im in parts])


def _entry(node: dict, key: str, what: str):
    """``node[key]``; a ValueError naming the missing key of a truncated
    report instead of a KeyError."""
    if key not in node:
        raise ValueError(f"{what} has no {key!r}")
    return node[key]


def _set_by_path(doc: dict, dotted: str, value):
    *parents, leaf = dotted.split(".")
    node = doc
    for part in parents:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigurationError(
                f"sweep.parameter {dotted!r}: {part!r} is not a block")
    node[leaf] = value


def run_sweep(base_doc: dict, parameter: str, values, jobs: int = 1):
    """One run per value of a single varied parameter; rows in value order
    regardless of job count. Failing cells record their error and the sweep
    continues."""
    if not values:
        raise ConfigurationError("sweep value list is empty")
    docs = []
    for value in values:
        doc = copy.deepcopy(base_doc)
        _set_by_path(doc, parameter, value)
        docs.append(doc)

    def one(doc, value):
        try:
            report = run_scenario(validate_scenario(doc))
            report.encoded.clear()  # a sweep writes no report file
            return {"value": value, "status": "ok", "report": report}
        except WavekitError as exc:
            return {"value": value, "status": "error",
                    "error": error_object(exc)}

    if jobs <= 1:
        cells = [one(d, v) for d, v in zip(docs, values)]
    else:
        from concurrent.futures import ThreadPoolExecutor  # off import time

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            cells = list(pool.map(one, docs, values))
    return cells


def _csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _sweep_row(cell):
    if cell["status"] != "ok":
        return [cell["value"], "error", "", 0, cell["error"]["error"], ""]
    energies = cell["report"].payload.get("energies", [])
    return [cell["value"], "ok", energies[0] if energies else "",
            len(energies), "", cell["report"].payload_digest]


def sweep_table(cells, parameter: str) -> str:
    """Aggregation CSV: one row per swept value."""
    return _csv([parameter, "status", "ground_energy", "n_levels", "error",
                 "payload_digest"], map(_sweep_row, cells))


def spectrum_csv(report: RunReport) -> str:
    payload = report.payload
    if payload.get("kind") != "spectrum":
        raise UsageError("spectrum_csv needs a spectrum payload")
    return _csv(["index", "energy", "node_count", "self_consistency_residual"],
                ([i, repr(e), n, repr(r)] for i, (e, n, r) in enumerate(zip(
                    payload["energies"], payload["node_counts"],
                    payload["self_consistency_residuals"]))))


def frames_csv(report: RunReport) -> str:
    payload = report.payload
    if payload.get("kind") != "trajectory":
        raise UsageError("frames_csv needs a trajectory payload")
    return _csv(["t", "x", "re_psi", "im_psi"],
                ([repr(frame["t"]), repr(x), repr(re), repr(im)]
                 for frame in payload["frames"]
                 for x, re, im in zip(payload["x"], frame["re"], frame["im"])))
