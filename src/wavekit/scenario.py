"""Scenario configuration, execution, reporting, comparison and sweeps.

Configs are YAML documents (nested key-value text); reports are JSON with
deterministic ordering; field tables go to CSV. Nothing in the artifact
uses randomness, so identical configs always produce identical payloads.
"""

from __future__ import annotations

import csv
import difflib
import hashlib
import io
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import yaml

from . import __version__
from .errors import (ConfigurationError, InvalidScenarioError,
                     NonConvergenceError, NonHyperbolicRegimeError,
                     NoRootError, SingularCoefficientError,
                     SingularRegionError, StabilityError, StateTrackingError,
                     UsageError, WavekitError)
from .numgrid import Grid, WaveField
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
from .modified_rel import (RelScenario, propagate_rel_timedep,
                           solve_rel_stationary)
from .spin_half import SpinorField, solve_massless, solve_spin_half_stationary
from .units import ATOMIC_C, UnitSystem

EQUATION_IDS = (
    "schrodinger",
    "modified_nr_stationary",
    "modified_nr_timedep",
    "modified_rel_stationary",
    "modified_rel_timedep",
    "spin_half_stationary",
    "massless_spin_half",
    "dispersion_audit",
)

RELATIVISTIC_IDS = ("modified_rel_stationary", "modified_rel_timedep",
                    "spin_half_stationary", "massless_spin_half")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGENCE = 3
EXIT_SINGULAR = 4

SOLVER_DEFAULTS = {
    "n_states": 4,
    "state_index": 0,
    "e_init": 1.0,
    "tol": 1e-10,
    "max_iter": 200,
    "damping": 0.5,
    "wilson_r": 1.0,
    "dt": 1e-3,
    "steps": 100,
    "policy": "reject",
    "guard_floor": 1e-6,
    "method": "fixed_point",
    "backend": "grid",
    "e_bracket": None,
    "momenta": [0.5, 1.0, 2.0],
    "potential_value": 0.0,
    "epsilon": None,
    "E": None,
    "mode": 1,
}

OUTPUT_DEFAULTS = {"path": None, "format": "json", "frame_stride": 10}


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

    @property
    def payload_digest(self) -> str:
        blob = canonical_json({"scenario": self.scenario, "payload": self.payload})
        return hashlib.sha256(blob.encode()).hexdigest()

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "payload": self.payload,
            "diagnostics": self.diagnostics,
            "version": self.version,
            "input_digest": self.input_digest,
            "payload_digest": self.payload_digest,
        }


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=True, default=_jsonable)


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"not serializable: {type(obj)}")


def _potential_from_dict(block: dict, failures: list) -> PotentialSpec:
    if not isinstance(block, dict) or "variant" not in block:
        failures.append("potential block must contain a 'variant'")
        return PotentialSpec.free()
    try:
        return PotentialSpec(**block)
    except (ConfigurationError, TypeError) as exc:
        failures.append(f"potential: {exc}")
        return PotentialSpec.free()


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    """An integer, also when written as an integral float."""
    return _is_number(value) and float(value).is_integer()


def _is_count(value) -> bool:
    """An integer >= 1, also when written as an integral float."""
    return _is_integer(value) and value >= 1


def _is_finite(value) -> bool:
    return _is_number(value) and bool(np.isfinite(value))


def _is_bracket(value) -> bool:
    """Two finite numbers in increasing order."""
    return (isinstance(value, (list, tuple)) and len(value) == 2
            and all(_is_finite(v) for v in value) and value[0] < value[1])


#: Parse-time checks of the solver keys: (keys, check, what a value must
#: be). Every key that fails is listed with the other config failures.
SOLVER_CHECKS = (
    (("tol", "dt", "guard_floor"),
     lambda v: _is_number(v) and 0 < v < np.inf, "a number > 0"),
    (("n_states", "steps", "max_iter"), _is_count, "an integer >= 1"),
    (("state_index",), lambda v: _is_integer(v) and v >= 0, "an integer >= 0"),
    (("mode",), _is_integer, "an integer"),
    (("e_init", "wilson_r", "potential_value"), _is_finite, "a finite number"),
    (("epsilon", "E"), lambda v: v is None or _is_finite(v),
     "null or a finite number"),
    (("e_bracket",), lambda v: v is None or _is_bracket(v),
     "null or two finite increasing numbers"),
    (("momenta",), lambda v: isinstance(v, list) and all(map(_is_finite, v)),
     "a list of finite numbers"),
    (("damping",), lambda v: _is_number(v) and 0.0 < v <= 1.0,
     "a number in (0, 1]"),
    (("method",), lambda v: v in ("fixed_point", "shooting"),
     "fixed_point or shooting"),
    (("backend",), lambda v: v in ("grid", "exact"), "grid or exact"),
    (("policy",), lambda v: v in ("reject", "clamp"), "reject or clamp"),
)


def _mapping(doc: dict, name: str, failures: list) -> dict:
    """The config's ``name`` block; {} when absent, and also when it is not
    a mapping, which is listed as a failure."""
    block = doc.get(name)
    if block is None or isinstance(block, dict):
        return block or {}
    failures.append(f"{name} block must be a mapping")
    return {}


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse and validate a YAML scenario, reporting every failure at once."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"config is not valid YAML: {exc}")
    if not isinstance(doc, dict):
        raise ConfigurationError("config must be a mapping")
    failures = []

    equation = doc.get("equation")
    if equation not in EQUATION_IDS:
        near = difflib.get_close_matches(str(equation), EQUATION_IDS, n=1)
        hint = f" (did you mean {near[0]!r}?)" if near else ""
        failures.append(f"unknown equation id {equation!r}{hint}")
        equation = "schrodinger"

    units_block = dict(_mapping(doc, "units", failures))
    if "c" not in units_block:
        units_block["c"] = ATOMIC_C if equation in RELATIVISTIC_IDS else 1.0
    try:
        units = UnitSystem(**{k: units_block[k] for k in ("hbar", "m", "c", "e")
                              if k in units_block})
    except (ConfigurationError, TypeError) as exc:
        failures.append(f"units: {exc}")
        units = UnitSystem()

    potential = _potential_from_dict(doc.get("potential") or {"variant": "free"},
                                     failures)

    grid_block = doc.get("grid")
    if equation == "dispersion_audit":
        grid = Grid.line(0.0, 1.0, 8)
    elif not isinstance(grid_block, dict):
        failures.append("missing grid block")
        grid = Grid.line(0.0, 1.0, 8)
    else:
        try:
            grid = Grid(
                kind=grid_block.get("kind", "line"),
                x_min=float(grid_block.get("x_min", 0.0)),
                x_max=float(grid_block.get("x_max", 1.0)),
                n_points=int(grid_block.get("n_points", 128)),
                boundary=grid_block.get("boundary", "dirichlet"),
            )
        except (ConfigurationError, ValueError) as exc:
            failures.append(f"grid: {exc}")
            grid = Grid.line(0.0, 1.0, 8)

    solver = {**SOLVER_DEFAULTS, **_mapping(doc, "solver", failures)}
    for keys, check, what in SOLVER_CHECKS:
        for key in keys:
            if not check(solver[key]):
                failures.append(f"solver.{key} must be {what}, "
                                f"got {solver[key]!r}")

    output = {**OUTPUT_DEFAULTS, **_mapping(doc, "output", failures)}
    if output["format"] not in ("json", "csv"):
        failures.append(f"unknown output format {output['format']!r}")
    if not _is_count(output["frame_stride"]):
        failures.append("output.frame_stride must be an integer >= 1")

    if failures:
        raise ConfigurationError(
            "invalid scenario: " + "; ".join(failures), failures)
    return ScenarioConfig(equation, units, potential, grid, solver, output,
                          raw=doc)


def emit_scenario(config: ScenarioConfig) -> str:
    """YAML text whose parse reproduces the config (round-trip)."""
    return yaml.safe_dump(config.raw, sort_keys=True)


def _spectrum_payload(energies, states, node_counts, residuals, store_states=True):
    payload = {
        "kind": "spectrum",
        "energies": [float(e) for e in energies],
        "node_counts": [int(n) for n in node_counts],
        "self_consistency_residuals": [float(r) for r in residuals],
    }
    if store_states and states:
        ser = []
        for s in states:
            if isinstance(s, SpinorField):
                ser.append({"re": s.up.real.tolist(), "im": s.up.imag.tolist(),
                            "re2": s.down.real.tolist(),
                            "im2": s.down.imag.tolist()})
            else:
                ser.append({"re": s.values.real.tolist(),
                            "im": s.values.imag.tolist()})
        payload["states"] = ser
    return payload


def _trajectory_payload(trajectory, grid, steps, stride):
    """Frames at steps 0, stride, 2 stride, ... of a trajectory a stepper
    kept with the same stride; its last state is the final step, which is
    a frame only when the stride divides ``steps``."""
    frames = [{"t": float(s.t), "re": s.psi.values.real.tolist(),
               "im": s.psi.values.imag.tolist()}
              for s in trajectory[:steps // stride + 1]]
    return {"kind": "trajectory", "x": grid.x.tolist(), "frames": frames,
            "n_steps": steps}


def _initial_wave(config: ScenarioConfig):
    """Initial data for time-dependent runs: a plane-wave mode by default."""
    grid = config.grid
    mode = int(config.solver["mode"])
    k = 2.0 * np.pi * mode / (grid.x_max - grid.x_min)
    psi = np.exp(1j * k * grid.x)
    return WaveField(psi, grid), k


def run_scenario(config: ScenarioConfig) -> RunReport:
    """Dispatch one scenario; raises typed errors for exit-code mapping."""
    t0 = time.perf_counter()
    solver = config.solver
    units = config.units
    grid = config.grid
    diagnostics = {}

    if config.equation == "schrodinger":
        res = solve_schrodinger_stationary(grid, config.potential,
                                           int(solver["n_states"]), units)
        payload = _spectrum_payload(res.energies, res.states, res.node_counts,
                                    res.diagnostics["residuals"])
        diagnostics["method"] = res.diagnostics["method"]

    elif config.equation == "modified_nr_stationary":
        guard = GuardPolicy(solver["policy"], solver["guard_floor"])
        if solver["method"] == "shooting":
            bracket = solver["e_bracket"]
            if bracket is None:
                raise ConfigurationError("shooting requires solver.e_bracket")
            results = solve_stationary_shooting(grid, config.potential, bracket,
                                                units)
        else:
            results = [solve_stationary_fixed_point(
                grid, config.potential, int(solver["state_index"]),
                float(solver["e_init"]), float(solver["tol"]),
                int(solver["max_iter"]), float(solver["damping"]), units,
                guard, backend=solver["backend"])]
        payload = _spectrum_payload(
            [r.energy for r in results], [r.state for r in results],
            [r.node_count for r in results],
            [r.self_consistency_residual for r in results])
        diagnostics["iterations"] = [r.iterations for r in results]
        diagnostics["method"] = results[0].method

    elif config.equation == "modified_rel_stationary":
        scen = RelScenario(units, config.potential, grid)
        bracket = solver["e_bracket"]
        if bracket is None:
            raise ConfigurationError("modified_rel_stationary requires solver.e_bracket")
        results = solve_rel_stationary(scen, bracket)
        payload = _spectrum_payload(
            [r.energy for r in results], [r.state for r in results],
            [r.node_count for r in results],
            [r.self_consistency_residual for r in results])
        diagnostics["method"] = "shooting"

    elif config.equation in ("modified_nr_timedep", "modified_rel_timedep"):
        steps = int(solver["steps"])
        stride = int(config.output["frame_stride"])
        psi0, k = _initial_wave(config)
        if config.equation == "modified_nr_timedep":
            eps = solver["epsilon"]
            if eps is None:
                eps = (units.hbar * k) ** 2 / (2.0 * units.m)
            E = float(eps if solver["E"] is None else solver["E"])
            dpsi0 = WaveField(-1j * eps / units.hbar * psi0.values, grid)
            state0 = TimeDepState(psi0, dpsi0, 0.0, E, float(eps))
            traj = propagate_timedep(state0, config.potential,
                                     float(solver["dt"]), steps, units, stride)
        else:
            scen = RelScenario(units, config.potential, grid)
            E = float(np.sqrt((units.c * units.hbar * k) ** 2 + units.E0**2))
            dpsi0 = WaveField(-1j * E / units.hbar * psi0.values, grid)
            traj = propagate_rel_timedep(psi0, dpsi0, scen, float(solver["dt"]),
                                         steps, stride)
        payload = _trajectory_payload(traj, grid, steps, stride)
        diagnostics["final_norm"] = traj[-1].psi.norm()

    elif config.equation in ("spin_half_stationary", "massless_spin_half"):
        if config.equation == "spin_half_stationary":
            res = solve_spin_half_stationary(grid, config.potential, units,
                                             float(solver["wilson_r"]),
                                             int(solver["n_states"]))
        else:
            res = solve_massless(grid, config.potential, units,
                                 int(solver["n_states"]))
        payload = _spectrum_payload(res.energies, res.states, res.node_counts,
                                    res.diagnostics["residuals"])
        diagnostics.update({key: value for key, value in res.diagnostics.items()
                            if key != "residuals"})

    elif config.equation == "dispersion_audit":
        rows = []
        v0 = float(solver["potential_value"])
        for p in solver["momenta"]:
            p = float(p)
            E0 = units.E0
            # each equation has its own dispersion relation at constant V;
            # pick the E that satisfies it so every residual closes
            K = p**2 / (2.0 * units.m)
            e_nr = 0.5 * (K + 4.0 * v0 + np.sqrt(K * (K + 4.0 * v0)))
            e_rel = v0 + np.sqrt(E0**2 + (units.c * p / (1.0 + v0 / E0)) ** 2)
            e_spin = np.sqrt((units.c * p) ** 2 + E0**2) * E0 / (E0 + v0)
            st_nr = PlaneWaveState(p, e_nr - v0, e_nr, v0)
            st_rel = PlaneWaveState(p, e_rel - v0, e_rel, v0)
            st_spin = PlaneWaveState(p, e_spin - v0, e_spin, v0)
            st_kg = PlaneWaveState(p, e_spin - v0, e_spin, v0)
            eps_nr = K
            eps_rel = float(np.sqrt((units.c * p) ** 2 + E0**2))
            rows.append({
                "p": p,
                "constant_A": constant_A(units),
                "constant_A_prime": constant_A_prime(eps_nr),
                "constant_B": constant_B(eps_rel, units),
                "constant_B_prime": constant_B_prime(p, units),
                "constant_D": constant_D(eps_rel, units),
                "constant_D_prime": constant_D_prime(p, units),
                "residual_nr_stationary": residual_nr_stationary(st_nr, units),
                "residual_nr_timedep": residual_nr_timedep(st_nr, units),
                "residual_rel_stationary": residual_rel_stationary(st_rel, units),
                "residual_rel_timedep": residual_rel_timedep(st_kg, units),
                "residual_spin_half_plus": residual_spin_half(st_spin, units, +1),
                "residual_massless_plus": residual_massless(
                    PlaneWaveState(p, units.c * p,
                                   units.c * p * units.E0 / (units.E0 + v0),
                                   v0),
                    units, +1),
            })
        payload = {"kind": "residual_table", "rows": rows}

    else:  # pragma: no cover - parse_scenario guards the id
        raise ConfigurationError(f"unknown equation {config.equation!r}")

    diagnostics["wall_time_s"] = time.perf_counter() - t0
    scenario_echo = json.loads(canonical_json(config.raw))
    digest = hashlib.sha256(canonical_json(config.raw).encode()).hexdigest()
    return RunReport(scenario_echo, payload, diagnostics, __version__, digest)


ERROR_EXIT_CODES = (
    (ConfigurationError, EXIT_CONFIG),
    (SingularRegionError, EXIT_SINGULAR),
    (NonHyperbolicRegimeError, EXIT_SINGULAR),
    (SingularCoefficientError, EXIT_SINGULAR),
    (InvalidScenarioError, EXIT_CONFIG),
    (NonConvergenceError, EXIT_NONCONVERGENCE),
    (StateTrackingError, EXIT_NONCONVERGENCE),
    (NoRootError, EXIT_NONCONVERGENCE),
    (StabilityError, EXIT_NONCONVERGENCE),
    (UsageError, EXIT_CONFIG),
)


def exit_code_for(exc: WavekitError) -> int:
    for cls, code in ERROR_EXIT_CODES:
        if isinstance(exc, cls):
            return code
    return EXIT_CONFIG


def error_object(exc: WavekitError) -> dict:
    obj = {"error": type(exc).__name__, "message": str(exc),
           "exit_code": exit_code_for(exc)}
    if isinstance(exc, SingularRegionError):
        obj["singular_kind"] = exc.singular_set.kind
        obj["locations"] = list(exc.singular_set.locations)
    if isinstance(exc, NonHyperbolicRegimeError):
        obj["locations"] = [float(x) for x in exc.offending_positions]
    if isinstance(exc, NonConvergenceError):
        obj["iterate_history"] = [float(x) for x in exc.history]
    if isinstance(exc, ConfigurationError):
        obj["failures"] = exc.failures
    return obj


def compare_reports(a: RunReport, b: RunReport) -> dict:
    """Per-level energy deltas and state overlap deficits of two spectra."""
    pa, pb = a.payload, b.payload
    if pa.get("kind") != "spectrum" or pb.get("kind") != "spectrum":
        raise UsageError("compare_reports needs two spectrum payloads")
    ea, eb = pa["energies"], pb["energies"]
    n = min(len(ea), len(eb))
    warnings = []
    if len(ea) != len(eb):
        warnings.append(f"spectra lengths differ ({len(ea)} vs {len(eb)}); "
                        f"comparing the common prefix of {n}")
    deltas = [float(eb[i] - ea[i]) for i in range(n)]
    deficits = []
    if "states" in pa and "states" in pb:
        for i in range(n):
            sa, sb = pa["states"][i], pb["states"][i]
            va = np.asarray(sa["re"]) + 1j * np.asarray(sa["im"])
            vb = np.asarray(sb["re"]) + 1j * np.asarray(sb["im"])
            if va.shape == vb.shape:
                na = np.linalg.norm(va)
                nb = np.linalg.norm(vb)
                if na > 0 and nb > 0:
                    deficits.append(
                        float(1.0 - abs(np.vdot(va, vb)) / (na * nb)))
    out = {"energy_deltas": deltas, "n_compared": n, "warnings": warnings}
    if deficits:
        out["overlap_deficit_max"] = max(deficits)
        out["overlap_deficit_mean"] = sum(deficits) / len(deficits)
    return out


def _set_by_path(doc: dict, dotted: str, value):
    parts = dotted.split(".")
    node = doc
    for p in parts[:-1]:
        node = node.setdefault(p, {})
    node[parts[-1]] = value


def run_sweep(base_doc: dict, parameter: str, values, jobs: int = 1):
    """One run per value of a single varied parameter; rows in value order
    regardless of job count. Failing cells record their error and the sweep
    continues."""
    if not values:
        raise ConfigurationError("sweep value list is empty")

    def one(value):
        doc = json.loads(canonical_json(base_doc))
        _set_by_path(doc, parameter, value)
        try:
            config = parse_scenario(yaml.safe_dump(doc))
            report = run_scenario(config)
            return {"value": value, "status": "ok", "report": report}
        except WavekitError as exc:
            return {"value": value, "status": "error",
                    "error": error_object(exc)}

    if jobs <= 1:
        cells = [one(v) for v in values]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            cells = list(pool.map(one, values))
    return cells


def sweep_table(cells, parameter: str) -> str:
    """Aggregation CSV: one row per swept value."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([parameter, "status", "ground_energy", "n_levels",
                     "error", "payload_digest"])
    for cell in cells:
        if cell["status"] == "ok":
            payload = cell["report"].payload
            energies = payload.get("energies", [])
            writer.writerow([cell["value"], "ok",
                             energies[0] if energies else "",
                             len(energies), "",
                             cell["report"].payload_digest])
        else:
            writer.writerow([cell["value"], "error", "", 0,
                             cell["error"]["error"], ""])
    return buf.getvalue()


def spectrum_csv(report: RunReport) -> str:
    payload = report.payload
    if payload.get("kind") != "spectrum":
        raise UsageError("spectrum_csv needs a spectrum payload")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["index", "energy", "node_count",
                     "self_consistency_residual"])
    for i, (e, n, r) in enumerate(zip(payload["energies"],
                                      payload["node_counts"],
                                      payload["self_consistency_residuals"])):
        writer.writerow([i, repr(e), n, repr(r)])
    return buf.getvalue()


def frames_csv(report: RunReport) -> str:
    payload = report.payload
    if payload.get("kind") != "trajectory":
        raise UsageError("frames_csv needs a trajectory payload")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    spinor = payload["frames"] and "re2" in payload["frames"][0]
    header = ["t", "x", "re_psi", "im_psi"]
    if spinor:
        header += ["re_psi2", "im_psi2"]
    writer.writerow(header)
    xs = payload["x"]
    for frame in payload["frames"]:
        for j, x in enumerate(xs):
            row = [repr(frame["t"]), repr(x), repr(frame["re"][j]),
                   repr(frame["im"][j])]
            if spinor:
                row += [repr(frame["re2"][j]), repr(frame["im2"][j])]
            writer.writerow(row)
    return buf.getvalue()
