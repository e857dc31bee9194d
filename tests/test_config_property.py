"""Property: any generated config ends, through ``cli.main``, in a report
(exit 0) that holds finite numbers only, or a typed error with its mapped
exit code (2, 3 or 4); it never raises, and no warning is raised either
(each case runs with warnings as errors). Each case of the first property
is a valid config (or sweep config) with up to two faults: malformed
values, misspelled keys and broken blocks, in every block. Each case of
the second is a valid config with one to three numbers (a solver key, a
grid bound, a unit constant or a potential parameter) at a magnitude near
an end of the float range. Both draw as many derandomized cases as the
Hypothesis profile asks (``tests/conftest.py``): 300 by default, 2000 under
``--hypothesis-profile=long``."""

import json
import math
import tempfile
import warnings
from pathlib import Path

import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wavekit import cli

#: Equation id -> the command that runs it (the scenario table's command
#: column, written out so a wrong entry there shows here too).
COMMAND_OF = {
    "schrodinger": "solve",
    "modified_nr_stationary": "solve",
    "modified_nr_timedep": "propagate",
    "modified_rel_stationary": "solve",
    "modified_rel_timedep": "propagate",
    "spin_half_stationary": "solve",
    "massless_spin_half": "solve",
    "dispersion_audit": "dispersion",
}

JUNK = st.sampled_from([None, "x", -1, 0, 2.5, 64.7, math.nan, math.inf,
                        [], [1.0], [2.0, 1.0], {"a": 1}, True])

#: Valid values per block and key, kept small: n_points <= 64, steps <= 20.
#: The extremes (1e-200 and 1e200 constants, +-1e308 grid bounds) are valid
#: values whose derived scales leave the float range.
VALID = {
    "units": {
        "hbar": st.sampled_from([1.0, 0.5, 1e-200, 1e200]),
        "m": st.sampled_from([1.0, 2.0, 1e-200, 1e200]),
        "c": st.sampled_from([1.0, 10.0, 137.035999, 1e-200, 1e200]),
    },
    "grid": {
        "kind": st.sampled_from(["line", "radial"]),
        "x_min": st.sampled_from([-4.0, 0.0, 0.5, -1e308]),
        "x_max": st.sampled_from([1.0, 4.0, 2 * math.pi, 1e308]),
        "n_points": st.integers(8, 64),
        "boundary": st.sampled_from(["dirichlet", "periodic"]),
    },
    "solver": {
        "n_states": st.integers(1, 4),
        "state_index": st.integers(0, 3),
        "e_init": st.sampled_from([-3.0, -1.0, 0.5, 1.0]),
        "tol": st.sampled_from([1e-10, 1e-6]),
        "max_iter": st.integers(1, 20),
        "damping": st.sampled_from([0.5, 1.0]),
        "wilson_r": st.sampled_from([0.0, 1.0]),
        "dt": st.sampled_from([1e-3, 1e-2]),
        "steps": st.integers(1, 20),
        "policy": st.sampled_from(["reject", "clamp"]),
        "guard_floor": st.sampled_from([1e-6, 1e-3]),
        "method": st.sampled_from(["fixed_point", "shooting"]),
        "backend": st.sampled_from(["grid", "exact"]),
        "e_bracket": st.sampled_from([None, [-3.5, -0.5], [0.5, 20.0]]),
        "momenta": st.sampled_from([[0.5, 1.0], []]),
        "potential_value": st.sampled_from([0.0, 0.3]),
        "epsilon": st.sampled_from([None, 0.5]),
        "E": st.sampled_from([None, 0.7]),
        "mode": st.integers(-2, 3),
    },
    "output": {"frame_stride": st.integers(1, 5)},
}

#: Keys always drawn, so that no run falls back to a large default.
ALWAYS = {"grid": ("n_points",), "solver": ("steps", "max_iter")}

POTENTIALS = st.sampled_from([
    {"variant": "free"},
    {"variant": "square_well", "depth": 4.0, "half_width": 1.0},
    {"variant": "harmonic", "omega": 1.0},
    {"variant": "step", "height": 2.0, "edge": 0.5},
    {"variant": "piecewise_constant", "breakpoints": [0.5], "values": [0.0, -2.0]},
])

BAD_POTENTIALS = st.sampled_from([
    {"variant": "square_well", "depth": math.nan, "half_width": 1.0},
    {"variant": "harmonic", "omeg": 1.0},
    {"variant": "quartic"},
    "free",
])

SWEEPS = st.fixed_dictionaries({
    "parameter": st.sampled_from(["grid.n_points", "solver.n_states",
                                  "potential.depth", "units.c"]),
    "values": st.sampled_from([[16, 32], [1, 2], [2.0]]),
})

#: Ways to break a config; each case applies none, one or two of them.
FAULTS = ("junk value", "misspelled key", "junk block", "junk equation",
          "bad potential", "unknown block", "wrong command",
          "junk sweep entry", "misspelled sweep key", "junk sweep block")


@st.composite
def cases(draw):
    """(command, config doc)."""
    equation = draw(st.sampled_from(sorted(COMMAND_OF)))
    command = COMMAND_OF[equation]
    doc = {"equation": equation, "potential": draw(POTENTIALS)}
    for name, fields in VALID.items():
        keys = set(ALWAYS.get(name, ()))
        keys |= set(draw(st.lists(st.sampled_from(sorted(fields)), max_size=5)))
        doc[name] = {key: draw(fields[key]) for key in sorted(keys)}
    if draw(st.sampled_from([False, False, False, True])):
        command = "sweep"
        doc["sweep"] = draw(SWEEPS)
    for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=2)):
        name = draw(st.sampled_from(sorted(VALID)))
        key = draw(st.sampled_from(sorted(VALID[name])))
        block = doc[name] if isinstance(doc[name], dict) else {}
        sweep = doc["sweep"] if isinstance(doc.get("sweep"), dict) else {}
        if fault == "junk value":
            block[key] = draw(JUNK)
        elif fault == "misspelled key":
            block[key[:-1]] = block.pop(key, 1)
        elif fault == "junk block":
            doc[name] = draw(JUNK)
        elif fault == "junk equation":
            doc["equation"] = draw(st.sampled_from(["schrodingr", None, 3, []]))
        elif fault == "bad potential":
            doc["potential"] = draw(BAD_POTENTIALS)
        elif fault == "unknown block":
            doc["solvr"] = {"n_states": 2}
        elif fault == "wrong command":
            command = draw(st.sampled_from(["solve", "propagate", "dispersion"]))
        elif fault == "junk sweep entry":
            sweep[draw(st.sampled_from(["parameter", "values"]))] = draw(
                st.sampled_from([5, "", "equation.x", "grid..x", 3, [], None]))
        elif fault == "misspelled sweep key":
            sweep["paramter"] = sweep.pop("parameter", None)
        elif "sweep" in doc:
            doc["sweep"] = draw(JUNK)
    return command, doc


def _refuse_constant(name):
    raise ValueError(f"a report holds {name}")


def _ends_in_report_or_typed_error(command, doc):
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "config.yaml", Path(tmp) / "out"
        cfg.write_text(yaml.safe_dump(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main([command, "--config", str(cfg), "--out", str(out),
                             "--quiet"])
        assert code in (0, 2, 3, 4)
        if code == 0 and command != "sweep":  # a sweep writes a CSV table
            json.loads(out.read_text(), parse_constant=_refuse_constant)


@settings(derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_cli_any_config_ends_in_report_or_typed_error(case):
    _ends_in_report_or_typed_error(*case)


MAGNITUDES = st.builds(
    lambda sign, size: sign * size, st.sampled_from([1.0, -1.0]),
    st.sampled_from([0.0, 5e-324, 1e-300, 1e-160, 1e-20, 1e154, 1e300, 1.7e308]))

#: The numeric keys of each block that a case may set to a magnitude; not
#: the step and iteration counts, which a magnitude turns into a long run.
NUMERIC = {
    "units": ("hbar", "m", "c"),
    "grid": ("x_min", "x_max"),
    "solver": ("n_states", "state_index", "e_init", "tol", "damping",
               "wilson_r", "dt", "guard_floor", "e_bracket", "momenta",
               "potential_value", "epsilon", "E", "mode"),
}

EXTREME_POTENTIALS = st.sampled_from([
    {"variant": "square_well", "depth": 4.0, "half_width": 1.0, "center": 0.0},
    {"variant": "step", "height": 2.0, "edge": 0.5},
    {"variant": "barrier", "height": 2.0, "left": -0.5, "right": 0.5},
    {"variant": "harmonic", "omega": 1.0, "mass": 1.0, "center": 0.0},
    {"variant": "coulomb", "strength": 1.0},
    {"variant": "piecewise_constant", "breakpoints": [-0.5, 0.5],
     "values": [0.0, -2.0, 1.0]},
    {"variant": "tabulated", "sample_x": [-1e3, 1e3], "sample_v": [0.0, 1.0]},
])


@st.composite
def extreme_cases(draw):
    """(command, config doc) of a valid config with extreme numbers."""
    equation = draw(st.sampled_from(sorted(COMMAND_OF)))
    potential = dict(draw(EXTREME_POTENTIALS))
    doc = {"equation": equation, "potential": potential}
    for name, fields in VALID.items():
        keys = set(ALWAYS.get(name, ()))
        keys |= set(draw(st.lists(st.sampled_from(sorted(fields)), max_size=5)))
        doc[name] = {key: draw(fields[key]) for key in sorted(keys)}
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(["potential", *sorted(NUMERIC)]))
        if name == "potential":
            key = draw(st.sampled_from(sorted(set(potential) - {"variant"})))
            if isinstance(potential[key], list):
                entries = list(potential[key])
                entries[draw(st.integers(0, len(entries) - 1))] = draw(MAGNITUDES)
                potential[key] = entries
            else:
                potential[key] = draw(MAGNITUDES)
            continue
        key = draw(st.sampled_from(NUMERIC[name]))
        if key == "e_bracket":
            value = sorted([draw(MAGNITUDES), draw(MAGNITUDES)])
        elif key == "momenta":
            value = [0.5, draw(MAGNITUDES)]
        else:
            value = draw(MAGNITUDES)
        doc[name][key] = value
    return COMMAND_OF[equation], doc


@settings(derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(extreme_cases())
def test_cli_extreme_magnitudes_end_in_report_or_typed_error(case):
    _ends_in_report_or_typed_error(*case)
