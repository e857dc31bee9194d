import copy
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import wavekit
from wavekit import cli, errors, scenario
from wavekit import modified_nr as mnr
from wavekit import modified_rel as mrel
from wavekit.errors import ConfigurationError
from wavekit.numgrid import WaveField, count_nodes
from wavekit.potentials import E_EQUALS_V, SingularSet
from wavekit.units import ATOMIC_C


BOX = """\
equation: schrodinger
grid: {kind: line, x_min: 0.0, x_max: 1.0, n_points: 256}
potential: {variant: free}
solver: {n_states: 3}
"""

HARMONIC_REJECT = """\
equation: modified_nr_stationary
grid: {kind: line, x_min: -6.0, x_max: 6.0, n_points: 400}
potential: {variant: harmonic, omega: 1.0}
solver: {e_init: 1.0, state_index: 0, policy: reject}
"""


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# -- parsing ----------------------------------------------------------------

def test_parse_minimal_box():
    config = scenario.parse_scenario(BOX)
    assert config.equation == "schrodinger"
    assert config.grid.n_points == 256
    assert config.solver["n_states"] == 3
    assert config.solver["tol"] == 1e-10  # default filled in


def test_parse_aggregates_all_failures():
    bad = """\
equation: schroedinger
potential: {variant: quartic}
solver: {n_states: 0, damping: 1.5}
"""
    with pytest.raises(ConfigurationError) as exc:
        scenario.parse_scenario(bad)
    failures = exc.value.failures
    assert len(failures) >= 4
    joined = " ".join(failures)
    assert "n_states" in joined and "damping" in joined


def test_parse_unknown_id_suggests_nearest():
    with pytest.raises(ConfigurationError) as exc:
        scenario.parse_scenario("equation: schrodingr\ngrid: {}\n")
    assert "did you mean 'schrodinger'" in str(exc.value)


def test_parse_rejects_non_mapping():
    with pytest.raises(ConfigurationError):
        scenario.parse_scenario("- 1\n- 2\n")


def test_emit_parse_roundtrip():
    config = scenario.parse_scenario(BOX)
    text = yaml.safe_dump(config.raw, sort_keys=True)
    again = scenario.parse_scenario(text)
    assert again.raw == config.raw


# -- determinism ------------------------------------------------------------

def test_repeated_runs_share_payload_digest():
    config = scenario.parse_scenario(BOX)
    r1 = scenario.run_scenario(config)
    r2 = scenario.run_scenario(config)
    assert r1.payload_digest == r2.payload_digest
    assert r1.input_digest == r2.input_digest
    # wall time may differ but lives outside the digested payload
    assert r1.diagnostics["wall_time_s"] != r2.payload_digest


def test_compare_report_with_itself_is_zero():
    report = scenario.run_scenario(scenario.parse_scenario(BOX))
    delta = scenario.compare_reports(report, report)
    assert delta["n_compared"] == 3
    assert delta["warnings"] == []
    np.testing.assert_allclose(delta["energy_deltas"], 0.0)
    assert delta["overlap_deficit_max"] < 1e-14


def test_compare_overlap_is_blind_to_the_norm_of_either_state():
    # each state doubled: the overlap deficit divides by both norms, so it
    # stays 0; dividing by |a|^2 would read 1 - 2 = -1
    report = scenario.run_scenario(scenario.parse_scenario(BOX))
    payload = copy.deepcopy(report.payload)
    for state in payload["states"]:
        state["re"] = [2.0 * x for x in state["re"]]
        state["im"] = [2.0 * x for x in state["im"]]
    doubled = scenario.RunReport(report.scenario, payload, {}, "", "", "")
    for a, b in ((report, doubled), (doubled, report)):
        assert abs(scenario.compare_reports(a, b)["overlap_deficit_max"]) < 1e-14


def test_compare_reads_both_spinor_components():
    # the well binds states whose down component holds nearly all the norm
    report = scenario.run_scenario(scenario.parse_scenario("""\
equation: spin_half_stationary
grid: {kind: line, x_min: -4.0, x_max: 4.0, n_points: 64}
potential: {variant: square_well, depth: 50.0, half_width: 1.0}
solver: {n_states: 4}
"""))
    payload = copy.deepcopy(report.payload)
    for state in payload["states"]:
        state["re2"] = [0.0] * len(state["re2"])
        state["im2"] = [0.0] * len(state["im2"])
    no_down = scenario.RunReport(report.scenario, payload, {}, "", "", "")
    assert scenario.compare_reports(report, report)["overlap_deficit_max"] < 1e-14
    delta = scenario.compare_reports(report, no_down)
    assert delta["energy_deltas"] == [0.0] * 4
    assert delta["overlap_deficit_max"] > 0.99


@pytest.mark.parametrize("cls, code", [
    (errors.WavekitError, 2), (errors.ConfigurationError, 2),
    (errors.UsageError, 2), (errors.DomainError, 2),
    (errors.SingularRegionError, 4), (errors.SingularCoefficientError, 4),
    (errors.NonHyperbolicRegimeError, 4), (errors.NonConvergenceError, 3),
    (errors.StateTrackingError, 3), (errors.NoRootError, 3),
    (errors.StabilityError, 3), (errors.InvalidScenarioError, 2),
    (errors.OutOfScopeError, 2),
])
def test_error_classes_carry_their_exit_codes(cls, code):
    assert cls.exit_code == code
    assert (scenario.EXIT_OK, scenario.EXIT_CONFIG, scenario.EXIT_NONCONVERGENCE,
            scenario.EXIT_SINGULAR) == (0, 2, 3, 4)


def test_error_objects_carry_the_fields_of_their_class():
    sset = SingularSet(E_EQUALS_V, (0.5,), 0.1)
    cases = [
        (errors.ConfigurationError("bad", ["a", "b"]), {"failures": ["a", "b"]}),
        (errors.SingularRegionError("s", sset),
         {"singular_kind": E_EQUALS_V, "locations": [0.5]}),
        (errors.NonHyperbolicRegimeError("h", np.array([1.5, 2.0])),
         {"locations": [1.5, 2.0]}),
        (errors.NonConvergenceError("n", [np.float64(1.0), 2]),
         {"iterate_history": [1.0, 2.0]}),
        (errors.NoRootError("r"), {}),
    ]
    for exc, fields in cases:
        obj = scenario.error_object(exc)
        assert obj == {"error": type(exc).__name__, "message": str(exc),
                       "exit_code": exc.exit_code, **fields}
        assert json.loads(scenario.canonical_json(obj)) == obj


# -- sweeps -----------------------------------------------------------------

def test_sweep_rows_independent_of_jobs():
    doc = yaml.safe_load(BOX)
    values = [64, 128, 256, 512]
    serial = scenario.run_sweep(doc, "grid.n_points", values, jobs=1)
    threaded = scenario.run_sweep(doc, "grid.n_points", values, jobs=4)
    assert scenario.sweep_table(serial, "grid.n_points") == \
        scenario.sweep_table(threaded, "grid.n_points")


def test_sweep_keeps_going_past_failing_cells():
    doc = yaml.safe_load(BOX)
    cells = scenario.run_sweep(doc, "solver.n_states", [2, 0, 3])
    assert [c["status"] for c in cells] == ["ok", "error", "ok"]
    assert cells[1]["error"]["exit_code"] == scenario.EXIT_CONFIG


# -- CSV contracts ----------------------------------------------------------

def test_spectrum_csv_header_and_rows():
    report = scenario.run_scenario(scenario.parse_scenario(BOX))
    lines = scenario.spectrum_csv(report).splitlines()
    assert lines[0] == "index,energy,node_count,self_consistency_residual"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0"
    np.testing.assert_allclose(float(first[1]), np.pi**2 / 2.0, rtol=1e-4)


@pytest.mark.parametrize("n_points", [64, 400])
@pytest.mark.parametrize("index", [1, 2])
def test_periodic_fixed_point_reports_the_nodes_of_its_state(n_points, index):
    # on a ring the state index is the eigenvalue index; the degenerate
    # pair at E = 1/2 has states of 2 and 1 nodes in LAPACK's basis, and
    # the payload counts the nodes of the state it holds
    text = f"""\
equation: modified_nr_stationary
grid: {{kind: line, x_min: 0.0, x_max: 6.283185307179586, n_points: {n_points}, boundary: periodic}}
potential: {{variant: free}}
solver: {{state_index: {index}, e_init: 0.4}}
"""
    payload = scenario.run_scenario(scenario.parse_scenario(text)).payload
    state = payload["states"][0]
    values = np.array(state["re"]) + 1j * np.array(state["im"])
    assert payload["node_counts"] == [count_nodes(values)]
    assert abs(payload["energies"][0] - 0.5) < 1e-3


def test_frames_csv_header():
    text = """\
equation: modified_nr_timedep
grid: {kind: line, x_min: 0.0, x_max: 6.283185307179586, n_points: 64, boundary: periodic}
potential: {variant: free}
solver: {dt: 1.0e-3, steps: 20}
"""
    report = scenario.run_scenario(scenario.parse_scenario(text))
    lines = scenario.frames_csv(report).splitlines()
    assert lines[0] == "t,x,re_psi,im_psi"
    assert len(lines) == 1 + 3 * 64  # frames at steps 0, 10, 20


@pytest.mark.parametrize("equation", ["modified_nr_timedep",
                                      "modified_rel_timedep"])
def test_propagate_payload_equals_full_trajectory_frames(equation):
    text = f"""\
equation: {equation}
units: {{c: 1.0}}
grid: {{kind: line, x_min: 0.0, x_max: 6.283185307179586, n_points: 64, boundary: periodic}}
potential: {{variant: free}}
solver: {{mode: 2, dt: 1.0e-3, steps: 47}}
output: {{frame_stride: 10}}
"""
    config = scenario.parse_scenario(text)
    report = scenario.run_scenario(config)
    # the whole trajectory, framed as every stride-th state
    psi0, k = scenario._initial_wave(config)
    if equation == "modified_nr_timedep":
        eps = k**2 / 2.0
        state0 = mnr.TimeDepState(psi0, WaveField(-1j * eps * psi0.values,
                                                  config.grid), 0.0, eps, eps)
        full = mnr.propagate_timedep(state0, config.potential, 1e-3, 47,
                                     config.units)
    else:
        omega = np.sqrt(k**2 + 1.0)
        full = mrel.propagate_rel_timedep(
            psi0, WaveField(-1j * omega * psi0.values, config.grid),
            mrel.RelScenario(config.units, config.potential, config.grid),
            1e-3, 47)
    frames = [{"t": float(s.t), "re": s.psi.values.real.tolist(),
               "im": s.psi.values.imag.tolist()} for s in full[::10]]
    want = {"kind": "trajectory", "x": config.grid.x.tolist(),
            "frames": frames, "n_steps": 47}
    assert scenario.canonical_json(report.payload) == scenario.canonical_json(want)
    assert report.diagnostics["final_norm"] == full[-1].psi.norm()


# -- CLI exit codes ---------------------------------------------------------

def test_cli_solve_ok(tmp_path, capsys):
    cfg = _write(tmp_path, "box.yaml", BOX)
    out = str(tmp_path / "report.json")
    assert cli.main(["solve", "--config", cfg, "--out", out]) == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    np.testing.assert_allclose(doc["payload"]["energies"][0],
                               np.pi**2 / 2.0, rtol=1e-4)


def test_cli_missing_config_exits_2(tmp_path):
    code = cli.main(["solve", "--config", str(tmp_path / "nope.yaml"),
                     "--quiet"])
    assert code == 2


@pytest.mark.parametrize("command", ["solve", "sweep"])
@pytest.mark.parametrize("unreadable", ["directory", "undecodable"])
def test_cli_unreadable_config_exits_2(tmp_path, command, unreadable):
    if unreadable == "directory":
        cfg = tmp_path / "configs"
        cfg.mkdir()
    else:
        cfg = tmp_path / "latin1.yaml"
        cfg.write_bytes(b"equation: schr\xf6dinger\n")
    out = tmp_path / "err.json"
    assert cli.main([command, "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 2
    obj = json.loads(out.read_text())
    assert obj["error"] == "ConfigurationError"
    assert obj["message"].startswith(f"cannot read config {cfg}")


def test_cli_bad_config_exits_2(tmp_path):
    cfg = _write(tmp_path, "bad.yaml", "equation: nonsense\ngrid: {}\n")
    assert cli.main(["solve", "--config", cfg, "--quiet"]) == 2


@pytest.mark.parametrize("solver, error", [
    ("{e_init: -11.0, state_index: 0, max_iter: 3, tol: 1.0e-14}",
     "NonConvergenceError"),
    # an index past the grid's unknowns, or one whose energy bound leaves
    # the float range (the exact backend once overflowed in a traceback)
    ("{e_init: -11.0, state_index: 1.0e+300}", "StateTrackingError"),
    ("{backend: exact, e_init: -11.0, state_index: 1.0e+300}",
     "StateTrackingError"),
], ids=["stall", "grid_index_1e300", "exact_index_1e300"])
def test_cli_nonconvergence_exits_3(tmp_path, solver, error):
    cfg = _write(tmp_path, "stall.yaml", f"""\
equation: modified_nr_stationary
grid: {{kind: line, x_min: -4.0, x_max: 4.0, n_points: 200}}
potential: {{variant: square_well, depth: 20.0, half_width: 1.0}}
solver: {solver}
""")
    out = tmp_path / "err.json"
    assert cli.main(["solve", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 3
    assert json.loads(out.read_text())["error"] == error


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("index", ["1.0e+17", "1.0e+20", "1.0e+30", "1.0e+100",
                                   "1.0e+150"])
def test_cli_exact_index_past_the_float_resolution_exits_3(tmp_path, index):
    # the levels of such an index lie closer together than the float
    # spacing at their bound: refused up front with a typed error, where a
    # walk once ended in NoRootError or, from 1e20, in a cast warning that
    # -W error made a traceback
    cfg = _write(tmp_path, "huge.yaml", f"""\
equation: modified_nr_stationary
grid: {{kind: line, x_min: -8.0, x_max: 8.0, n_points: 400}}
potential: {{variant: square_well, depth: 4.0, half_width: 1.0}}
solver: {{backend: exact, e_init: -3.0, state_index: {index}}}
""")
    out = tmp_path / "err.json"
    assert cli.main(["solve", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 3
    error = json.loads(out.read_text())
    assert error["error"] == "StateTrackingError"
    assert "float spacing" in error["message"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", [
    *("equation: modified_nr_stationary\n"
      "grid: {kind: line, x_min: 0.0, x_max: 1.0, n_points: 64}\n"
      "potential: {variant: free}\n"
      f"solver: {{backend: exact, state_index: {k}, e_init: {e!r}}}\n"
      for k, e in [(10**12, 4.934802200554548e+24), (10**13, 4.934802200545666e+26),
                   (10**14, 4.9348022005447775e+28)]),
    "equation: modified_rel_stationary\n"
    "grid: {kind: line, x_min: 0.0, x_max: 1.0, n_points: 16}\n"
    "potential: {variant: step, height: 0.3, edge: 0.5}\n"
    "solver: {e_bracket: [1.0e-300, 1.0e+154]}\n",
    "equation: modified_rel_stationary\n"
    "grid: {kind: line, x_min: -8.0, x_max: 8.0, n_points: 16}\n"
    "potential: {variant: square_well, depth: 1.0, half_width: 1.0e+154}\n"
    "solver: {e_bracket: [-1.0e+154, 1.0e+154]}\n",
], ids=["exact_state_1e12", "exact_state_1e13", "exact_state_1e14",
        "rel_step_bracket_1e154", "rel_well_half_width_1e154"])
def test_cli_zero_count_past_its_phase_bound_exits_3(tmp_path, text):
    # a region phase past 1e12 rad, where a zero count can drop more than
    # the one zero its parity check restores: the exact fixed point once
    # reported state 1e14 + 314 as state 1e14 (1e12 and 1e13 ended in
    # NoRootError), and relativistic shooting roots with phases near 5e147
    # once reported node counts of -2**63 (a traceback under -W error)
    cfg = _write(tmp_path, "phase.yaml", text)
    out = tmp_path / "err.json"
    assert cli.main(["solve", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 3
    error = json.loads(out.read_text())
    assert error["error"] == "StateTrackingError" and "phase" in error["message"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("v0", ["-0.2", "-0.0625", "-0.999", "-1.0", "-1.0e+154"])
def test_cli_dispersion_audit_without_a_real_energy_exits_2(tmp_path, v0):
    # at p = 0.5, K (K + 4V) < 0: no real E solves (E - 2V)**2 = K (E - V);
    # the row once held NaN residuals (a traceback under -W error)
    cfg = _write(tmp_path, "disp.yaml", "equation: dispersion_audit\n"
                 f"solver: {{momenta: [0.5], potential_value: {v0}}}\n")
    out = tmp_path / "err.json"
    assert cli.main(["dispersion", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 2
    error = json.loads(out.read_text())
    assert error["error"] == "ConfigurationError"
    assert "solver.potential_value" in error["message"]
    assert "p = 0.5" in error["message"]


def test_cli_singular_region_exits_4_with_locations(tmp_path):
    cfg = _write(tmp_path, "reject.yaml", HARMONIC_REJECT)
    out = str(tmp_path / "err.json")
    code = cli.main(["solve", "--config", cfg, "--out", out, "--quiet"])
    assert code == 4
    obj = json.loads((tmp_path / "err.json").read_text())
    assert obj["error"] == "SingularRegionError"
    locs = sorted(obj["locations"])
    np.testing.assert_allclose(locs, [-np.sqrt(2.0), np.sqrt(2.0)], atol=1e-9)


def test_cli_dispersion_audit_runs(tmp_path):
    cfg = _write(tmp_path, "audit.yaml", """\
equation: dispersion_audit
units: {c: 137.035999}
solver: {momenta: [0.5, 1.0, 2.0], potential_value: 0.3}
""")
    out = str(tmp_path / "audit.json")
    assert cli.main(["dispersion", "--config", cfg, "--out", out,
                     "--quiet"]) == 0
    doc = json.loads((tmp_path / "audit.json").read_text())
    rows = doc["payload"]["rows"]
    assert len(rows) == 3
    for row in rows:
        for key, value in row.items():
            if key.startswith("residual"):
                # relativistic residuals are O((cp)^2) quantities, so a
                # cancellation floor of ~1e-11 relative is expected
                assert abs(value) < 1e-6, (key, value)


def test_cli_compare_roundtrip(tmp_path, capsys):
    cfg = _write(tmp_path, "box.yaml", BOX)
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    assert cli.main(["solve", "--config", cfg, "--out", a, "--quiet"]) == 0
    assert cli.main(["solve", "--config", cfg, "--out", b, "--quiet"]) == 0
    assert cli.main(["compare", a, b, "--quiet",
                     "--out", str(tmp_path / "delta.json")]) == 0
    delta = json.loads((tmp_path / "delta.json").read_text())
    np.testing.assert_allclose(delta["energy_deltas"], 0.0)


def test_cli_report_is_canonical_json_with_a_recomputable_digest(tmp_path,
                                                                capsys):
    cfg = _write(tmp_path, "box.yaml", BOX)
    out = tmp_path / "report.json"
    assert cli.main(["solve", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
    text = out.read_text()
    doc = json.loads(text)
    assert text == scenario.canonical_json(doc)  # compact, sorted, one line
    blob = scenario.canonical_json({"scenario": doc["scenario"],
                                    "payload": doc["payload"]})
    assert doc["payload_digest"] == hashlib.sha256(blob.encode()).hexdigest()
    report = scenario.run_scenario(scenario.parse_scenario(BOX))
    assert report.payload_digest == doc["payload_digest"]
    assert report.to_dict()["payload_digest"] == doc["payload_digest"]
    # the stdout echo is the same text
    assert cli.main(["solve", "--config", cfg]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["payload_digest"] == doc["payload_digest"]


PERIODIC = ("grid: {kind: line, x_min: 0.0, x_max: 6.283185307179586, "
            "n_points: 32, boundary: periodic}\n")

#: One small config per equation id, by the payload kind it reports.
EACH_EQUATION = {
    "schrodinger": BOX,
    "modified_nr_stationary": """\
equation: modified_nr_stationary
grid: {kind: line, x_min: -8.0, x_max: 8.0, n_points: 200}
potential: {variant: square_well, depth: 6.0, half_width: 1.0}
solver: {method: shooting, e_bracket: [-5.99, -0.01]}
""",
    "modified_nr_timedep": "equation: modified_nr_timedep\n" + PERIODIC
                           + "solver: {dt: 1.0e-3, steps: 25}\n",
    "modified_rel_stationary": """\
equation: modified_rel_stationary
units: {c: 1.0}
grid: {kind: line, x_min: 0.0, x_max: 2.0, n_points: 100}
potential: {variant: piecewise_constant, breakpoints: [], values: [0.2]}
solver: {e_bracket: [1.2000001, 8.0]}
""",
    "modified_rel_timedep": "equation: modified_rel_timedep\nunits: {c: 1.0}\n"
                            + PERIODIC + "solver: {dt: 1.0e-3, steps: 25}\n",
    "spin_half_stationary": "equation: spin_half_stationary\nunits: {c: 10.0}\n"
                            + PERIODIC + "solver: {n_states: 4}\n",
    "massless_spin_half": "equation: massless_spin_half\nunits: {c: 10.0}\n"
                          + PERIODIC + "solver: {n_states: 4}\n",
    "dispersion_audit": """\
equation: dispersion_audit
solver: {momenta: [0.5, 2.0], potential_value: 0.3}
""",
}


@pytest.mark.parametrize("equation, nonfinite", [
    *((equation, False) for equation in EACH_EQUATION),
    ("schrodinger", True)],
    ids=[*EACH_EQUATION, "non-finite diagnostics"])
def test_cli_report_of_each_payload_kind_is_canonical_json(
        tmp_path, monkeypatch, equation, nonfinite):
    if nonfinite:
        solve = scenario.solve_schrodinger_stationary

        def solve_with_non_finite_diagnostics(*args):
            res = solve(*args)
            res.diagnostics.update(condition=float("inf"), drift=float("nan"))
            return res
        monkeypatch.setattr(scenario, "solve_schrodinger_stationary",
                            solve_with_non_finite_diagnostics)
    config = EACH_EQUATION[equation]
    command = scenario.EQUATIONS[equation].command
    cfg = _write(tmp_path, "run.yaml", config)
    out = tmp_path / "report.json"
    assert cli.main([command, "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
    text = out.read_text()
    doc = json.loads(text)
    assert text == scenario.canonical_json(doc)
    if nonfinite:
        assert '"condition":Infinity' in text and '"drift":NaN' in text
    blob = scenario.canonical_json({"scenario": doc["scenario"],
                                    "payload": doc["payload"]})
    assert doc["payload_digest"] == hashlib.sha256(blob.encode()).hexdigest()
    # a one-cell sweep of the same document lists the same digest
    sweep_cfg = _write(tmp_path, "sweep.yaml", config + f"""\
sweep: {{parameter: equation, values: [{equation}]}}
""")
    table = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--config", sweep_cfg, "--out", str(table),
                     "--quiet"]) == 0
    (row,) = list(csv.DictReader(io.StringIO(table.read_text())))
    assert row["status"] == "ok"
    assert row["payload_digest"] == doc["payload_digest"]


def test_payload_is_encoded_member_by_member_as_one_text():
    # one encoding per member, and per state or frame of a list of dicts,
    # spliced: the text of one encoding of the whole payload
    payloads = [scenario.run_scenario(scenario.parse_scenario(config)).payload
                for config in EACH_EQUATION.values()]
    assert {p["kind"] for p in payloads} == {"spectrum", "trajectory",
                                             "residual_table"}
    for payload in payloads:
        assert scenario._payload_json(payload) == scenario.canonical_json(
            payload, allow_nan=False)
    # a NaN inside one state names its member
    spectrum = payloads[0]
    spectrum["states"][1]["re"][5] = float("nan")
    with pytest.raises(ConfigurationError, match=r"^payload\.states holds a NaN"):
        scenario._payload_json(spectrum)


def test_cli_solve_encodes_the_payload_once(tmp_path, monkeypatch):
    cfg = _write(tmp_path, "spin.yaml", """\
equation: spin_half_stationary
units: {c: 10.0}
grid: {kind: line, x_min: -30.0, x_max: 30.0, n_points: 96, boundary: periodic}
potential: {variant: free}
solver: {n_states: 10}
""")
    dumps, encoded = json.dumps, []

    def counting_dumps(*args, **kwargs):
        text = dumps(*args, **kwargs)
        encoded.append(len(text))
        return text
    monkeypatch.setattr(json, "dumps", counting_dumps)
    out = tmp_path / "report.json"
    assert cli.main(["solve", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
    # the digest and the file share one encoding of the payload
    assert sum(encoded) <= 1.1 * len(out.read_text())


def test_cli_compare_of_an_undecodable_report_exits_2(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"payload": "\xf6"}')
    assert cli.main(["compare", str(bad), str(bad), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("cannot load report")


@pytest.mark.parametrize("document", [
    {"error": "NonConvergenceError", "message": "did not converge",
     "exit_code": 3, "iterate_history": [-6.0]},  # --out of a failed run
    [{"scenario": {}, "payload": {}}],
    "no payload",
    "no energies",
    "a state without im",
], ids=["error object", "list", "no payload", "no energies",
        "a state without im"])
def test_cli_compare_of_a_document_that_is_no_report_exits_2(
        tmp_path, capsys, document):
    cfg = _write(tmp_path, "box.yaml", BOX)
    good = tmp_path / "good.json"
    assert cli.main(["solve", "--config", cfg, "--out", str(good),
                     "--quiet"]) == 0
    if isinstance(document, str):  # a truncated copy of the good report
        report = json.loads(good.read_text())
        if document == "no payload":
            del report["payload"]
        elif document == "no energies":
            del report["payload"]["energies"]
        else:
            del report["payload"]["states"][1]["im"]
        document = report
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(document))
    for pair in ([str(bad), str(good)], [str(good), str(bad)]):
        assert cli.main(["compare", *pair, "--quiet"]) == 2
        assert capsys.readouterr().err.startswith("cannot load report")


#: Runs ``cli.main`` on each (name, argv) pair of the JSON list in argv[1]
#: and prints, per name, the exit code, the SciPy modules then in
#: ``sys.modules`` and the SciPy modules the run imported; then the threads
#: that imported a SciPy module, and the deferred standard modules
#: (``difflib``, ``concurrent.futures``, ``hashlib``) that the import loaded.
SCIPY_PROBE = """\
import json, sys, threading
imported, threads = [], set()
def hook(event, args):
    if event == "import" and str(args[0]).split(".")[0] == "scipy":
        imported.append(str(args[0]))
        threads.add(threading.current_thread().name)
sys.addaudithook(hook)
import wavekit.cli
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
deferred = sorted({"difflib", "concurrent.futures", "hashlib"} & set(sys.modules))
loaded = {"import wavekit.cli": [0, scipy_modules(), sorted(set(imported))]}
for name, argv in json.loads(sys.argv[1]):
    del imported[:]
    code = wavekit.cli.main(argv)
    loaded[name] = [code, scipy_modules(), sorted(set(imported))]
print(json.dumps({"loaded": loaded, "threads": sorted(threads),
                  "deferred": deferred}))
"""


def _scipy_probe(runs):
    """The probe's output for ``runs`` in a fresh interpreter."""
    src = str(Path(wavekit.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", SCIPY_PROBE, json.dumps(runs)],
                         env=env, check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


def test_cli_loads_scipy_only_for_the_runs_that_call_it(tmp_path):
    # shooting, the exact backend, the audit, compare and both time-dependent
    # propagates call no SciPy; the first eigensolve loads SciPy's compiled
    # LAPACK extension alone, and no run loads a module of the scipy.linalg
    # package, scipy._lib or scipy.sparse (every grid operator is a band of
    # diagonals); the sweep's thread pool, the unknown-key hint's difflib
    # and the digests' hashlib are imported where they are used, not by
    # ``import wavekit.cli``
    def run(name, text):
        cfg = _write(tmp_path, f"{name}.yaml", text)
        command = scenario.EQUATIONS[yaml.safe_load(text)["equation"]].command
        return [name, [command, "--config", cfg, "--out",
                       str(tmp_path / f"{name}.json"), "--quiet"]]

    report = str(tmp_path / "nr_shooting.json")
    audit = _write(tmp_path, "audit.yaml", EACH_EQUATION["dispersion_audit"])
    runs = [
        run("nr_shooting", EACH_EQUATION["modified_nr_stationary"]),
        run("rel_shooting", EACH_EQUATION["modified_rel_stationary"]),
        run("exact_fixed_point", """\
equation: modified_nr_stationary
grid: {kind: line, x_min: -6.0, x_max: 6.0, n_points: 2000}
potential: {variant: square_well, depth: 1.26, half_width: 1.28}
solver: {backend: exact, state_index: 3, e_init: -0.91, tol: 1.0e-8}
"""),
        ["compare", ["compare", report, report, "--quiet"]],
        ["dispersion", ["dispersion", "--config", audit, "--quiet"]],
        run("bad_config", STATIONARY + "solver: {method: bogus}\n"),
        run("nr_timedep", EACH_EQUATION["modified_nr_timedep"]),
        run("rel_timedep", EACH_EQUATION["modified_rel_timedep"]),
        run("schrodinger", BOX),
        run("spin_half", EACH_EQUATION["spin_half_stationary"]),
        run("massless", EACH_EQUATION["massless_spin_half"]),
    ]
    probe = _scipy_probe(runs)
    assert probe["deferred"] == []
    loaded = probe["loaded"]
    assert {name: code for name, (code, _, _) in loaded.items()} == {
        "import wavekit.cli": 0, "nr_shooting": 0, "rel_shooting": 0,
        "exact_fixed_point": 0, "compare": 0, "dispersion": 0,
        "bad_config": 2, "nr_timedep": 0, "rel_timedep": 0, "schrodinger": 0,
        "spin_half": 0, "massless": 0}
    # the probe sees the one load, by the first eigensolve
    assert {name: imports for name, (_, _, imports) in loaded.items()
            if imports} == {"schrodinger": ["scipy.linalg._flapack"]}
    *without, _, _, (_, last, _) = loaded.values()
    assert [modules for _, modules, _ in without] == [[]] * len(without)
    # the modules pile up from run to run, so the last list has them all
    assert [m for m in last if m.split(".")[:2] in (["scipy", "linalg"],
                                                    ["scipy", "_lib"],
                                                    ["scipy", "sparse"])] == []


def test_cli_sweep_imports_scipy_in_its_worker_threads(tmp_path):
    cfg = _write(tmp_path, "sweep.yaml", BOX + """\
sweep:
  parameter: grid.n_points
  values: [64, 128, 256, 96]
""")
    out = {jobs: str(tmp_path / f"jobs{jobs}.csv") for jobs in (1, 2)}
    probe = _scipy_probe([["sweep", ["sweep", "--config", cfg, "--out", out[2],
                                     "--quiet", "--jobs", "2"]]])
    assert probe["loaded"]["sweep"][0] == 0
    assert probe["threads"] and "MainThread" not in probe["threads"]
    assert cli.main(["sweep", "--config", cfg, "--out", out[1], "--quiet"]) == 0
    assert Path(out[2]).read_text() == Path(out[1]).read_text()


def test_cli_compare_writes_into_a_new_nested_directory(tmp_path):
    cfg = _write(tmp_path, "box.yaml", BOX)
    a = str(tmp_path / "a.json")
    assert cli.main(["solve", "--config", cfg, "--out", a, "--quiet"]) == 0
    out = tmp_path / "new" / "dir" / "d.json"
    assert cli.main(["compare", a, a, "--quiet", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["energy_deltas"] == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("command, extra", [("solve", ""), ("sweep", """\
sweep:
  parameter: grid.n_points
  values: [64, 128]
""")], ids=["solve", "sweep"])
def test_cli_out_at_an_existing_directory_exits_2(tmp_path, capsys, command,
                                                  extra):
    # the error object cannot go to --out, so it goes to stderr, even quiet
    cfg = _write(tmp_path, "run.yaml", BOX + extra)
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path),
                     "--quiet"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == 2 and "cannot write --out" in err["message"]


def test_cli_sweep_csv(tmp_path):
    cfg = _write(tmp_path, "sweep.yaml", BOX + """\
sweep:
  parameter: grid.n_points
  values: [64, 128, 256]
""")
    out = str(tmp_path / "sweep.csv")
    assert cli.main(["sweep", "--config", cfg, "--out", out, "--quiet",
                     "--jobs", "2"]) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("grid.n_points,status,ground_energy")
    assert len(lines) == 4
    assert all(line.split(",")[1] == "ok" for line in lines[1:])


def test_cli_jobs_is_a_sweep_option_only(tmp_path):
    cfg = _write(tmp_path, "box.yaml", BOX)
    assert cli.main(["solve", "--config", cfg, "--quiet", "--jobs", "2"]) == 2
    sweep_cfg = _write(tmp_path, "sweep.yaml", BOX + """\
sweep:
  parameter: grid.n_points
  values: [64, 128]
""")
    assert cli.main(["sweep", "--config", sweep_cfg, "--quiet",
                     "--jobs", "1"]) == 0
    # the report options of single runs are not sweep options either
    assert cli.main(["sweep", "--config", sweep_cfg, "--quiet",
                     "--format", "json"]) == 2
    assert cli.main(["sweep", "--config", sweep_cfg, "--quiet",
                     "--frame-stride", "3"]) == 2


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_sweep_refuses_jobs_below_one(tmp_path, capsys, jobs):
    # these once ran one job quietly and exited 0
    cfg = _write(tmp_path, "sweep.yaml", BOX + """\
sweep:
  parameter: grid.n_points
  values: [64, 128]
""")
    assert cli.main(["sweep", "--config", cfg, "--quiet",
                     f"--jobs={jobs}"]) == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sweep", "--config", "sweep.yaml", "--jobs=--"],
    ["solve", "--config=--"],
], ids=["sweep-jobs", "solve-config"])
def test_cli_refuses_an_option_written_with_equals_dashes(tmp_path, capsys,
                                                          monkeypatch, argv):
    # Python 3.11's argparse hands --name=-- an empty list and skips its
    # type; the command once took the list and ended in a TypeError
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "sweep.yaml", BOX + """\
sweep:
  parameter: grid.n_points
  values: [64, 128]
""")
    assert cli.main([*argv, "--quiet"]) == 2
    err = capsys.readouterr().err
    if err.startswith("{"):  # the typed error; older argparse refuses '--'
        assert json.loads(err)["error"] == "ConfigurationError"
        assert argv[-1].split("=")[0] in json.loads(err)["message"]


@pytest.mark.parametrize("x_min", ["2001-01-01", "x"])
def test_cli_sweep_records_a_malformed_base_value_in_every_cell(tmp_path,
                                                                x_min):
    # a YAML date is a malformed value like any other, not a crash when
    # the base document is copied for each cell
    cfg = _write(tmp_path, "sweep.yaml", f"""\
equation: schrodinger
grid: {{kind: line, x_min: {x_min}, x_max: 1.0, n_points: 64}}
potential: {{variant: free}}
sweep: {{parameter: grid.n_points, values: [64, 128]}}
""")
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 3
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[:2] + row[4:5] for row in rows] == [
        ["64", "error", "ConfigurationError"],
        ["128", "error", "ConfigurationError"]]


PROPAGATE = """\
equation: modified_nr_timedep
grid: {kind: line, x_min: 0.0, x_max: 6.283185307179586, n_points: 32, boundary: periodic}
potential: {variant: free}
"""


@pytest.mark.parametrize("block, key", [
    ("solver: {steps: -5}", "solver.steps"),
    ("solver: {steps: 0}", "solver.steps"),
    ("solver: {steps: 2.5}", "solver.steps"),
    ("solver: {dt: x}", "solver.dt"),
    ("solver: {n_states: four}", "solver.n_states"),
    ("output: {frame_stride: x}", "output.frame_stride"),
    ("output: {frame_stride: 0}", "output.frame_stride"),
    ("solver: {mode: x}", "solver.mode"),
    ("solver: {mode: 1.5}", "solver.mode"),
    ("solver: {epsilon: x}", "solver.epsilon"),
    ("solver: {epsilon: .nan}", "solver.epsilon"),
])
def test_cli_malformed_stepper_keys_exit_2(tmp_path, block, key):
    cfg = _write(tmp_path, "bad.yaml", PROPAGATE + block + "\n")
    out = tmp_path / "err.json"
    assert cli.main(["propagate", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 2
    obj = json.loads(out.read_text())
    assert obj["error"] == "ConfigurationError"
    assert any(f.startswith(key) for f in obj["failures"])


def test_cli_lists_stepper_key_failures_together(tmp_path):
    cfg = _write(tmp_path, "bad.yaml", PROPAGATE + """\
solver: {steps: -5, dt: x, n_states: four, damping: high}
output: {frame_stride: x}
""")
    out = tmp_path / "err.json"
    assert cli.main(["propagate", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 2
    failures = json.loads(out.read_text())["failures"]
    for key in ("solver.steps", "solver.dt", "solver.n_states",
                "solver.damping", "output.frame_stride"):
        assert any(f.startswith(key) for f in failures), key


def test_cli_frame_stride_flag_must_be_positive(tmp_path):
    cfg = _write(tmp_path, "ok.yaml", PROPAGATE + "solver: {steps: 4}\n")
    assert cli.main(["propagate", "--config", cfg, "--quiet",
                     "--frame-stride", "0"]) == 2
    out = tmp_path / "report.json"
    assert cli.main(["propagate", "--config", cfg, "--quiet",
                     "--frame-stride", "3", "--out", str(out)]) == 0
    frames = json.loads(out.read_text())["payload"]["frames"]
    assert [f["t"] for f in frames] == pytest.approx([0.0, 3e-3])


def test_cli_frame_stride_is_echoed_and_digested(tmp_path):
    cfg = _write(tmp_path, "ok.yaml", PROPAGATE + "solver: {steps: 30}\n")
    docs = {}
    for stride in (3, 10):
        out = tmp_path / f"stride{stride}.json"
        assert cli.main(["propagate", "--config", cfg, "--quiet",
                         "--frame-stride", str(stride), "--out", str(out)]) == 0
        docs[stride] = json.loads(out.read_text())
    assert docs[3]["scenario"]["output"] == {"frame_stride": 3}
    assert docs[10]["scenario"]["output"] == {"frame_stride": 10}
    assert docs[3]["input_digest"] != docs[10]["input_digest"]
    assert [len(d["payload"]["frames"]) for d in docs.values()] == [11, 4]
    # the flag overrides the config's own output.frame_stride
    cfg = _write(tmp_path, "own.yaml", PROPAGATE + """\
solver: {steps: 30}
output: {frame_stride: 5}
""")
    out = tmp_path / "own.json"
    assert cli.main(["propagate", "--config", cfg, "--quiet",
                     "--frame-stride", "10", "--out", str(out)]) == 0
    own = json.loads(out.read_text())
    assert own["scenario"] == docs[10]["scenario"]
    assert own["payload_digest"] == docs[10]["payload_digest"]


STRIDE_0 = "output.frame_stride must be an integer >= 1, got 0"


@pytest.mark.parametrize("output, failure", [
    ("", STRIDE_0), ("output: null\n", STRIDE_0), ("output: {}\n", STRIDE_0),
    ("output: {frame_stride: 5}\n", STRIDE_0),
    ("output: [3]\n", "output block must be a mapping"),
], ids=["absent", "null", "empty", "own", "list"])
def test_cli_frame_stride_0_fails_the_output_schema(tmp_path, output, failure):
    cfg = _write(tmp_path, "ok.yaml", PROPAGATE + "solver: {steps: 4}\n" + output)
    out = tmp_path / "err.json"
    assert cli.main(["propagate", "--config", cfg, "--quiet",
                     "--frame-stride", "0", "--out", str(out)]) == 2
    assert json.loads(out.read_text())["failures"] == [failure]


@pytest.mark.parametrize("potential", [
    "{variant: piecewise_constant, breakpoints: [1.0, -1.0], values: [0.0, -5.0, 0.0]}",
    "{variant: tabulated, sample_x: [0.0, 2.0, 1.0], sample_v: [0.0, 1.0, 2.0]}",
])
def test_cli_unsorted_potential_positions_exit_2(tmp_path, potential):
    cfg = _write(tmp_path, "bad.yaml", f"""\
equation: schrodinger
grid: {{kind: line, x_min: -4.0, x_max: 4.0, n_points: 64}}
potential: {potential}
""")
    out = tmp_path / "err.json"
    assert cli.main(["solve", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 2
    failures = json.loads(out.read_text())["failures"]
    assert any("strictly increasing" in f for f in failures)


@pytest.mark.parametrize("omega", ["1.0e+154", "1.0e+160", "1.0e+200",
                                   "1.0e+300", "1" + "0" * 400],
                         ids=["1e154", "1e160", "1e200", "1e300", "int_10^400"])
def test_cli_harmonic_omega_whose_stiffness_overflows_exits_2(tmp_path,
                                                              omega):
    # the last is a YAML int past the float range; at 1e154 the stiffness
    # 0.5 m omega**2 is finite and V(x) overflows on the grid
    cfg = _write(tmp_path, "stiff.yaml", f"""\
equation: schrodinger
grid: {{kind: line, x_min: -4.0, x_max: 4.0, n_points: 16}}
potential: {{variant: harmonic, omega: {omega}}}
""")
    out = tmp_path / "err.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow RuntimeWarning either
        assert cli.main(["solve", "--config", cfg, "--out", str(out),
                         "--quiet"]) == 2
    err = json.loads(out.read_text())
    assert err["error"] == "ConfigurationError" and err["exit_code"] == 2
    assert any("omega" in f for f in err["failures"])


STATIONARY = """\
equation: modified_nr_stationary
grid: {kind: line, x_min: -8.0, x_max: 8.0, n_points: 400}
potential: {variant: square_well, depth: 12.0, half_width: 1.0}
"""


@pytest.mark.parametrize("command, text, key", [
    ("solve", STATIONARY + "units: {hbar: 1.0e-200}\n"
     "solver: {method: shooting, e_bracket: [-11.0, -1.0]}\n", "hbar = 1e-200"),
    ("solve", STATIONARY + "units: {hbar: 1.0e+200}\n"
     "solver: {backend: exact, e_init: -11.0}\n", "hbar = 1e+200"),
    ("solve", "equation: modified_rel_stationary\nunits: {c: 1.0e+200}\n"
     "grid: {kind: line, x_min: -8.0, x_max: 8.0, n_points: 400}\n"
     "potential: {variant: square_well, depth: 1.0, half_width: 1.0}\n"
     "solver: {e_bracket: [0.5, 2.0]}\n", "c = 1e+200"),
    ("dispersion", "equation: dispersion_audit\nunits: {c: 1.0e+300}\n",
     "c = 1e+300"),
    ("solve", "equation: schrodinger\n"
     "grid: {kind: line, x_min: -1.0e+308, x_max: 1.0e+308, n_points: 16}\n"
     "potential: {variant: free}\nsolver: {n_states: 2}\n", "x_max - x_min"),
    ("solve", STATIONARY + "solver: {method: shooting, "
     "e_bracket: [-1.0e+308, 1.0e+308]}\n", "solver.e_bracket"),
    ("solve", BOX.replace("x_max: 1.0", "x_max: 1.0e+300"), "grid spacing"),
    ("solve", BOX.replace("x_max: 1.0", "x_max: 1.0e-300"), "grid spacing"),
    ("dispersion", EACH_EQUATION["dispersion_audit"]
     + "units: {m: 1.0e-200}\n", "m = 1e-200"),
    ("dispersion", EACH_EQUATION["dispersion_audit"]
     + "units: {m: 1.0e+200}\n", "m = 1e+200"),
    *(("dispersion", "equation: dispersion_audit\n"
       f"solver: {{momenta: [0.5, {p}]}}\n", "solver.momenta")
      for p in ("1.0e-160", "1.0e+52", "1.0e+154", "1.0e+160")),
    *(("dispersion", "equation: dispersion_audit\n"
       f"solver: {{momenta: [0.5], potential_value: {v}}}\n",
       "solver.potential_value")
      for v in ("1.0e+155", "1.0e+160", "1.0e+200", "1.0e+300")),
    ("propagate", "equation: modified_nr_timedep\n"
     "grid: {kind: line, x_min: 0.0, x_max: 3.0, n_points: 64}\n"
     "potential: {variant: harmonic, omega: 1.0e+154}\n", "omega"),
    ("propagate", "equation: modified_nr_timedep\n"
     "grid: {kind: line, x_min: 5.0e-324, x_max: 1.0, n_points: 38}\n"
     "potential: {variant: coulomb, strength: 1.0}\n", "strength"),
    ("solve", "equation: spin_half_stationary\n"
     "grid: {kind: line, x_min: 0.0, x_max: 1.0, n_points: 11}\n"
     "solver: {wilson_r: 1.7e+308}\n", "wilson_r"),
    *(("solve", f"equation: {equation}\nunits: {{hbar: 1.0e+154}}\n"
       "grid: {kind: line, x_min: 0.0, x_max: 1.0, n_points: 16}\n"
       "solver: {e_init: 1.0}\n", "-hbar**2/2m Laplacian + V")
      for equation in ("schrodinger", "modified_nr_stationary")),
    ("propagate", "equation: modified_rel_timedep\n" + PERIODIC
     + "units: {c: 1.0e+100, hbar: 1.0e+100, m: 1.0e-120}\n", "(hbar*c)**2"),
    ("propagate", "equation: modified_rel_timedep\n" + PERIODIC
     + "units: {c: 1.0, hbar: 1.0e-100, m: 1.0e+100}\n", "(m*c**2/hbar)**2"),
    ("propagate", "equation: modified_rel_timedep\n" + PERIODIC
     + "units: {c: 1.0e+154, hbar: 1.0e-10, m: 1.0e-300}\n",
     "stability bound 0.000e+00"),
    *(("propagate", f"equation: {equation}\n" + PERIODIC
       + f"solver: {{{solver}}}\n", key) for equation, solver, key in [
        ("modified_nr_timedep", "mode: 1.0e+150", "solver.mode"),
        ("modified_nr_timedep", "mode: 1.0e+300", "solver.mode"),
        ("modified_nr_timedep", "epsilon: 1.0e+200", "solver.epsilon"),
        ("modified_nr_timedep", "epsilon: 1.0e+100, E: 1.0e+200",
         "E = 1e+200"),
        ("modified_nr_timedep", "E: 1.0e+300", "E = 1e+300"),
        ("modified_nr_timedep", "dt: 1.0e-320", "dt=1e-320"),
        ("modified_rel_timedep", "mode: 1.0e+160", "solver.mode"),
        ("modified_rel_timedep", "mode: 1.0e+300", "solver.mode")]),
    ("propagate", "equation: modified_nr_timedep\n"
     + PERIODIC.replace("n_points: 32", "n_points: 64")
     + "solver: {epsilon: 1.0e+153, E: 1.0}\n", "stability bound 1.250e-154"),
    *(("solve", "equation: modified_nr_stationary\n"
       "grid: {kind: line, x_min: -8.0, x_max: 8.0, n_points: 400}\n"
       "potential: {variant: piecewise_constant, breakpoints: [-1.0, 1.0], "
       "values: [0.0, 1.0e+300, 0.0]}\n"
       f"solver: {{backend: {backend}, e_init: 3.0}}\n",
       "potential: W = 3V - V**2/(E - V)") for backend in ("grid", "exact")),
    ("solve", "equation: modified_nr_stationary\n"
     "grid: {kind: line, x_min: -8.0, x_max: 8.0, n_points: 400}\n"
     "potential: {variant: piecewise_constant, breakpoints: [-1.0, 1.0], "
     "values: [0.0, 1.0e+300, 0.0]}\n"
     "solver: {method: shooting, e_bracket: [0.1, 5.0]}\n",
     "potential: (E - 2V)**2"),
    *((command, f"equation: {equation}\n" + grid + "units: {c: 1.0}\n"
       "potential: {variant: piecewise_constant, breakpoints: [1.0, 2.0], "
       "values: [0.0, 1.0e+300, 0.0]}\n" + solver, "potential")
      for command, equation, grid, solver in [
          ("solve", "modified_rel_stationary",
           "grid: {kind: line, x_min: 0.0, x_max: 6.0, n_points: 64}\n",
           "solver: {e_bracket: [1.5, 3.0]}\n"),
          ("propagate", "modified_rel_timedep", PERIODIC, "")]),
], ids=["shooting_hbar_1e-200", "exact_fixed_point_hbar_1e200",
        "rel_stationary_c_1e200", "dispersion_c_1e300", "grid_span_overflows",
        "e_bracket_width_overflows", "h_squared_overflows",
        "h_squared_underflows", "dispersion_E0_squared_underflows",
        "dispersion_E0_squared_overflows", "dispersion_momentum_1e-160",
        "dispersion_momentum_1e52", "dispersion_momentum_1e154",
        "dispersion_momentum_1e160", "dispersion_potential_1e155",
        "dispersion_potential_1e160", "dispersion_potential_1e200",
        "dispersion_potential_1e300", "nr_timedep_harmonic_V_overflows",
        "nr_timedep_coulomb_V_overflows", "spin_half_wilson_term_overflows",
        "schrodinger_band_overflows", "nr_fixed_point_band_overflows",
        "rel_timedep_hbar_c_overflows",
        "rel_timedep_E0_over_hbar_overflows",
        "rel_timedep_c_sq_over_h_sq_overflows", "nr_timedep_mode_1e150",
        "nr_timedep_mode_1e300", "nr_timedep_epsilon_1e200",
        "nr_timedep_epsilon_1e100_E_1e200", "nr_timedep_E_1e300",
        "nr_timedep_dt_squared_underflows", "rel_timedep_mode_1e160",
        "rel_timedep_mode_1e300", "nr_timedep_epsilon_1e153_ring",
        "nr_fixed_point_grid_W_1e300", "nr_fixed_point_exact_W_1e300",
        "nr_shooting_E_minus_2V_squared_1e300",
        "rel_stationary_potential_1e300", "rel_timedep_potential_1e300"])
def test_cli_scales_past_the_float_range_exit_2(tmp_path, command, text, key):
    # a scale the solvers form (from the unit constants, the grid span and
    # spacing, the bracket width, the relativistic factor (1 + V/E0)**2,
    # the effective potential W, the shooting coefficient's (E - 2V)**2,
    # a dispersion audit momentum's eps**2) leaves the float range; before
    # the checks
    # these ended in tracebacks, a spectrum of zeros or NoRootError. The
    # leapfrog step bound stays finite where omega**2 overflows
    cfg = _write(tmp_path, "extreme.yaml", text)
    out = tmp_path / "err.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow RuntimeWarning either
        assert cli.main([command, "--config", cfg, "--out", str(out),
                         "--quiet"]) == 2
    err = json.loads(out.read_text())
    assert err["error"] == "ConfigurationError" and err["exit_code"] == 2
    assert any(key in f for f in err["failures"])


@pytest.mark.parametrize("boundary, values", [
    ("periodic", "[-1.0e+154, -1.7e+308, -1.0e-160]"),
    ("dirichlet", "[-1.7e+308, 1.7e+308, 1.7e+308]")],
    ids=["periodic", "dirichlet"])
@pytest.mark.parametrize("as_errors", [False, True], ids=["plain", "W_error"])
def test_cli_non_finite_payload_number_exits_2(tmp_path, boundary, values,
                                               as_errors):
    # the residual |H psi - E psi| overflows to NaN; a report once held it
    # (exit 0), and under -W error the overflow warning was a traceback
    cfg = _write(tmp_path, "nan.yaml", "equation: schrodinger\n"
                 "grid: {kind: line, x_min: 0.0, x_max: 1.0, n_points: 16, "
                 f"boundary: {boundary}}}\n"
                 "potential: {variant: piecewise_constant, breakpoints: "
                 f"[0.3, 0.6], values: {values}}}\nsolver: {{n_states: 2}}\n")
    out = tmp_path / "err.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error" if as_errors else "ignore")
        assert cli.main(["solve", "--config", cfg, "--out", str(out),
                         "--quiet"]) == 2
    err = json.loads(out.read_text())
    assert err["error"] == "ConfigurationError"
    assert any("payload.self_consistency_residuals" in f
               for f in err["failures"])


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
@pytest.mark.parametrize("x_max", ["1.0e+150", "1.0e+154"])
def test_cli_eigensolve_of_a_band_near_the_float_floor_exits_0(tmp_path, boundary,
                                                             x_max):
    # h**2 and 1/h**2 are finite, and the band of 1/h**2 near 1e-300 is
    # solved scaled by a power of two: unscaled, LAPACK dsbevx does not
    # converge on it (info = 2). The levels are the closed-form discrete
    # ones, (2/h**2) sin**2(k pi/2(n - 1)) on the walls and
    # (1/h**2)(1 - cos(2 pi k/n)) on the ring, with hbar = m = 1
    cfg = _write(tmp_path, "wide.yaml", "equation: schrodinger\n"
                 f"grid: {{kind: line, x_min: 0.0, x_max: {x_max}, "
                 f"n_points: 16, boundary: {boundary}}}\n"
                 "potential: {variant: free}\nsolver: {n_states: 2}\n")
    out = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["solve", "--config", cfg, "--out", str(out),
                         "--quiet"]) == 0
    energies = json.loads(out.read_text())["payload"]["energies"]
    if boundary == "dirichlet":
        h = float(x_max) / 15
        exact = [2.0 / h**2 * np.sin(k * np.pi / 30) ** 2 for k in (1, 2)]
    else:
        h = float(x_max) / 16
        exact = [0.0, (1.0 - np.cos(2.0 * np.pi / 16)) / h**2]
    assert np.allclose(energies, exact, rtol=0.0, atol=1e-12 * max(exact))


def test_cli_relativistic_norm_past_the_float_range_exits_3(tmp_path):
    # E/hbar dt of about 1e157: psi overflows the norm's dot product after one
    # step, which is growth past the bound, not an overflow warning
    cfg = _write(tmp_path, "fast.yaml", "equation: modified_rel_timedep\n"
                 + PERIODIC + "units: {c: 1.0, hbar: 1.0e-150, m: 1.0e-150}\n"
                 "potential: {variant: free}\n"
                 "solver: {mode: 1.0e+160, dt: 1.0e-3}\n")
    out = tmp_path / "err.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["propagate", "--config", cfg, "--out", str(out),
                         "--quiet"]) == 3
    err = json.loads(out.read_text())
    assert err["error"] == "StabilityError" and err["exit_code"] == 3


@pytest.mark.parametrize("block, key", [
    ("solver: {e_bracket: 3}", "solver.e_bracket"),
    ("solver: {e_bracket: [-1.0]}", "solver.e_bracket"),
    ("solver: {e_bracket: [-1.0, x]}", "solver.e_bracket"),
    ("solver: {e_bracket: [-1.0, .inf]}", "solver.e_bracket"),
    ("solver: {e_bracket: [-1.0, -2.0], method: shooting}", "solver.e_bracket"),
    ("solver: {method: bogus}", "solver.method"),
    ("solver: {backend: bogus}", "solver.backend"),
    ("solver: {policy: bogus}", "solver.policy"),
    ("solver: {e_init: x}", "solver.e_init"),
    ("solver: {e_init: .nan}", "solver.e_init"),
    ("solver: {state_index: -1}", "solver.state_index"),
    ("solver: {state_index: x}", "solver.state_index"),
    ("solver: {max_iter: x}", "solver.max_iter"),
    ("solver: {guard_floor: x}", "solver.guard_floor"),
    ("solver: {wilson_r: x}", "solver.wilson_r"),
    ("solver: {E: x}", "solver.E"),
    ("solver: {potential_value: x}", "solver.potential_value"),
    ("solver: {momenta: [1.0, x]}", "solver.momenta"),
    ("solver: 3", "solver block"),
    ("output: [json]", "output block"),
    ("units: 1.0", "units block"),
])
def test_cli_malformed_solver_keys_exit_2(tmp_path, block, key):
    cfg = _write(tmp_path, "bad.yaml", STATIONARY + block + "\n")
    out = tmp_path / "err.json"
    assert cli.main(["solve", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 2
    obj = json.loads(out.read_text())
    assert obj["error"] == "ConfigurationError"
    assert any(f.startswith(key) for f in obj["failures"])


@pytest.mark.parametrize("potential, field", [
    ("{variant: square_well, depth: .nan, half_width: 1.0}", "depth"),
    ("{variant: harmonic, omega: .inf}", "omega"),
    ("{variant: step, height: x, edge: 0.0}", "height"),
    ("{variant: piecewise_constant, breakpoints: [0.0], values: [0.0, .nan]}",
     "values"),
    ("{variant: tabulated, sample_x: [], sample_v: []}", "tabulated"),
])
def test_cli_non_finite_or_empty_potential_exits_2(tmp_path, potential, field):
    cfg = _write(tmp_path, "bad.yaml", f"""\
equation: schrodinger
grid: {{kind: line, x_min: -4.0, x_max: 4.0, n_points: 64}}
potential: {potential}
""")
    out = tmp_path / "err.json"
    assert cli.main(["solve", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 2
    failures = json.loads(out.read_text())["failures"]
    assert any(f.startswith(f"potential: {field}") for f in failures)


def test_cli_deep_well_state_1_still_wanders_to_exit_3(tmp_path):
    # a depth-12 well with state_index 1 from e_init in [-7, -5]: the
    # iterate leaves the well and wanders for all 200 iterations. On the
    # way some linearized operators have near-degenerate pairs whose
    # states come back mixed; picking by eigenvalue index must keep the
    # outcome
    out = tmp_path / "err.json"
    for e_init in np.random.default_rng(6).uniform(-7.0, -5.0, 200):
        solver = f"solver: {{state_index: 1, e_init: {float(e_init)!r}}}\n"
        cfg = _write(tmp_path, "wander.yaml", STATIONARY + solver)
        assert cli.main(["solve", "--config", cfg, "--out", str(out),
                         "--quiet"]) == 3
        obj = json.loads(out.read_text())
        assert obj["error"] == "NonConvergenceError"
        assert len(obj["iterate_history"]) == 201


# -- the config schema and the equation table ---------------------------------

GRID64 = "grid: {kind: line, x_min: 0.0, x_max: 1.0, n_points: 64}\n"


def _failures(tmp_path, command, text):
    """Exit code and failure list (or message) of one CLI run."""
    cfg = _write(tmp_path, "config.yaml", text)
    out = tmp_path / "err.json"
    code = cli.main([command, "--config", cfg, "--out", str(out), "--quiet"])
    obj = json.loads(out.read_text())
    return code, obj.get("failures") or [obj.get("message")]


@pytest.mark.parametrize("blocks, failure", [
    (GRID64 + "solvr: {n_states: 2}",
     "unknown block 'solvr' (did you mean 'solver'?)"),
    (GRID64 + "units: {hbr: 1.0}",
     "unknown units key 'hbr' (did you mean 'hbar'?)"),
    ("grid: {kind: line, x_min: 0.0, x_max: 1.0, n_point: 64}",
     "unknown grid key 'n_point' (did you mean 'n_points'?)"),
    (GRID64 + "solver: {n_state: 2}",
     "unknown solver key 'n_state' (did you mean 'n_states'?)"),
    (GRID64 + "output: {frame_strid: 2}",
     "unknown output key 'frame_strid' (did you mean 'frame_stride'?)"),
    (GRID64 + "output: {format: csv}", "unknown output key 'format'"),
    (GRID64 + "output: {path: report.json}", "unknown output key 'path'"),
])
def test_cli_unknown_keys_exit_2_with_hint(tmp_path, blocks, failure):
    code, failures = _failures(tmp_path, "solve", f"""\
equation: schrodinger
potential: {{variant: free}}
{blocks}
""")
    assert code == 2
    assert failure in failures


@pytest.mark.parametrize("block, failure", [
    ("grid: {kind: line, x_min: 0.0, x_max: 1.0, n_points: 64.7}",
     "grid.n_points must be an integer, got 64.7"),
    ("grid: {kind: line, x_min: null, x_max: 1.0, n_points: 64}",
     "grid.x_min must be a finite number, got None"),
    ("grid: {kind: ring, n_points: 64}", "grid.kind must be line or radial"),
    (GRID64 + "units: {hbar: .nan}", "units.hbar must be a number > 0, got nan"),
    (GRID64 + "units: {c: .inf}", "units.c must be a number > 0, got inf"),
    (GRID64 + "units: {e: x}", "units.e must be a finite number, got 'x'"),
    pytest.param("grid: {kind: line, x_min: -1" + "0" * 400
                 + ", x_max: 1.0, n_points: 64}",
                 "grid.x_min must be a finite number", id="x_min_int_10^400"),
    pytest.param(GRID64 + "units: {hbar: 1" + "0" * 400 + "}",
                 "units.hbar must be a number > 0", id="hbar_int_10^400"),
])
def test_cli_malformed_grid_and_units_exit_2(tmp_path, block, failure):
    code, failures = _failures(tmp_path, "solve", f"""\
equation: schrodinger
potential: {{variant: free}}
{block}
""")
    assert code == 2
    assert any(f.startswith(failure) for f in failures)


@pytest.mark.parametrize("equation, command", [
    (equation, command) for equation, spec in scenario.EQUATIONS.items()
    for command in ("solve", "propagate", "dispersion")
    if command != spec.command])
def test_cli_equation_under_the_wrong_command_exits_2(tmp_path, equation,
                                                      command):
    code, failures = _failures(tmp_path, command,
                               f"equation: {equation}\n{GRID64}")
    assert code == 2
    want = scenario.EQUATIONS[equation].command
    assert failures == [f"equation {equation!r} is run by 'wavekit {want}', "
                        f"not 'wavekit {command}'"]


def test_equation_table_sets_the_light_speed_default():
    for equation, spec in scenario.EQUATIONS.items():
        config = scenario.parse_scenario(f"equation: {equation}\n{GRID64}")
        assert config.units.c == (ATOMIC_C if spec.atomic_c else 1.0)


def test_dispersion_audit_needs_no_grid_block():
    assert scenario.parse_scenario("equation: dispersion_audit\n")
    with pytest.raises(ConfigurationError) as exc:
        scenario.parse_scenario("equation: schrodinger\n")
    assert exc.value.failures == ["missing grid block"]


@pytest.mark.parametrize("sweep, failure", [
    ("sweep: 3", "sweep block must be a mapping"),
    ("sweep: {parameter: grid.n_points, values: 3}",
     "sweep.values must be a non-empty list, got 3"),
    ("sweep: {parameter: 5, values: [64]}",
     "sweep.parameter must be a dotted key path, got 5"),
    ("sweep: {parameter: equation.x, values: [64]}",
     "sweep.parameter 'equation.x': 'equation' is not a block"),
    ("sweep: {paramter: grid.n_points, values: [64]}",
     "unknown sweep key 'paramter' (did you mean 'parameter'?)"),
])
def test_cli_malformed_sweep_block_exits_2(tmp_path, sweep, failure):
    code, failures = _failures(tmp_path, "sweep", BOX + sweep + "\n")
    assert code == 2
    assert failure in failures


def test_cli_csv_of_a_residual_table_exits_2(tmp_path):
    cfg = _write(tmp_path, "audit.yaml", "equation: dispersion_audit\n")
    assert cli.main(["dispersion", "--config", cfg, "--format", "csv",
                     "--quiet"]) == 2


def test_cli_csv_of_a_residual_table_is_refused_before_the_audit_runs(
        tmp_path, monkeypatch, capsys):
    audit = scenario.EQUATIONS["dispersion_audit"]
    runs = []

    def counted(config):
        runs.append(config)
        return audit.run(config)
    monkeypatch.setitem(scenario.EQUATIONS, "dispersion_audit",
                        audit._replace(run=counted))
    cfg = _write(tmp_path, "audit.yaml", "equation: dispersion_audit\n")
    assert cli.main(["dispersion", "--config", cfg, "--quiet"]) == 0
    assert len(runs) == 1
    capsys.readouterr()
    assert cli.main(["dispersion", "--config", cfg, "--format", "csv",
                     "--quiet"]) == 2
    assert len(runs) == 1
    assert "invalid choice: 'csv'" in capsys.readouterr().err
