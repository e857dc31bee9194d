"""The two benchmark workloads, their seeded inputs and their output checks.

Every workload is a closed loop with one client: the next operation starts
when the last one has returned. Only the calls into wavekit are timed, by
the wall clock and by the process's CPU clock; checking an output happens
between operations, outside the timed work.
The package is reached through module attributes (``cli.main``,
``modified_nr.solve_stationary_fixed_point``), so that a traced run sees
every call.
"""

from __future__ import annotations

import collections
import csv
import io
import json
import math
import time
from pathlib import Path

import numpy as np
import yaml

from wavekit import cli, modified_nr, numgrid, potentials, units
from wavekit.errors import NonConvergenceError, WavekitError
from wavekit.modified_rel import rel_box_energy

clock = time.perf_counter
cpu_clock = time.process_time   # all threads of this process, BLAS included


class Stats:
    """What one run did: timed work, op latencies, failures and errors.

    ``latencies`` (CPU seconds) and ``wall_latencies`` hold the ops that
    completed; a failed op is counted in ``failed`` and its time stays in
    ``busy`` and ``busy_cpu``.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies = []                  # CPU seconds, one per completed op
        self.wall_latencies = []             # wall seconds, the same ops
        self.busy = 0.0                      # timed work (wall), counted or not
        self.busy_cpu = 0.0                  # the same work in CPU seconds
        self.items = 0                       # completed workload items
        self.attempted = 0
        self.failed = 0
        self.outcomes = collections.Counter()  # failed ops by cause
        self.errors = collections.Counter()    # typed errors by class
        self.exit_codes = collections.Counter()  # CLI exit codes
        self.incorrect = []                  # output-check failures
        self.report_bytes = 0
        self._op = 0

    def next_op(self):
        self._op += 1
        if self.tracer is not None:
            self.tracer.op = self._op

    @staticmethod
    def start():
        return clock(), cpu_clock()

    def stop(self, started):
        """Adds the time since ``started`` to the timed work; returns it."""
        elapsed = clock() - started[0], cpu_clock() - started[1]
        self.busy += elapsed[0]
        self.busy_cpu += elapsed[1]
        return elapsed

    def completed(self, elapsed):
        self.wall_latencies.append(elapsed[0])
        self.latencies.append(elapsed[1])

    def fail(self, cause):
        self.failed += 1
        self.outcomes[cause] += 1

    def check(self, ok, message):
        if not ok and len(self.incorrect) < 50:
            self.incorrect.append(message)


class Budget:
    """Stop after ``seconds`` of timed work, or after ``items`` items."""

    def __init__(self, seconds=None, items=None):
        self.seconds, self.items = seconds, items

    def done(self, stats):
        return ((self.seconds is not None and stats.busy >= self.seconds)
                or (self.items is not None and stats.items >= self.items))


# -- oracles -----------------------------------------------------------------

def transfer_endpoint(edges, w_regions, energies):
    """psi at the right wall of psi'' = -(2m/hbar^2)(E - w) psi, psi(0)=0,
    psi'(0)=1, with complex wavenumbers so one formula covers oscillatory
    and decaying regions (unit mass and hbar). ``w_regions`` is a function
    of the energy array returning one region value per region."""
    energies = np.asarray(energies, dtype=float)
    psi = np.zeros(energies.size, dtype=complex)
    dpsi = np.ones(energies.size, dtype=complex)
    for width, w in zip(np.diff(edges), w_regions(energies)):
        k = np.sqrt(2.0 * (energies - w) + 0j)
        k = np.where(k == 0, 1e-300, k)
        c, s = np.cos(k * width), np.sin(k * width)
        psi, dpsi = c * psi + s / k * dpsi, -k * s * psi + c * dpsi
    return psi.real


def modified_w(values):
    """Region values of W(E) = 3V - V^2/(E - V), as a function of E."""
    return lambda e: [3 * v - v**2 / (e - v) for v in values]


def sign_changes(values):
    return int(np.sum(np.sign(values[1:]) * np.sign(values[:-1]) < 0))


def klein_gordon_branches(length, n_modes, c, e0):
    p = 2.0 * np.pi * np.arange(n_modes) / length
    return np.sqrt((c * p) ** 2 + e0**2)


def wilson_dirac_levels(n_points, length, c, e0, wilson_r):
    """Sorted |E| of the free Wilson-Dirac operator on a periodic lattice
    (unit hbar): plane waves give E = +-sqrt((c sin(ph)/h)^2 + M(p)^2) with
    M(p) = E0 + (c r h / 2)(2 - 2 cos(ph))/h^2."""
    h = length / n_points
    p = 2.0 * np.pi * (np.arange(n_points) - n_points // 2) / length
    kinetic = c * np.sin(p * h) / h
    mass = e0 + 0.5 * c * wilson_r * h * (2.0 - 2.0 * np.cos(p * h)) / h**2
    levels = np.sqrt(kinetic**2 + mass**2)
    return np.sort(np.concatenate([levels, levels]))


def spin_half_check(energies, n_points, length, c, n_states):
    """None when the spectrum is the lattice one to 1e-10 and its modes lie
    within 1e-3 of the Klein-Gordon branches, else a message."""
    got = np.sort(np.abs(np.asarray(energies, dtype=float)))
    want = wilson_dirac_levels(n_points, length, c, c**2, 1.0)[:n_states]
    lattice = max_rel_error(got, want)
    branches = klein_gordon_branches(length, n_points // 2, c, c**2)
    kg = max(float(np.min(np.abs(branches - e)) / e) for e in got)
    if lattice <= 1e-10 and kg <= 1e-3:
        return None
    return (f"{got.size} levels: lattice deviation {lattice:.3e}, "
            f"Klein-Gordon deviation {kg:.3e}")


def frame_error(payload, k, omega):
    """Largest deviation of the report frames from exp(i(kx - omega t))."""
    x = np.asarray(payload["x"])
    worst = 0.0
    for frame in payload["frames"]:
        got = np.asarray(frame["re"]) + 1j * np.asarray(frame["im"])
        want = np.exp(1j * (k * x - omega * frame["t"]))
        worst = max(worst, float(np.max(np.abs(got - want))))
    return worst


def max_rel_error(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return math.inf
    return float(np.max(np.abs(got - want) / np.abs(want)))


# -- a stream of short CLI runs ---------------------------------------------

class ScenarioMix:
    """A seeded stream of short CLI runs across all eight equation ids.

    One item is a cycle that runs every template once, in a seeded order
    and with seeded parameters; each template declares its exit code and,
    where a closed form exists, checks the report against it. Two of the
    eighteen templates are grid fixed points that wander for max_iter
    iterations before exit 3, and two are the large runs where the dense
    spin-1/2 eigensolve and the retained time-dependent states show
    (``spin_half_periodic``, ``nr_timedep_frames``); these four set
    op_cpu_p90_ms, and the retained states set peak_rss_mb. A run ends on
    a whole cycle, so every run samples the templates alike.
    """

    index = 3
    trace_items = 2

    def __init__(self, seed, workdir: Path):
        self.rng = np.random.default_rng([seed, self.index])
        self.workdir = workdir
        self.inputs = {}

    def write_config(self, name, doc):
        path = self.workdir / f"{name}.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=True))
        return str(path)

    def cli_op(self, stats, command, config, expected):
        """One timed CLI run; returns the parsed report (or error object),
        or None when the run failed."""
        out = self.workdir / "report.out"
        out.unlink(missing_ok=True)
        argv = [command, "--config", config, "--out", str(out), "--quiet"]
        if command == "sweep":
            argv += ["--jobs", "1"]
        stats.next_op()
        stats.attempted += 1
        started = stats.start()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a traceback is a failed op, not a crash
            code = None
            error = type(exc).__name__
        elapsed = stats.stop(started)
        if code is None:
            stats.errors[f"untyped.{error}"] += 1
            stats.fail(f"traceback {error}")
            return None
        stats.exit_codes[code] += 1
        text = out.read_text() if out.exists() else ""
        stats.report_bytes += len(text.encode())
        doc = text
        if command != "sweep" or code != 0:
            doc = json.loads(text) if text else {}
        if code != 0 and isinstance(doc, dict) and "error" in doc:
            stats.errors[doc["error"]] += 1
        if code != expected:
            stats.fail(f"exit {code} (expected {expected})")
            return None
        stats.completed(elapsed)
        return doc

    def check(self, stats):
        """Nothing left to check: each report is checked after its run."""


    def setup(self):
        self.templates = [
            ("schrodinger_harmonic", "solve", 0, self.schrodinger_harmonic),
            ("schrodinger_box", "solve", 0, self.schrodinger_box),
            ("nr_fixed_point_grid", "solve", 0, self.nr_fixed_point_grid),
            ("nr_fixed_point_wander", "solve", 3, self.nr_fixed_point_wander),
            ("nr_fixed_point_wander_seeded", "solve", 3,
             self.nr_fixed_point_wander_seeded),
            ("nr_reject_harmonic", "solve", 4, self.nr_reject_harmonic),
            ("bad_config", "solve", 2, self.bad_config),
            ("nr_shooting", "solve", 0, self.nr_shooting),
            ("rel_box", "solve", 0, self.rel_box),
            ("rel_timedep", "propagate", 0, self.rel_timedep),
            ("nr_timedep", "propagate", 0, self.nr_timedep),
            ("nr_non_hyperbolic", "propagate", 4, self.nr_non_hyperbolic),
            ("massless", "solve", 0, self.massless),
            ("spin_half", "solve", 0, self.spin_half),
            ("spin_half_periodic", "solve", 0, self.spin_half_periodic),
            ("nr_timedep_frames", "propagate", 0, self.nr_timedep_frames),
            ("dispersion", "dispersion", 0, self.dispersion),
            ("sweep_omega", "sweep", 0, self.sweep_omega),
        ]
        self.inputs = {"templates": [t[0] for t in self.templates],
                       "grid_points": {}}
        warm = self.write_config("warm", {
            "equation": "schrodinger",
            "grid": {"kind": "line", "x_min": -5.0, "x_max": 5.0,
                     "n_points": 64},
            "potential": {"variant": "harmonic", "omega": 1.0},
            "solver": {"n_states": 2}})
        if self.cli_op(Stats(), "solve", warm, 0) is None:
            raise RuntimeError("scenario_mix warm-up run failed")

    def prime(self):
        """One untimed cycle, so the first large runs of the process (its
        first big allocations) fall outside the timed work."""
        self.run(Budget(items=1), Stats())

    def run(self, budget, stats):
        while not budget.done(stats):
            order = self.rng.permutation(len(self.templates))
            for i in order:
                name, command, expected, build = self.templates[i]
                doc, verify = build()
                self.inputs["grid_points"][name] = doc.get("grid", {}).get("n_points")
                config = self.write_config(name, doc)
                report = self.cli_op(stats, command, config, expected)
                if report is not None:
                    message = verify(report)
                    stats.check(message is None, f"{name}: {message}")
            stats.items += 1

    # Each template method returns the scenario doc and a check of its report
    # (or error object) that returns None or a message.

    def schrodinger_harmonic(self):
        omega = float(self.rng.uniform(0.8, 1.6))
        doc = {"equation": "schrodinger",
               "grid": {"kind": "line", "x_min": -10.0, "x_max": 10.0,
                        "n_points": 600},
               "potential": {"variant": "harmonic", "omega": omega},
               "solver": {"n_states": 5}}
        want = (np.arange(5) + 0.5) * omega
        return doc, lambda r: _rel_check(r["payload"]["energies"], want, 1e-3)

    def schrodinger_box(self):
        length = float(self.rng.uniform(1.0, 3.0))
        doc = {"equation": "schrodinger",
               "grid": {"kind": "line", "x_min": 0.0, "x_max": length,
                        "n_points": 400},
               "potential": {"variant": "free"},
               "solver": {"n_states": 4}}
        want = 0.5 * (np.pi * np.arange(1, 5) / length) ** 2
        return doc, lambda r: _rel_check(r["payload"]["energies"], want, 1e-3)

    def nr_fixed_point_grid(self):
        doc = _square_well_doc({"state_index": 7, "e_init": -8.0})

        def verify(r):
            p = r["payload"]
            if p["node_counts"] != [7] or p["self_consistency_residuals"][0] > 1e-10:
                return f"state {p['node_counts']} residual {p['self_consistency_residuals']}"
            return None
        return doc, verify

    def nr_fixed_point_wander(self, e_init=-6.0):
        # the iterate leaves the well and wanders for max_iter steps
        doc = _square_well_doc({"state_index": 1, "e_init": e_init})
        return doc, lambda r: (None if r["error"] == "NonConvergenceError"
                               and len(r["iterate_history"]) == 201
                               else f"unexpected error {r['error']}")

    def nr_fixed_point_wander_seeded(self):
        return self.nr_fixed_point_wander(float(self.rng.uniform(-7.0, -5.0)))

    def nr_reject_harmonic(self):
        omega = float(self.rng.uniform(0.5, 2.0))
        doc = {"equation": "modified_nr_stationary",
               "grid": {"kind": "line", "x_min": -6.0, "x_max": 6.0,
                        "n_points": 400},
               "potential": {"variant": "harmonic", "omega": omega},
               "solver": {"e_init": 1.0, "state_index": 0, "policy": "reject"}}
        # E = V at x = +-sqrt(2)/omega
        want = [-math.sqrt(2.0) / omega, math.sqrt(2.0) / omega]
        return doc, lambda r: (None if r["error"] == "SingularRegionError"
                               and _rel_check(r["locations"], want, 1e-9) is None
                               else f"singular set {r.get('locations')}")

    def bad_config(self):
        doc = {"equation": "schrodingr",
               "grid": {"kind": "line", "x_min": -6.0, "x_max": 6.0,
                        "n_points": 400}}
        return doc, lambda r: (None if r["error"] == "ConfigurationError"
                               else f"unexpected error {r['error']}")

    def nr_shooting(self):
        depth = float(self.rng.uniform(4.0, 12.0))
        doc = {"equation": "modified_nr_stationary",
               "grid": {"kind": "line", "x_min": -8.0, "x_max": 8.0,
                        "n_points": 400},
               "potential": {"variant": "square_well", "depth": depth,
                             "half_width": 1.0},
               "solver": {"method": "shooting",
                          "e_bracket": [-depth * (1 - 1e-3), -depth * 1e-3]}}
        edges = np.array([-8.0, -1.0, 1.0, 8.0])
        values = np.array([0.0, -depth, 0.0])
        es = np.linspace(-depth * (1 - 1e-3), -depth * 1e-3, 10000)
        count = sign_changes(transfer_endpoint(edges, modified_w(values), es))

        def verify(r):
            got = len(r["payload"]["energies"])
            return None if got == count else f"{got} roots, oracle {count}"
        return doc, verify

    def rel_box(self):
        v0 = float(self.rng.uniform(0.0, 0.5))
        length = float(self.rng.uniform(1.5, 3.0))
        u = units.UnitSystem(c=1.0)
        want = [rel_box_energy(n, length, v0, u) for n in range(1, 7)]
        hi = 0.5 * (want[4] + want[5])
        doc = {"equation": "modified_rel_stationary", "units": {"c": 1.0},
               "grid": {"kind": "line", "x_min": 0.0, "x_max": length,
                        "n_points": 200},
               "potential": {"variant": "piecewise_constant",
                             "breakpoints": [], "values": [v0]},
               "solver": {"e_bracket": [v0 + u.E0 + 1e-6, hi]}}
        return doc, lambda r: _rel_check(r["payload"]["energies"], want[:5], 1e-9)

    def rel_timedep(self):
        mode = int(self.rng.integers(1, 4))
        k = float(mode)
        doc = {"equation": "modified_rel_timedep", "units": {"c": 1.0},
               "grid": {"kind": "line", "x_min": 0.0, "x_max": 2 * math.pi,
                        "n_points": 128, "boundary": "periodic"},
               "potential": {"variant": "free"},
               "solver": {"mode": mode, "dt": 1e-3, "steps": 500},
               "output": {"frame_stride": 100}}
        # Klein-Gordon plane wave, E = sqrt((c hbar k)^2 + E0^2)
        omega = math.sqrt(k**2 + 1.0)
        return doc, lambda r: _frame_check(r["payload"], k, omega, 1e-2)

    def nr_timedep(self):
        mode = int(self.rng.integers(1, 4))
        k = float(mode)
        doc = {"equation": "modified_nr_timedep",
               "grid": {"kind": "line", "x_min": 0.0, "x_max": 2 * math.pi,
                        "n_points": 256, "boundary": "periodic"},
               "potential": {"variant": "free"},
               "solver": {"mode": mode, "dt": 1e-3, "steps": 500},
               "output": {"frame_stride": 100}}
        return doc, lambda r: _frame_check(r["payload"], k, 0.5 * k**2, 1e-2)

    def nr_non_hyperbolic(self):
        v0 = float(self.rng.uniform(2.0, 8.0))
        doc = {"equation": "modified_nr_timedep",
               "grid": {"kind": "line", "x_min": 0.0, "x_max": 2 * math.pi,
                        "n_points": 128, "boundary": "periodic"},
               "potential": {"variant": "piecewise_constant",
                             "breakpoints": [], "values": [v0]},
               "solver": {"mode": 1, "dt": 1e-3, "steps": 100}}
        return doc, lambda r: (None if r["error"] == "NonHyperbolicRegimeError"
                               and len(r["locations"]) == 128
                               else f"unexpected error {r['error']}")

    def massless(self):
        n = int(self.rng.choice([64, 96, 128]))
        v0 = float(self.rng.uniform(0.2, 2.0))
        doc = {"equation": "massless_spin_half", "units": {"c": 1.0},
               "grid": {"kind": "line", "x_min": 0.0, "x_max": 2 * math.pi,
                        "n_points": n, "boundary": "periodic"},
               "potential": {"variant": "piecewise_constant",
                             "breakpoints": [], "values": [v0]},
               "solver": {"n_states": 6}}
        h = 2 * math.pi / n
        # centered difference: the k = 1 mode sits at c sin(kh)/h / (1 + V/E0)
        want = math.sin(h) / h / (1.0 + v0)

        def verify(r):
            e = np.sort(np.abs(r["payload"]["energies"]))
            e = e[e > 1e-8]
            return _rel_check(e[:1], [want], 1e-9) if e.size else "no nonzero mode"
        return doc, verify

    def spin_half(self):
        length = float(self.rng.uniform(60.0, 140.0))
        doc = {"equation": "spin_half_stationary", "units": {"c": 10.0},
               "grid": {"kind": "line", "x_min": -0.5 * length,
                        "x_max": 0.5 * length, "n_points": 192,
                        "boundary": "periodic"},
               "potential": {"variant": "free"},
               "solver": {"n_states": 10, "wilson_r": 1.0}}
        return doc, lambda r: spin_half_check(r["payload"]["energies"], 192,
                                              length, 10.0, 10)

    def spin_half_periodic(self):
        # the dense 2n x 2n complex eigensolve at n = 512
        n, length = 512, 400.0
        shift = float(self.rng.uniform(-50.0, 50.0))
        doc = {"equation": "spin_half_stationary", "units": {"c": 10.0},
               "grid": {"kind": "line", "x_min": -0.5 * length + shift,
                        "x_max": 0.5 * length + shift, "n_points": n,
                        "boundary": "periodic"},
               "potential": {"variant": "free"},
               "solver": {"wilson_r": 1.0, "n_states": 22}}
        return doc, lambda r: spin_half_check(r["payload"]["energies"], n,
                                              length, 10.0, 22)

    def nr_timedep_frames(self):
        # 4000 leapfrog steps on 2000 points, every state kept in memory
        length = float(self.rng.uniform(4.0, 8.0))
        x0 = float(self.rng.uniform(-2.0, 2.0))
        doc = {"equation": "modified_nr_timedep",
               "grid": {"kind": "line", "x_min": x0, "x_max": x0 + length,
                        "n_points": 2000, "boundary": "periodic"},
               "potential": {"variant": "free"},
               "solver": {"mode": 1, "dt": 1e-4, "steps": 4000},
               "output": {"frame_stride": 1000}}
        k = 2.0 * math.pi / length
        return doc, lambda r: _frame_check(r["payload"], k, 0.5 * k**2, 1e-5, 5)

    def dispersion(self):
        momenta = sorted(float(p) for p in self.rng.uniform(0.2, 3.0, 3))
        v0 = float(self.rng.uniform(0.0, 0.5))
        doc = {"equation": "dispersion_audit", "units": {"c": 1.0},
               "solver": {"momenta": momenta, "potential_value": v0}}

        def verify(r):
            rows = r["payload"]["rows"]
            worst = max(abs(v) for row in rows for key, v in row.items()
                        if key.startswith("residual_"))
            return (None if len(rows) == 3 and worst <= 1e-9
                    else f"dispersion residual {worst:.3e}")
        return doc, verify

    def sweep_omega(self):
        omegas = sorted(float(w) for w in self.rng.uniform(0.5, 2.0, 3))
        doc = {"equation": "schrodinger",
               "grid": {"kind": "line", "x_min": -10.0, "x_max": 10.0,
                        "n_points": 400},
               "potential": {"variant": "harmonic", "omega": 1.0},
               "solver": {"n_states": 2},
               "sweep": {"parameter": "potential.omega", "values": omegas}}

        def verify(table):
            rows = list(csv.DictReader(io.StringIO(table)))
            if [row["status"] for row in rows] != ["ok"] * 3:
                return f"sweep cells {[row['status'] for row in rows]}"
            got = [float(row["ground_energy"]) for row in rows]
            return _rel_check(got, [0.5 * w for w in omegas], 1e-3)
        return doc, verify


def _square_well_doc(solver):
    return {"equation": "modified_nr_stationary",
            "grid": {"kind": "line", "x_min": -8.0, "x_max": 8.0,
                     "n_points": 400},
            "potential": {"variant": "square_well", "depth": 12.0,
                          "half_width": 1.0},
            "solver": solver}


def _rel_check(got, want, tol):
    err = max_rel_error(got, want)
    return None if err <= tol else f"relative error {err:.3e} > {tol:g}"


def _frame_check(payload, k, omega, tol, n_frames=6):
    """Frames against exp(i(kx - omega t)); V = 0, so for the modified
    equation omega = eps/hbar with eps = (hbar k)^2/2m. Six frames is 500
    steps at frame_stride 100."""
    if len(payload["frames"]) != n_frames:
        return f"{len(payload['frames'])} frames"
    err = frame_error(payload, k, omega)
    return None if err <= tol else f"frame error {err:.3e} > {tol:g}"


# -- the solver audit through the Python API -----------------------------------

class XvalWells:
    """Shooting and the exact-backend fixed point on seeded square wells,
    depth U(1, 50), width U(0.5, 3), walls at +-8, 400 points. One op is one
    fixed-point confirmation of a shooting root; the shooting call is timed
    work but not an op.

    A seed fixes a set of eight wells. One item is a pass that shoots every
    well and then confirms every root, in a seeded order. The first pass of
    a run is whole; later ones stop when the time is up, so the ops a run
    repeats are an unbiased sample. ``attempted`` and ``failed`` count each
    confirmation once, so they depend on the seed alone, and a repeat that
    gives other roots or another outcome fails the output check.
    """

    index = 0
    trace_items = 1
    domain, n_points, margin = 8.0, 400, 1e-4

    def __init__(self, seed, workdir: Path):
        self.rng = np.random.default_rng([seed, self.index])
        self.units = units.UnitSystem()
        self.grid = numgrid.Grid.line(-self.domain, self.domain, self.n_points)
        self.audits = {}      # well -> (depth, half_width, bracket, energies)
        self.outcomes = {}    # (well, node count or "shoot") -> failure cause
        self.confirmed = []   # (well, node count, energy)
        self.inputs = {"n_points": self.n_points, "walls": self.domain,
                       "depth": [1.0, 50.0], "width": [0.5, 3.0],
                       "n_scan": 10000, "tol": 1e-8, "max_iter": 4}

    def draw_wells(self):
        """Eight seeded (depth, width) pairs.

        The set takes each quarter of the depth range twice, once paired
        with the same quarter of the width range and once with the mirrored
        one, at uniform positions inside each quarter. Depth and width stay
        uniform, and every set holds shallow and deep, narrow and wide
        wells, so runs of different seeds see the same mix of work.
        """
        q = np.arange(4)
        cells = np.concatenate([np.stack([q, q], 1), np.stack([q, 3 - q], 1)])
        jitter = self.rng.uniform(size=cells.shape)
        wells = []
        for i in self.rng.permutation(len(cells)):
            d, w = (cells[i] + jitter[i]) / 4.0
            wells.append((1.0 + 49.0 * float(d), 0.5 + 2.5 * float(w)))
        return wells

    def setup(self):
        self.wells = self.draw_wells()
        self.inputs["wells"] = [[round(d, 6), round(w, 6)] for d, w in self.wells]
        warm = Stats()
        for op in self.shoot(warm, "warm", 3.0, 1.0)[:2]:
            self.confirm(warm, *op)
        self.audits.clear()
        self.outcomes.clear()
        self.confirmed.clear()
        if warm.failed or warm.attempted == 0:
            raise RuntimeError("xval warm-up failed")

    def prime(self):
        """Nothing to warm beyond ``setup``."""

    def run(self, budget, stats):
        while not budget.done(stats):
            ops = []
            for well, (depth, width) in enumerate(self.wells):
                ops += self.shoot(stats, well, depth, width)
            for i in self.rng.permutation(len(ops)):
                if stats.items and budget.done(stats):
                    return
                self.confirm(stats, *ops[i])
            stats.items += 1

    def record(self, stats, key, cause, error):
        """Counts a distinct op once; checks that a repeat agrees with it."""
        if key in self.outcomes:
            stats.check(self.outcomes[key] == cause,
                        f"well {key[0]} op {key[1]}: repeat gave {cause}, "
                        f"first run gave {self.outcomes[key]}")
            return False
        self.outcomes[key] = cause
        stats.attempted += 1
        if error is not None:
            stats.errors[error] += 1
        if cause is not None:
            stats.fail(cause)
        return True

    def shoot(self, stats, well, depth, width):
        """Timed shooting scan of one well (not an op); returns the
        confirmations to run, as ``confirm`` arguments."""
        spec = potentials.PotentialSpec.square_well(depth, 0.5 * width)
        bracket = (-depth + self.margin * depth, -self.margin * depth)
        stats.next_op()
        started = stats.start()
        try:
            shots = modified_nr.solve_stationary_shooting(
                self.grid, spec, bracket, self.units, n_scan=10000)
        except WavekitError as exc:
            stats.stop(started)
            self.record(stats, (well, "shoot"), "shooting error",
                        type(exc).__name__)
            return []
        stats.stop(started)
        energies = [r.energy for r in shots]
        if well in self.audits:
            stats.check(self.audits[well][3] == energies,
                        f"well {well}: repeated shooting gave other roots")
        else:
            self.audits[well] = (depth, 0.5 * width, bracket, energies)
        return [(well, spec, bracket, r) for r in shots]

    def confirm(self, stats, well, spec, bracket, root):
        """One op: the fixed point seeded at a shooting root."""
        stats.next_op()
        started = stats.start()
        error = None
        try:
            fp = modified_nr.solve_stationary_fixed_point(
                self.grid, spec, root.node_count, e_init=root.energy, tol=1e-8,
                max_iter=4, backend="exact")
            cause = None
        except NonConvergenceError as exc:
            cause, error = "fixed_point_miss", type(exc).__name__
        except WavekitError as exc:
            error = type(exc).__name__
            cause = f"error {error}"
        elapsed = stats.stop(started)
        if cause is None and not bracket[0] <= fp.energy <= bracket[1]:
            cause = "drift_out_of_bracket"
        elif cause is None and abs(fp.energy - root.energy) > 1e-8:
            cause = "energy_disagreement"
        first = self.record(stats, (well, root.node_count), cause, error)
        if cause is None:
            stats.completed(elapsed)
            if first:
                self.confirmed.append((well, root.node_count, fp.energy))

    def check(self, stats):
        """Independent complex-wavenumber scans: each well's root count, and
        |mu(E) - E| <= 1e-8 for each confirmed state (a linear eigenvalue of
        the operator frozen at W(E) lies within 1e-8 of E)."""
        for depth, half_width, bracket, energies in self.audits.values():
            edges, values = self.regions(depth, half_width)
            es = np.linspace(bracket[0], bracket[1], 10000)
            count = sign_changes(transfer_endpoint(edges, modified_w(values), es))
            stats.check(count == len(energies),
                        f"well depth {depth:.4f} half-width {half_width:.4f}: "
                        f"{len(energies)} shooting roots, oracle {count}")
        for well, nodes, energy in self.confirmed:
            depth, half_width, _bracket, _energies = self.audits[well]
            edges, values = self.regions(depth, half_width)
            frozen = modified_w(values)(energy)
            ends = transfer_endpoint(edges, lambda e: frozen,
                                     [energy - 1e-8, energy + 1e-8])
            stats.check(ends[0] * ends[1] <= 0,
                        f"state {nodes} of well depth {depth:.4f}: no linear "
                        f"eigenvalue within 1e-8 of E = {energy!r}")

    def regions(self, depth, half_width):
        edges = np.array([-self.domain, -half_width, half_width, self.domain])
        return edges, np.array([0.0, -depth, 0.0])


WORKLOADS = {"xval_wells": XvalWells, "scenario_mix": ScenarioMix}
