"""Span tracing of wavekit layers from outside the package.

The package imports most functions by name (``from .shooting import
march_endpoint``), so a wrapper has to replace every reference: the
defining module's attribute and each identical reference in any other
``wavekit`` module namespace. :func:`patched` does that and restores the
originals afterwards.

Each wrapped call records one span ``(name, start, end, parent, op)``.
Spans stay in memory and are written out once, at the end of the run.
Self time is a span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import array
import collections
import contextlib
import gzip
import importlib
import json
import sys
import time

import numpy as np


def _steps(pos):
    def count(args, kwargs, result, exc):
        return {"steps": int(kwargs["steps"] if "steps" in kwargs else args[pos])}
    return count


def _trial_rows(args, kwargs, result, exc):
    widths = args[0] if args else kwargs["widths"]
    coeffs = args[1] if len(args) > 1 else kwargs["coeffs"]
    return {"trial_rows": int(np.atleast_2d(coeffs).shape[0] * len(widths))}


def _roots(args, kwargs, result, exc):
    return {"roots": 0 if exc else int(len(result))}


def _fixed_point_iterations(args, kwargs, result, exc):
    if exc is None:
        return {"iterations": int(result.iterations)}
    # a non-converged run keeps its iterate history, one entry per step
    return {"iterations": max(len(getattr(exc, "history", [None])) - 1, 0)}


def _eigh_dim(args, kwargs, result, exc):
    a = args[0] if args else kwargs["a"]
    return {"dim": int(np.shape(a)[0])}


def _lowest_dim(args, kwargs, result, exc):
    potential = args[2] if len(args) > 2 else kwargs["potential"]
    return {"dim": int(len(potential))}


def _scan_points(args, kwargs, result, exc):
    grid = args[3] if len(args) > 3 else kwargs["grid"]
    factor = args[4] if len(args) > 4 else kwargs.get("scan_factor", 8)
    return {"scan_points": int(factor * grid.n_points)}


#: Traced functions: (module, qualified name, work counter or None, the
#: end-to-end metrics on the workloads that a change here should move).
LAYERS = (
    ("wavekit.shooting", "linear_bound_state_energy", None,
     "xval_wells op_cpu_p90_ms"),
    ("wavekit.shooting", "march_endpoint", _trial_rows,
     "xval_wells op_cpu_p90_ms; minor share of scenario_mix"),
    ("wavekit.shooting", "bracketed_roots", _roots,
     "xval_wells op_cpu_p90_ms; minor share of scenario_mix"),
    ("wavekit.shooting", "sample_shot", None,
     "xval_wells op_cpu_p90_ms; minor share of scenario_mix"),
    ("wavekit.shooting", "count_shot_nodes", None,
     "xval_wells op_cpu_p90_ms; minor share of scenario_mix"),
    ("wavekit.modified_nr", "solve_stationary_fixed_point",
     _fixed_point_iterations,
     "xval_wells failed/op_cpu_p90_ms; scenario_mix op_cpu_p90_ms"),
    ("wavekit.modified_nr", "effective_potential", None,
     "scenario_mix op_cpu_p90_ms"),
    ("wavekit.modified_nr", "solve_stationary_shooting", _roots,
     "xval_wells ops_per_cpu_s (record); minor share of scenario_mix"),
    ("wavekit.modified_nr", "propagate_timedep", _steps(3),
     "scenario_mix op_cpu_p90_ms/peak_rss_mb (nr_timedep_frames template)"),
    ("wavekit.modified_rel", "propagate_rel_timedep", _steps(4),
     "scenario_mix ops_per_cpu_s/op_cpu_p50_ms (record)"),
    ("wavekit.modified_rel", "solve_rel_stationary", None,
     "scenario_mix ops_per_cpu_s/op_cpu_p50_ms (record)"),
    ("wavekit.spin_half", "solve_spin_half_stationary", None,
     "scenario_mix op_cpu_p90_ms (spin_half_periodic template)"),
    ("wavekit.spin_half", "solve_massless", None,
     "scenario_mix ops_per_cpu_s/op_cpu_p50_ms (record)"),
    ("wavekit.spin_half", "free_dirac_matrix", None,
     "scenario_mix op_cpu_p90_ms (spin_half_periodic template)"),
    ("scipy.linalg", "eigh", _eigh_dim,
     "scenario_mix op_cpu_p90_ms (spin_half_periodic template)"),
    ("wavekit.numgrid", "lowest_eigenpairs", _lowest_dim,
     "scenario_mix op_cpu_p90_ms"),
    ("scipy.linalg", "eig_banded", None,
     "scenario_mix op_cpu_p90_ms"),
    ("wavekit.numgrid", "build_laplacian", None,
     "scenario_mix op_cpu_p90_ms"),
    ("wavekit.reference", "solve_schrodinger_stationary", None,
     "scenario_mix ops_per_cpu_s/op_cpu_p50_ms (record)"),
    ("wavekit.potentials", "find_singular_set", _scan_points,
     "scenario_mix op_cpu_p90_ms; minor share of xval_wells op_cpu_p90_ms"),
    ("wavekit.potentials", "evaluate", None,
     "scenario_mix op_cpu_p90_ms; minor share of xval_wells op_cpu_p90_ms"),
    ("wavekit.scenario", "parse_scenario", None,
     "setup_s; scenario_mix op_cpu_p50_ms (record)"),
    ("wavekit.scenario", "run_scenario", None,
     "scenario_mix op_cpu_p90_ms"),
    ("wavekit.scenario", "RunReport.to_dict", None,
     "scenario_mix op_cpu_p90_ms"),
    ("wavekit.cli", "main", None,
     "scenario_mix op_cpu_p90_ms"),
)

#: Work counts recorded on a traced function's spans, as (layer, count).
LAYER_COUNTS = (
    ("shooting.march_endpoint", "trial_rows"),
    ("shooting.bracketed_roots", "roots"),
    ("modified_nr.solve_stationary_fixed_point", "iterations"),
    ("modified_nr.solve_stationary_fixed_point", "failed"),
    ("modified_nr.solve_stationary_shooting", "roots"),
    ("modified_nr.propagate_timedep", "steps"),
    ("modified_rel.propagate_rel_timedep", "steps"),
    ("scipy.linalg.eigh", "dim"),
    ("numgrid.lowest_eigenpairs", "dim"),
    ("potentials.find_singular_set", "scan_points"),
)

#: Typed errors counted per class; ``other`` takes a WavekitError subclass
#: not listed here, ``untyped`` an exception that escaped as a traceback.
ERROR_CLASSES = (
    "ConfigurationError", "UsageError", "DomainError", "SingularRegionError",
    "SingularCoefficientError", "NonHyperbolicRegimeError",
    "NonConvergenceError", "StateTrackingError", "NoRootError",
    "StabilityError", "InvalidScenarioError", "OutOfScopeError", "other",
    "untyped",
)


def layer_name(module: str, qualname: str) -> str:
    return f"{module.removeprefix('wavekit.')}.{qualname}"


class Tracer:
    """In-memory span recorder. ``op`` is set by the workload loop so that
    the spans of one operation share its id.

    Spans are stored column-wise in flat arrays and work counts are summed
    per layer as they arrive, so recording allocates no per-span objects
    for the garbage collector to scan.
    """

    def __init__(self):
        self.names = []
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.parents = array.array("q")
        self.ops = array.array("q")
        self.child = array.array("d")   # time covered by direct children
        self.counts = collections.defaultdict(collections.Counter)
        self._stack = []
        self.op = -1

    def wrap(self, name, fn, counter):
        names, starts, ends = self.names, self.starts, self.ends
        parents, ops, child = self.parents, self.ops, self.child
        counts, stack = self.counts[name], self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(names)
            names.append(name)
            starts.append(0.0)
            ends.append(0.0)
            parents.append(parent)
            ops.append(self.op)
            child.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts["failed"] += 1
                if counter is not None:
                    counts.update(counter(args, kwargs, None, exc))
                raise
            finally:
                end = clock()
                stack.pop()
                starts[idx] = start
                ends[idx] = end
                if parent >= 0:
                    child[parent] += end - start
            if counter is not None:
                counts.update(counter(args, kwargs, result, None))
            return result

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict:
        """Per layer: calls, busy_s (inclusive), self_s and work counts."""
        out = {}
        for i, name in enumerate(self.names):
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            duration = self.ends[i] - self.starts[i]
            row["calls"] += 1
            row["busy_s"] += duration
            row["self_s"] += duration - self.child[i]
        for name, counts in self.counts.items():
            out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            out[name].update(counts)
        return out

    def write(self, path):
        """Spans as gzipped JSON lines: id, name, start, end, parent, op."""
        with gzip.open(path, "wt") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({"id": i, "name": name,
                                     "start": self.starts[i], "end": self.ends[i],
                                     "parent": self.parents[i],
                                     "op": self.ops[i]}) + "\n")


def _owner(module: str, qualname: str):
    obj = importlib.import_module(module)
    parts = qualname.split(".")
    for part in parts[:-1]:
        obj = getattr(obj, part)
    return obj, parts[-1]


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Route every traced function through ``tracer`` while the block runs."""
    saved = []
    try:
        for module, qualname, counter, _moves in LAYERS:
            owner, attr = _owner(module, qualname)
            original = getattr(owner, attr)
            wrapper = tracer.wrap(layer_name(module, qualname), original, counter)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            for modname, mod in list(sys.modules.items()):
                if modname != "wavekit" and not modname.startswith("wavekit."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        saved.append((mod, key, original))
                        setattr(mod, key, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
