"""One workload in a fresh process: set up, run the timed loop, check.

Prints a single JSON line. ``setup_s`` runs from the first statement of
this file, before numpy, scipy or wavekit are imported, to the end of the
warm-up. Run by ``run.py``; not meant to be started by hand.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402  (imports wavekit.cli)
from tracing import Tracer, patched  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    def fresh():
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workload.setup()
        return workload

    try:
        workload = fresh()
        result = {"setup_s": time.perf_counter() - _START}
        if args.mode == "timed":
            workload.prime()
            result.update(measure(workload, workloads.Budget(seconds=args.seconds)))
        elif args.mode == "traced":
            result.update(measure_traced(workload, fresh, args.trace_out))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


def measure(workload, budget, tracer=None):
    stats = workloads.Stats(tracer)
    wall = time.perf_counter()
    workload.run(budget, stats)
    wall = time.perf_counter() - wall
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workload.check(stats)
    if not stats.latencies:
        raise RuntimeError(f"no operation completed: {dict(stats.outcomes)}")
    cpu = 1e3 * np.asarray(stats.latencies)
    lat = 1e3 * np.asarray(stats.wall_latencies)
    return {
        "inputs": workload.inputs,
        "busy_s": stats.busy,
        "busy_cpu_s": stats.busy_cpu,
        "wall_s": wall,
        "items": stats.items,
        "ops": len(stats.latencies),
        "op_latencies_ms": [round(t, 3) for t in lat],
        "op_cpu_ms": [round(t, 3) for t in cpu],
        "ops_per_cpu_s": len(cpu) / stats.busy_cpu,
        "op_cpu_p50_ms": float(np.percentile(cpu, 50)),
        "op_cpu_p90_ms": float(np.percentile(cpu, 90)),
        "ops_per_s": len(lat) / stats.busy,
        "op_p50_ms": float(np.percentile(lat, 50)),
        "op_p90_ms": float(np.percentile(lat, 90)),
        "peak_rss_mb": peak_rss_mb,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "failures_by_cause": dict(stats.outcomes),
        "errors_by_class": dict(stats.errors),
        "exit_codes": {str(k): n for k, n in sorted(stats.exit_codes.items())},
        "report_bytes": stats.report_bytes,
        "incorrect": stats.incorrect,
    }


def measure_traced(workload, fresh, trace_out):
    """The workload's fixed seeded work three times in this process: a warm
    pass (discarded), a traced pass and a plain pass, back to back, so the
    tracing overhead compares two warm runs of identical work."""
    def budget():
        return workloads.Budget(items=workload.trace_items)

    warm = measure(workload, budget())
    tracer = Tracer()
    traced_workload = fresh()
    with patched(tracer):
        traced = measure(traced_workload, budget(), tracer)
    plain = measure(fresh(), budget())
    if not warm["ops"] == traced["ops"] == plain["ops"]:
        raise RuntimeError("the passes of a traced run did different work")
    tracer.write(trace_out)
    traced.update(layers=tracer.summary(), spans=len(tracer.names),
                  plain_busy_s=plain["busy_s"], warm_busy_s=warm["busy_s"],
                  incorrect=warm["incorrect"] + traced["incorrect"]
                  + plain["incorrect"])
    return traced


if __name__ == "__main__":
    sys.exit(main())
