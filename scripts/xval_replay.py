#!/usr/bin/env python3
"""Replay the first ``xval_wells`` pass of each given seed and print what it
did, one JSON line per seed.

The pass is the benchmark's own (``perfbench/workloads.py``, read only):
the seed's eight square wells, each shot, then every root confirmed by the
exact-backend fixed point in the pass's seeded order. A line holds

- ``confirmations``: the fixed points run, one per shooting root;
- ``failures_by_cause``: the confirmations that failed, by the benchmark's
  cause names (``fixed_point_miss`` and so on);
- ``walks`` and ``walks_per_confirmed_op``: ``shooting._wronskian`` walks
  made by the solves of the confirmations that passed, the residual reads
  left out;
- ``sha256``: a digest of every confirmation's (well, node count, outcome,
  iterations, energy hex, residual hex); a miss contributes its message and
  its history in hex, an error its message.

Run from the root of a checkout, with wavekit importable:
``PYTHONPATH=src python3 scripts/xval_replay.py 601 602``.
"""

import argparse
import collections
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # perfbench

from perfbench.workloads import Stats, XvalWells  # noqa: E402
from wavekit import modified_nr, shooting  # noqa: E402
from wavekit.errors import NonConvergenceError, WavekitError  # noqa: E402


def replay(seed: int) -> dict:
    bench = XvalWells(seed, None)
    ops = []
    for well, (depth, width) in enumerate(bench.draw_wells()):
        ops += bench.shoot(Stats(), well, depth, width)
    made, wronskian = [0], shooting._wronskian

    def counted(*args, **kwargs):
        made[0] += 1
        return wronskian(*args, **kwargs)

    shooting._wronskian = counted
    causes, rows, confirmed, walks = collections.Counter(), [], 0, 0
    try:
        for i in bench.rng.permutation(len(ops)):
            well, spec, bracket, root = ops[i]
            made[0] = 0
            try:
                fp = modified_nr.solve_stationary_fixed_point(
                    bench.grid, spec, root.node_count, e_init=root.energy,
                    tol=bench.inputs["tol"], max_iter=bench.inputs["max_iter"],
                    backend="exact")
            except NonConvergenceError as exc:
                causes["fixed_point_miss"] += 1
                rows.append((well, root.node_count, "fixed_point_miss",
                             len(exc.history), str(exc),
                             [e.hex() for e in exc.history]))
                continue
            except WavekitError as exc:
                causes[f"error {type(exc).__name__}"] += 1
                rows.append((well, root.node_count, type(exc).__name__,
                             None, str(exc), None))
                continue
            cause = None
            if not bracket[0] <= fp.energy <= bracket[1]:
                cause = "drift_out_of_bracket"
            elif abs(fp.energy - root.energy) > 1e-8:
                cause = "energy_disagreement"
            if cause is None:
                confirmed, walks = confirmed + 1, walks + made[0]
            else:
                causes[cause] += 1
            rows.append((well, root.node_count, cause, fp.iterations,
                         fp.energy.hex(), fp.self_consistency_residual.hex()))
    finally:
        shooting._wronskian = wronskian
    digest = hashlib.sha256("\n".join(map(repr, rows)).encode()).hexdigest()
    return {"seed": seed, "confirmations": len(rows),
            "failures_by_cause": dict(sorted(causes.items())),
            "confirmed": confirmed, "walks": walks,
            "walks_per_confirmed_op": round(walks / max(confirmed, 1), 2),
            "sha256": digest}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("seeds", type=int, nargs="+")
    for seed in ap.parse_args().seeds:
        print(json.dumps(replay(seed)), flush=True)


if __name__ == "__main__":
    main()
