"""One benchmark run of one workload, in a process of its own.

Started by ``run.py``.  It imports, builds the seeded inputs and prints
``ready``, so that the caller can time set-up from interpreter start; then it
runs the passes and prints one JSON object as its last line.  With
``--setup-only`` it exits after ``ready``.

Passes repeat while the next one would end less than half a pass past
``--seconds``, so that a run measures about ``--seconds`` in whole passes.  With
``--trace 1`` untraced and traced passes alternate: the traced ones give the
per-layer metrics, the pair gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from recorder import NullRecorder, Recorder, layer_metrics
from workloads import WORKLOADS, Ops


def run_passes(workload: str, state, seconds: float, traced_run: bool, workdir: Path) -> dict:
    run_pass = WORKLOADS[workload][1]
    rec, null, ops = Recorder(), NullRecorder(), Ops()
    walls, cpus, traced_walls = [], [], []
    start = time.perf_counter()
    index = 0
    while True:
        traced = traced_run and index % 2 == 1
        scratch = workdir / f"pass-{index}"
        scratch.mkdir()
        if traced:
            rec.install()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            run_pass(state, index, scratch, rec if traced else null, ops)
        finally:
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            if traced:
                rec.uninstall()
        shutil.rmtree(scratch)
        if traced:
            traced_walls.append(wall)
        else:
            walls.append(wall)
            cpus.append(cpu)
        index += 1
        done = bool(walls) and (bool(traced_walls) or not traced_run)
        typical = statistics.median(walls + traced_walls)
        if done and time.perf_counter() - start + typical / 2 > seconds:
            break

    out = {
        "walls": walls,
        "cpus": cpus,
        "traced_walls": traced_walls,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "wrong": ops.wrong,
        "notes": ops.notes,
    }
    if traced_run:
        layers = layer_metrics(rec, len(traced_walls))
        layers["process.cpu_s"] = statistics.median(cpus)
        layers["process.trace_overhead_frac"] = (statistics.median(traced_walls)
                                                 / statistics.median(walls) - 1.0)
        out["per_layer"] = layers
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    state = WORKLOADS[args.workload][0](args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    out = run_passes(args.workload, state, args.seconds, bool(args.trace), args.workdir)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["versions"] = {"python": sys.version.split()[0], "numpy": np.__version__,
                       "scipy": scipy.__version__}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
