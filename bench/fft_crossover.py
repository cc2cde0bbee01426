"""Sweep: ``localized_norm`` with ``method="direct"`` against ``method="fft"``.

``localized_norm(method="auto")`` takes the direct path while its work
estimate, window centers times window cells, is at most
``mixed_norms._FFT_WORK_THRESHOLD`` (2e7), and the FFT path above it.  This
script times both paths on 1-D and 2-D grids whose work estimates bracket
that threshold and reports, per grid family and norm, the smallest measured
work above which the FFT path wins on every grid.  It reads the threshold
and changes nothing.

Usage, from the repository root::

    PYTHONPATH=src python3 bench/fft_crossover.py --out bench/results/fft_crossover.json

Both paths must agree to 1e-9 relative; a disagreement is reported and makes
the script exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from parabolab import mixed_norms as mn
from parabolab.mixed_norms import INF, GridFunction, MixedNormSpec

# (family, d, nt, dt, nx, cell width): unit boxes sampled like the CLI's norms
# fixtures (nt = nx over [0, 1]), and a fixed time step on boxes of side 8
# like the solver's grids
GRIDS = ([("unit", 1, n, 1.0 / n, n, 1.0 / n) for n in (8, 32, 128, 512)]
         + [("unit", 2, n, 1.0 / n, n, 1.0 / n) for n in (4, 8, 12, 16, 24, 32, 40, 48)]
         + [("fixed-dt", 2, 40, 0.05, n, 8.0 / n) for n in (8, 16, 24, 32, 48, 64)])
LATTICE_STEP, RADIUS = 0.25, 1.0
SEED = 1  # draws the grid values
REPEATS = 3  # timings per path and grid; the median is kept
SPECS = (MixedNormSpec(4.0, INF, "time-outer"), MixedNormSpec(1.7, 2.0, "space-outer"))


def work_estimate(f: GridFunction) -> float:
    """The work estimate ``localized_norm`` compares with the threshold."""
    st_t = max(1, int(round(LATTICE_STEP / f.dt)))
    st_x = [max(1, int(round(LATTICE_STEP / h))) for h in f.dx]
    kernel_cells = np.prod([2 * (int(RADIUS / h) + 1) for h in f.dx])
    n_centers = (f.nt / st_t) * np.prod([n / s for n, s in zip(f.nx, st_x)])
    return float(n_centers * (2 * RADIUS**2 / f.dt + 1) * kernel_cells)


def best_time(f, spec, method: str) -> tuple[float, float]:
    times, value = [], None
    for _ in range(REPEATS):
        start = time.perf_counter()
        value = mn.localized_norm(f, spec, LATTICE_STEP, RADIUS, method=method)
        times.append(time.perf_counter() - start)
    return statistics.median(times), value


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    rng = np.random.default_rng(SEED)
    rows, ok = [], True
    for family, d, nt, dt, nx, h in GRIDS:
        f = GridFunction(0.0, dt, (0.0,) * d, (h,) * d,
                         rng.lognormal(0.0, 1.0, (nt,) + (nx,) * d))
        for spec in SPECS:
            t_direct, v_direct = best_time(f, spec, "direct")
            t_fft, v_fft = best_time(f, spec, "fft")
            rel = abs(v_direct - v_fft) / max(abs(v_direct), 1e-300)
            ok &= rel <= 1e-9
            rows.append({"family": family, "d": d, "nt": nt, "nx": nx, "spec": spec.label(),
                         "work": work_estimate(f), "direct_s": t_direct, "fft_s": t_fft,
                         "fft_speedup": t_direct / t_fft, "rel_diff": rel})
            print(f"{family:8s} d={d} nt={nt:3d} nx={nx:3d} {spec.label():16s} work={rows[-1]['work']:.3g} "
                  f"direct={t_direct:.4f}s fft={t_fft:.4f}s rel_diff={rel:.1e}", flush=True)

    crossover = {}
    for family, label in sorted({(r["family"], r["spec"]) for r in rows}):
        mine = sorted((r for r in rows if (r["family"], r["spec"]) == (family, label)),
                      key=lambda r: r["work"])
        # smallest measured work above which the FFT path wins on every grid
        wins = [r["work"] for i, r in enumerate(mine)
                if all(s["fft_s"] < s["direct_s"] for s in mine[i:])]
        crossover[f"{family} {label}"] = wins[0] if wins else None
    threshold = getattr(mn, "_FFT_WORK_THRESHOLD", None)
    report = {
        "threshold": threshold,
        "measured_crossover_work": crossover,
        "paths_agree": ok,
        "seed": SEED,
        "repeats": REPEATS,
        "cpu_count": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "rows": rows,
    }
    print(json.dumps({"threshold": threshold, "measured_crossover_work": crossover,
                      "paths_agree": ok}))
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
