"""Run the benchmark over several seeds and summarise each metric.

Usage, from the repository root::

    python3 bench/record.py --workloads all --seeds 1-10 --out bench/results/<label>.json
    python3 bench/record.py --workloads cli-batch --seeds 1-5 --trace 1

For every workload and metric it reports the median over the runs, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread,
``(q3 - q1) / median``, next to the metric's bound from ``BENCHMARK.json``.
Every run's full output is kept in the written file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default="all", help="comma-separated names, or all")
    ap.add_argument("--seeds", default="1-10", help="a range like 1-10 or a list like 3,5")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="JSON file for every run and the summary")
    args = ap.parse_args()

    manifest = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in manifest["workloads"]]
    workloads = names if args.workloads == "all" else args.workloads.split(",")
    seconds = manifest["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in manifest["end_to_end"]}
    record = {"seconds": seconds, "trace": args.trace, "workloads": {}}

    for workload in workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = manifest["command"] + ["--workload", workload, "--seed", str(seed),
                                         "--seconds", str(seconds), "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            took = time.perf_counter() - start
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            runs.append({"seed": seed, "run_s": took, "result": result,
                         "log": lines[:-1]})
            print(f"{workload} seed {seed}: {took:.1f}s correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        metrics = {}
        for name in runs[0]["result"]["metrics"]:
            metrics[name] = summarise([r["result"]["metrics"][name]["value"] for r in runs])
            metrics[name]["unit"] = runs[0]["result"]["metrics"][name]["unit"]
        record["workloads"][workload] = {"runs": runs, "metrics": metrics}
        for name, s in metrics.items():
            if args.trace == 0:
                spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
                print(f"  {name:24s} median {s['median']:.6g} {s['unit']}  spread {spread}"
                      f"  bound {bounds.get(name)}")

    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
