"""parabolab benchmark: one run of one workload, reported as one JSON line.

Usage, from the repository root::

    python3 bench/run.py --workload cli-batch --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:

- ``wall_s``: median wall time of one pass over the workload's seeded inputs;
- ``setup_s``: median, over several fresh interpreters (set-up probes and
  the worker that runs the passes), of the time from starting the
  interpreter to the first timed call (imports of parabolab, numpy and
  scipy, plus input generation);
- ``peak_rss_mb``: peak resident memory of the process that ran the passes;
- ``ok_frac``: operations that passed over operations attempted, that is
  ``1 - failed / attempted``.

``--trace 1`` runs traced and untraced passes in turn and reports the
per-layer metrics instead.  Lines before the last one describe the
environment, the pass times and every failed check; the last line is
``{"correct", "attempted", "failed", "metrics"}``.  ``correct`` is false when
a check found a wrong value or exit code; an operation that raised counts as
failed without making the run incorrect.

The passes run in a child process (``worker.py``) with one BLAS thread, and
every file they write stays under ``.bench_work/`` in the repository root,
which is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 6  # interpreters started only to time set-up; the worker's start is one more
BLAS_THREADS = "1"


def git_commit(root: Path) -> str | None:
    """HEAD of the repository at ``root``, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_worker(cmd: list[str], env: dict, root: Path, deadline: float) -> tuple[float, str]:
    """Run ``worker.py`` to the end: (seconds until it printed ``ready``, the rest of its output).

    The worker is killed if it is still running at ``deadline``.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline().strip()
        setup = time.perf_counter() - start
        rest, _ = proc.communicate()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker failed with exit code {proc.returncode}")
    return setup, rest


def main() -> int:
    ap = argparse.ArgumentParser(description="parabolab benchmark (see module docstring)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    deadline = time.perf_counter() + 2 * args.seconds + 60

    root = Path.cwd()
    if not (root / "src" / "parabolab" / "__init__.py").is_file():
        print(f"error: no parabolab sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    manifest = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in manifest["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = manifest["per_layer"] if args.trace else manifest["end_to_end"]

    env = child_env(root)
    workdir = root / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", str(workdir)]
    try:
        probes = 0 if args.trace else SETUP_PROBES
        setup = [run_worker(cmd + ["--setup-only"], env, root, deadline)[0]
                 for _ in range(probes)]
        worker_setup, output = run_worker(cmd, env, root, deadline)
        setup.append(worker_setup)
        out = json.loads(output.strip().splitlines()[-1])
    except (RuntimeError, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    if args.trace:
        values = out["per_layer"]
    else:
        values = {
            "wall_s": statistics.median(out["walls"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": out["peak_rss_mb"],
            "ok_frac": 1.0 - out["failed"] / out["attempted"],
        }
    mismatch = {m["name"] for m in wanted} ^ set(values)
    if mismatch:
        print(f"error: metrics do not match BENCHMARK.json: {sorted(mismatch)}", file=sys.stderr)
        return 1

    env_record = dict(out["versions"], nproc=len(os.sched_getaffinity(0)),
                      blas_threads=int(BLAS_THREADS), commit=git_commit(root),
                      workload=args.workload, seed=args.seed, seconds=args.seconds,
                      trace=args.trace)
    print(json.dumps({"env": env_record}))
    print(json.dumps({"passes": {"untraced_s": out["walls"], "traced_s": out["traced_walls"],
                                 "setup_s": setup}}))
    for note in out["notes"]:
        print(f"failed: {note}")
    print(json.dumps({
        "correct": out["wrong"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
