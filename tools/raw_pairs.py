"""Unscaled job times of two source trees, measured in alternating pairs.

``perfbench/run.py`` scales every job time by a calibration loop run next to
it.  When that loop itself changes speed between two trees, a scaled metric
moves on code that neither tree changed.  This tool shows the raw side: it
alternates fresh ``perfbench/worker.py TREE pass`` processes of the parent
tree (its worker and its job list, ``PYTHONHASHSEED=0``) on
``jobs.make_jobs(WORKLOAD, SEED)``, the side that runs first alternating
from pair to pair, and prints per tree:

  setup_ms     median over passes of the raw setup_s (import padiclds.cli plus
               build_parser() in the fresh worker process)
  sum_job_ms   median over passes of the raw sum of job_s
  p50_ms       nearest-rank 50th percentile of the per-job medians of job_s
  p90_ms       the same at the 90th percentile
  calib_ms     median of every calibration_s of the tree's passes

plus, for the sum, how many pairs the change tree won.

Usage:
    python3 tools/raw_pairs.py PARENT_TREE CHANGE_TREE --workload W [--seed S] [--pairs N]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys


def run_pass(worker: str, tree: str, argvs: list) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, worker, os.path.abspath(tree), "pass"],
                          input=json.dumps(argvs), capture_output=True, text=True, env=env,
                          check=True)
    return json.loads(proc.stdout)


def percentile(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def summary(passes: list) -> dict:
    per_job = [statistics.median(job) for job in zip(*(p["job_s"] for p in passes))]
    return {
        "setup_ms": 1e3 * statistics.median(p["setup_s"] for p in passes),
        "sum_job_ms": 1e3 * statistics.median(sum(p["job_s"]) for p in passes),
        "p50_ms": 1e3 * percentile(per_job, 0.5),
        "p90_ms": 1e3 * percentile(per_job, 0.9),
        "calib_ms": 1e3 * statistics.median(c for p in passes for c in p["calibration_s"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="source tree of the parent (its perfbench/ is used)")
    parser.add_argument("change", help="source tree of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    bench = os.path.join(os.path.abspath(args.parent), "perfbench")
    sys.path.insert(0, bench)
    from jobs import make_jobs

    argvs = [job["argv"] for job in make_jobs(args.workload, args.seed)]
    worker = os.path.join(bench, "worker.py")
    trees = {"parent": args.parent, "change": args.change}
    passes: dict = {name: [] for name in trees}
    for i in range(args.pairs):
        for name in ("parent", "change")[::1 if i % 2 == 0 else -1]:
            passes[name].append(run_pass(worker, trees[name], argvs))
    wins = sum(sum(c["job_s"]) < sum(p["job_s"]) for p, c in zip(passes["parent"],
                                                                  passes["change"]))
    print(f"{args.workload} seed {args.seed}: {len(argvs)} jobs, {args.pairs} pairs")
    for name, tree_passes in passes.items():
        row = summary(tree_passes)
        print(f"  {name:6s} " + "  ".join(f"{key} {value:8.3f}" for key, value in row.items()))
    print(f"  change has the smaller raw sum in {wins} of {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
