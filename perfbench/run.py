"""Benchmark of the padiclds command line, end to end and layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py [--seed N]
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With no options, one command runs every workload untraced and then traced
and names each metric ``<workload>.<metric>``.  A benchmark harness instead
runs one workload and one trace mode per call, with ``--seconds`` set to
``run_seconds`` of BENCHMARK.json (also the default), and reads the metrics
under the names BENCHMARK.json lists, without the workload prefix.

Each workload is a seeded list of ``padiclds`` subcommand invocations (see
jobs.py).  A pass runs the whole list in a fresh interpreter, calling
``padiclds.cli.main(argv)`` in-process with stdout captured, so interpreter
start-up does not swamp jobs that take a millisecond.  Passes repeat until
``--seconds`` have been measured (at least ``MIN_PASSES``).  Every answer of
every pass is checked against the oracles in oracles.py.

Times are normalised to a reference host speed.  The worker runs a fixed
calibration loop before the first job and after every job; each job's time,
and each job's share of every traced layer time, is scaled by
``CALIBRATION_REFERENCE_S`` over the median of the calibrations of the
``CALIBRATION_WINDOW`` jobs on either side.  On a small shared host the same
work runs up to half as long again for tens of seconds at a time, longer
than a run, and this scaling removes most of that.  The run record keeps the
unscaled end-to-end figures next to the scaled ones.

``--trace 0`` reports the end-to-end metrics (tracing off):

  wall_s       one pass over the job list: the sum over jobs of each job's
               median normalised time over the run's passes
  job_p50_ms   median job time (the same per-job medians)
  job_p90_ms   90th percentile job time; every workload has at least 100 jobs
  setup_s      median over fresh interpreters of import padiclds.cli plus
               build_parser(), normalised by calibrations right after it
  peak_rss_mb  median over passes of the pass process's peak resident set

``fail_ratio`` (failed / attempted jobs) is printed as well and is the
``failed``/``attempted`` pair of the result line.  ``--trace 1`` alternates
plain and traced passes and reports the per-layer metrics of tracer.py plus
``trace.overhead_s`` (traced wall_s minus plain wall_s).  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.  Run records
and the spans of the last traced pass go to ``.perfbench/`` at the root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from jobs import WORKLOADS, make_jobs  # noqa: E402
from oracles import check, reference  # noqa: E402

ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
MIN_PASSES = 3
# Seconds the worker's calibration loop takes on a 2.1 GHz x86-64 host
# running CPython 3.11 uncontended; normalised times are at that speed.
CALIBRATION_REFERENCE_S = 0.0014
CALIBRATION_WINDOW = 8
SETUP_RUNS = 7
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def commit(root=ROOT) -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown".

    A branch ref is a loose file under .git/refs until ``git pack-refs``
    moves it into .git/packed-refs."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return "unknown"


def run_seconds() -> int:
    """The measuring time of one run, as BENCHMARK.json sets it."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)["run_seconds"]


def provenance(workload, seed, src_files) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": 1,
        "commit": commit(),
        "source_sha256": digest(src_files),
    }


def references(workload, seed, jobs) -> list:
    """Oracle answers, computed outside the timed region and cached per seed."""
    key = digest([os.path.join(HERE, f) for f in ("jobs.py", "oracles.py")])
    path = os.path.join(OUT, "refs", f"{workload}-{seed}-{key}.json")
    if os.path.exists(path):
        with open(path) as fh:
            return json.load(fh)
    refs = [reference(job["spec"]) for job in jobs]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path + ".tmp", "w") as fh:
        json.dump(refs, fh)
    os.replace(path + ".tmp", path)
    return json.loads(json.dumps(refs))  # the same shapes a cache hit gives


def worker(mode, argvs=(), spans=None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), ROOT, mode]
    if spans:
        cmd.append(spans)
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, input=json.dumps(list(argvs)), capture_output=True, text=True,
                          env=env, timeout=WORKER_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no message"]
        raise BenchError(f"{mode} worker exited {proc.returncode}: {tail[0]}")
    return json.loads(proc.stdout)


class Checker:
    """Checks job outputs against the references; identical outputs of
    later passes reuse the first verdict."""

    def __init__(self, jobs, refs) -> None:
        self.jobs, self.refs = jobs, refs
        self.seen: dict = {}
        self.attempted = self.failed = 0
        self.failures: list = []

    def add_pass(self, result) -> None:
        for i, (code, out) in enumerate(zip(result["exit"], result["stdout"])):
            key = (i, code, hashlib.sha256(out.encode()).digest())
            if key not in self.seen:
                self.seen[key] = check(self.jobs[i]["spec"], self.refs[i], code, out)
                if self.seen[key]:
                    self.failures.append({"job": i, "argv": self.jobs[i]["argv"],
                                          "reason": self.seen[key]})
            self.attempted += 1
            self.failed += self.seen[key] is not None


def percentile(values, q) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def speed(calibration) -> float:
    return CALIBRATION_REFERENCE_S / statistics.median(calibration)


def normalised(calibration, job_values) -> list:
    """Per-job times at reference speed, each scaled by the median of the
    calibrations of the CALIBRATION_WINDOW jobs before and after it;
    calibration[j] ran just before job j."""
    w = CALIBRATION_WINDOW
    return [t * speed(calibration[max(j - w, 0):j + w + 1]) for j, t in enumerate(job_values)]


def per_job(passes, scale=True) -> list:
    """Each job's median time over the passes, normalised unless scale is false."""
    times = (normalised(p["calibration_s"], p["job_s"]) if scale else p["job_s"] for p in passes)
    return [statistics.median(job) for job in zip(*times)]


def summary(job_s, setup_s) -> dict:
    return {
        "wall_s": (sum(job_s), "s"),
        "job_p50_ms": (percentile(job_s, 0.5) * 1e3, "ms"),
        "job_p90_ms": (percentile(job_s, 0.9) * 1e3, "ms"),
        "setup_s": (statistics.median(setup_s), "s"),
    }


def run_passes(argvs, seconds, modes, checker, spans=None) -> dict:
    """Cycle through modes, one fresh process per pass, until seconds have
    been measured and every mode has MIN_PASSES (trace runs: one) passes."""
    done = {mode: [] for mode in modes}
    least = MIN_PASSES if len(modes) == 1 else 1
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < seconds or min(map(len, done.values())) < least:
        mode = modes[k % len(modes)]
        result = worker(mode, argvs, spans if mode == "trace" else None)
        checker.add_pass(result)
        done[mode].append(result)
        k += 1
    return done


def end_to_end(argvs, seconds, checker) -> tuple:
    setups = [worker("setup") for _ in range(SETUP_RUNS)]
    passes = run_passes(argvs, seconds, ["pass"], checker)["pass"]
    metrics = summary(per_job(passes), [r["setup_s"] * speed(r["setup_calibration_s"])
                                        for r in setups + passes])
    metrics["peak_rss_mb"] = (statistics.median(p["peak_rss_mb"] for p in passes), "MB")
    unscaled = summary(per_job(passes, scale=False), [r["setup_s"] for r in setups + passes])
    return metrics, {"passes": len(passes),
                     "unscaled": {k: v for k, (v, _) in unscaled.items()}}


def per_layer(argvs, seconds, checker, spans) -> tuple:
    done = run_passes(argvs, seconds, ["pass", "trace"], checker, spans)
    traced = done["trace"]
    metrics, unsteady = {}, []
    for name, (value, unit) in traced[0]["layers"].items():
        if unit == "s":
            value = statistics.median(sum(normalised(p["calibration_s"], p["layer_job_s"][name]))
                                      for p in traced)
        elif any(p["layers"][name][0] != value for p in traced):
            unsteady.append(name)  # counts must repeat exactly; report the first pass's
        metrics[name] = (value, unit)
    overhead = sum(per_job(traced)) - sum(per_job(done["pass"]))
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics, {"passes": len(done["pass"]), "traced_passes": len(traced),
                     "unscaled": {"wall_s": sum(per_job(done["pass"], scale=False)),
                                  "traced_wall_s": sum(per_job(traced, scale=False))},
                     "counts_differing_between_passes": unsteady}


def run_workload(workload, seed, seconds, trace) -> tuple:
    src = os.path.join(ROOT, "src", "padiclds")
    if not os.path.isfile(os.path.join(src, "cli.py")):
        raise BenchError(f"no padiclds sources under {src}")
    src_files = [os.path.join(src, f) for f in os.listdir(src) if f.endswith(".py")]
    os.makedirs(OUT, exist_ok=True)
    jobs = make_jobs(workload, seed)
    refs = references(workload, seed, jobs)
    argvs = [job["argv"] for job in jobs]
    checker = Checker(jobs, refs)
    if trace:
        spans = os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl")
        metrics, info = per_layer(argvs, seconds, checker, spans)
    else:
        metrics, info = end_to_end(argvs, seconds, checker)
    record = dict(provenance(workload, seed, src_files), trace=trace, jobs=len(jobs), **info,
                  attempted=checker.attempted, failed=checker.failed,
                  fail_ratio=checker.failed / checker.attempted,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  failures=checker.failures)
    with open(os.path.join(OUT, f"result-{workload}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return record, metrics


def report(record, metrics) -> None:
    workload = record["workload"]
    print(f"== {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"{record['jobs']} jobs  passes {record['passes']}"
          + (f"+{record['traced_passes']} traced" if record["trace"] else "")
          + f"  python {record['python']}  nproc {record['nproc']}  "
          f"commit {record['commit'][:12]}  src {record['source_sha256']}")
    for name, (value, unit) in metrics.items():
        label = " (computed)" if unit.endswith(".computed") else ""
        print(f"  {workload + '.' + name:40s} {value:>16.6f} {unit.split('.')[0]}{label}")
    print(f"  {workload + '.fail_ratio':40s} {record['fail_ratio']:>16.6f} 1"
          f"  ({record['failed']} of {record['attempted']} jobs)")
    for name in record.get("counts_differing_between_passes", ()):
        print(f"  WARNING: count {name} differs between traced passes")
    for failure in record["failures"]:
        print(f"  FAILED job {failure['job']}: {failure['reason']}: {' '.join(failure['argv'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run this workload only (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        help="measuring time per workload and trace mode "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", choices=("0", "1"),
                        help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    args = parser.parse_args(argv)
    workloads = (args.workload,) if args.workload else WORKLOADS
    traces = (int(args.trace),) if args.trace else (0, 1)
    # A single workload carries the metric names of BENCHMARK.json.
    prefix = len(workloads) > 1
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        seconds = args.seconds or run_seconds()
        for trace in traces:
            for workload in workloads:
                record, metrics = run_workload(workload, args.seed, seconds, trace)
                report(record, metrics)
                result["correct"] = result["correct"] and not record["failed"]
                result["attempted"] += record["attempted"]
                result["failed"] += record["failed"]
                for name, (value, unit) in metrics.items():
                    key = f"{workload}.{name}" if prefix else name
                    result["metrics"][key] = {"value": value, "unit": unit}
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
