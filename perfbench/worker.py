"""One benchmark pass in a fresh interpreter.

Usage: python3 worker.py ROOT MODE [SPANS_PATH] < argv-list.json

MODE is ``setup`` (time ``import padiclds.cli`` plus ``build_parser()`` and
stop), ``pass`` (also run every job through ``cli.main`` with stdout and
stderr captured) or ``trace`` (the same with per-layer tracing installed).
Prints one JSON object with the timings, exit codes and outputs; a traced
pass adds the layer metrics and each job's share of every layer time.

Next to every timing the worker runs ``calibrate``, a fixed loop over
builtins only, so that the caller can tell how fast the host ran at that
moment: on a shared host the same work can take half as long again for
tens of seconds at a time.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

# A job that is run once before the timed pass and never timed.
WARMUP = ["generate", "--p", "2", "--n", "1", "--", "x"]


CALIBRATION_ROUNDS = 6000


def calibrate() -> float:
    """Seconds taken by a fixed loop of int, str, dict and list work.

    Of the loops tried, this one tracked the jobs best when the host
    slowed down by about 1.6x: it slowed by up to 10% more than the jobs.
    """
    start = time.perf_counter()
    total, buckets = 0, {}
    for i in range(CALIBRATION_ROUNDS):
        total += len(str(i * 7919)) + i * i % 13
    for i in range(CALIBRATION_ROUNDS * 2 // 3):
        key = i * 31 % 257
        bucket = buckets.get(key, [])
        buckets[key] = bucket + [i] if i % 50 == 0 else bucket
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """High-water resident set of this process image.

    VmHWM restarts at exec; ru_maxrss does not, so it would report the
    parent's resident set whenever that is larger.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_job(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # the pass must go on; the failure is reported
            code = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue()


def main() -> int:
    root, mode = sys.argv[1], sys.argv[2]
    jobs = json.load(sys.stdin) if mode != "setup" else []
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    start = time.perf_counter()
    import padiclds.cli as cli
    cli.build_parser()
    setup = time.perf_counter() - start
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"padiclds was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = {"setup_s": setup, "setup_calibration_s": [calibrate() for _ in range(5)]}
    if mode != "setup":
        run_job(cli.main, WARMUP)
        tracer = None
        if mode == "trace":
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
            before = tracer.seconds()
            layer_job_s = {name: [] for name in before}
        times, codes, outputs, calibration = [], [], [], [calibrate()]
        for i, argv in enumerate(jobs):
            if tracer:
                tracer.job = i
            elapsed, code, out = run_job(cli.main, argv)
            times.append(elapsed)
            codes.append(code)
            outputs.append(out)
            if tracer:
                now = tracer.seconds()
                for name, value in now.items():
                    layer_job_s[name].append(value - before[name])
                before = now
            calibration.append(calibrate())
        result.update(job_s=times, exit=codes,
                      stdout=outputs, calibration_s=calibration,
                      peak_rss_mb=peak_rss_mb())
        if tracer:
            result["layers"] = tracer.metrics()
            result["layer_job_s"] = layer_job_s
            tracer.write(sys.argv[3])
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
