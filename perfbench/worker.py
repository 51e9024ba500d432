"""Closed-loop worker: runs one ``bagconsist`` CLI job at a time in-process.

    python3 perfbench/worker.py --jobs JOBS.json --results OUT.jsonl
        --seconds S --trace 0|1

``bagconsist`` must be importable (run.py puts the checkout's ``src`` on
PYTHONPATH). Each job's result is one JSON line in OUT.jsonl, with its wall
time and its time adjusted to the reference host speed (``calib.py``); the
last line holds the loop time, the peak RSS and, with ``--trace 1``, the
per-layer totals of one traced pass over the jobs.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import traceback
from time import perf_counter

import bagconsist
import calib
from bagconsist import cli

MIN_JOBS = 21           # job_s.tail needs ten samples beyond it


def run_job(argv):
    """(exit code or None, stdout, stderr, exception text or None, seconds),
    timed from the ``cli.run`` call to its return."""
    out, err = io.StringIO(), io.StringIO()
    exc = None
    code = None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    except Exception:  # a crash is a failed job, not a failed benchmark
        exc = traceback.format_exc()
    dt = perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), exc, dt


def loop(jobs, sink, seconds, min_jobs, tracer=None):
    """Run whole passes over the jobs until ``seconds`` have passed and at
    least ``min_jobs`` ran, so every job runs equally often whatever the
    host's speed. The calibration loop runs between jobs, so each job is
    bracketed by two of its timings. Returns (jobs run, loop seconds)."""
    n = 0
    start = perf_counter()
    gc.collect()
    before = calib.spin()
    while (n < min_jobs or n % len(jobs)
           or perf_counter() - start < seconds):
        i = n % len(jobs)
        self_before = tracer.self_total() if tracer else 0.0
        code, out, err, exc, dt = run_job(jobs[i])
        after = calib.spin()
        rec = {"i": i, "s": dt, "adj_s": calib.adjust(dt, before, after),
               "cal_s": (before + after) / 2, "code": code, "out": out,
               "err": err[-2000:], "exc": exc, "traced": tracer is not None}
        if tracer:
            rec["self_s"] = tracer.self_total() - self_before
        sink.write(json.dumps(rec) + "\n")
        n += 1
        before = after
        gc.collect()
    return n, perf_counter() - start


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--jobs", required=True)
    p.add_argument("--results", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    with open(args.jobs, encoding="utf-8") as fh:
        jobs = json.load(fh)
    final = {"done": True, "kernel": bagconsist.KERNEL,
             "module": bagconsist.__file__}
    with open(args.results, "w", encoding="utf-8") as sink:
        if args.trace:
            # untraced jobs first, for the tracing overhead; then exactly one
            # traced pass, so per-layer totals cover every job once
            from tracer import Tracer
            final["jobs"], final["loop_s"] = loop(
                jobs, sink, args.seconds / 2, MIN_JOBS)
            with Tracer() as tracer:
                loop(jobs, sink, 0, len(jobs), tracer)
            final["stats"] = tracer.stats
            final["counts"] = tracer.counts
        else:
            final["jobs"], final["loop_s"] = loop(
                jobs, sink, args.seconds, MIN_JOBS)
        final["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        sink.write(json.dumps(final) + "\n")


if __name__ == "__main__":
    main()
