"""End-to-end and per-layer benchmark of the ``bagconsist`` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--out RESULT.json]

Run from the root of a source checkout. The benchmark generates the
workload's database files from the seed, times fresh imports of the
package (``setup_s``), then starts one worker process that runs the jobs
through ``bagconsist.cli.run`` in a closed loop for S seconds, rounded up
to whole passes over the workload's jobs. Every answer
is checked against the verdict known from the generator. With ``--trace 0``
the last stdout line reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it reports the per-layer metrics of one traced pass over the
jobs. ``--out`` also writes the full record (environment, input descriptors,
every metric) for ``compare.py``.

The end-to-end times are adjusted to a reference host speed (``calib.py``):
each import and each job is bracketed by timings of a fixed loop. The raw
wall times are printed and recorded as ``wall.*`` next to them.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import calib
import check
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

DEADLINE_S = 170        # the whole run, generation and checking included
SETUP_STARTS = 15       # fresh imports behind the setup_s median
TAIL_BEYOND = 10

PROBE = ("import sys; sys.path.insert(0, %r); import calib; "
         "from time import perf_counter; before = calib.spin(); "
         "t = perf_counter(); import bagconsist, bagconsist.cli; "
         "dt = perf_counter() - t; "
         "print(dt, before, calib.spin(), bagconsist.__file__)" % HERE)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def setup_times(env):
    """(seconds, loop seconds before, loop seconds after) of importing the
    package in fresh interpreters. One unmeasured start first writes the
    bytecode cache, which users pay once."""
    times = []
    for _ in range(SETUP_STARTS + 1):
        out = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=60)
        if out.returncode != 0:
            raise BenchError("cannot import bagconsist: " + out.stderr.strip())
        *seconds, module = out.stdout.split()
        _require_checkout_module(module)
        times.append(tuple(map(float, seconds)))
    return times[1:]


def _require_checkout_module(module):
    if not os.path.abspath(module).startswith(SRC + os.sep):
        raise BenchError("bagconsist imported from %s, not %s" % (module, SRC))


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_worker(jobfile, resultfile, env, seconds, trace, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--jobs", jobfile,
           "--results", resultfile, "--seconds", str(seconds),
           "--trace", str(trace)]
    try:
        out = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                             text=True, timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not finish within %d s" % DEADLINE_S)
    if out.returncode != 0:
        raise BenchError("worker failed: " + out.stderr.strip()[-2000:])
    with open(resultfile, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh]
    if not lines or not lines[-1].get("done"):
        raise BenchError("worker wrote no final record")
    _require_checkout_module(lines[-1]["module"])
    return lines[:-1], lines[-1]


def tail(times):
    """The highest percentile with at least TAIL_BEYOND samples above it:
    (value, percentile)."""
    ordered = sorted(times)
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(recs, final, setup):
    times = [r["adj_s"] for r in recs]
    wall = [r["s"] for r in recs]
    value, pct = tail(times)
    return {
        "job_s.p50": statistics.median(times),
        "job_s.tail": value,
        "jobs_per_s": len(times) / sum(times),
        "setup_s": statistics.median(calib.adjust(*s) for s in setup),
        "peak_rss_mb": final["maxrss_kib"] * 1024 / 1e6,
    }, {"job_s.tail.percentile": (pct, "%"),
        "job_s.samples": (len(times), "count"),
        "setup_s.samples": (len(setup), "count"),
        "wall.job_s.p50": (statistics.median(wall), "s"),
        "wall.job_s.tail": (tail(wall)[0], "s"),
        "wall.jobs_per_s": (len(wall) / final["loop_s"], "1/s"),
        "wall.setup_s": (statistics.median(s[0] for s in setup), "s"),
        "calib.loop_s.p50": (statistics.median(r["cal_s"] for r in recs), "s")}


def per_layer(recs, final):
    metrics = dict(final["counts"])
    for name, (calls, self_s) in final["stats"].items():
        metrics[name + ".calls"] = calls
        metrics[name + ".self_s"] = self_s
    # traced minus untraced time of the same job, for the jobs both loops ran
    plain = {}
    for r in recs:
        if not r["traced"]:
            plain.setdefault(r["i"], []).append(r["adj_s"])
    traced = [r for r in recs if r["traced"]]
    metrics["trace.overhead_s"] = statistics.median(
        r["adj_s"] - statistics.median(plain[r["i"]])
        for r in traced if r["i"] in plain)
    layers = {}
    for name, (_, self_s) in final["stats"].items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + self_s
    total = sum(layers.values())
    extra = {"layer_share.%s" % k: (v / total, "ratio") for k, v in layers.items()}
    extra["dominant_layer"] = (max(layers, key=layers.get), "")
    extra["traced_job_s"] = (sum(r["s"] for r in traced), "s")
    extra["traced_self_s"] = (sum(r["self_s"] for r in traced), "s")
    return metrics, extra


def main(argv=None):
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.GENERATORS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", help="also write the full result record here")
    args = p.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "bagconsist", "cli.py")):
        raise BenchError("no bagconsist sources under %s" % SRC)
    env = dict(os.environ, PYTHONPATH=SRC)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed),
                               dir=WORK)
    try:
        pool = workloads.build(args.workload, args.seed, workdir)
        jobfile = os.path.join(workdir, "jobs.json")
        with open(jobfile, "w", encoding="utf-8") as fh:
            json.dump([job["argv"] for job in pool.jobs], fh)
        setup = [] if args.trace else setup_times(env)
        # the hash seed orders the package's sets of attributes and values,
        # and with them its work: it comes from --seed like the inputs do
        worker_env = dict(env, PYTHONHASHSEED=str(args.seed % 2 ** 32))
        recs, final = run_worker(jobfile, os.path.join(workdir, "results.jsonl"),
                                 worker_env, args.seconds, args.trace, deadline)
        failed, undecided = check.tally(pool.jobs, recs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics, extra = per_layer(recs, final)
        declared = spec["per_layer"]
    else:
        metrics, extra = end_to_end(recs, final, setup)
        declared = spec["end_to_end"]
    extra["failed_ratio"] = (len(failed) / len(recs), "ratio")
    # over distinct jobs: a verdict depends only on the input and the node
    # budget, so this ratio does not move with where the timed loop stopped
    extra["undecided_ratio"] = (len(undecided) / len({r["i"] for r in recs}),
                                "ratio")
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "commit": git_commit(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "kernel": final["kernel"], "inputs": pool.descriptors,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
    }

    for key in ("commit", "python", "nproc", "kernel"):
        print("%-8s %s" % (key, record[key]))
    print("inputs   " + " ".join("%s=%s" % kv for kv in pool.descriptors.items()))
    for name, m in list(record["metrics"].items()) + list(record["extra"].items()):
        value = m["value"] if isinstance(m["value"], str) else "%.6g" % m["value"]
        print("%-45s %s %s" % (name, value, m["unit"]))
    for i, why in failed[:10]:
        print("FAILED job %d %s: %s" % (i, pool.jobs[i]["argv"][:1], why))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    print(json.dumps({"correct": not failed, "attempted": len(recs),
                      "failed": len(failed), "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        sys.exit(2)
