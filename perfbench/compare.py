"""Compare result records written by ``run.py --out``.

    python3 perfbench/compare.py BASE.json... --against NEW.json...

For each workload and metric, prints the median of each side and the
change as a share of the base median, marked REGRESSION when it is worse
than the metric's bound in BENCHMARK.json. Where the base runs themselves
spread (IQR over median) wider than the bound, the metric is marked
"unresolved" whatever its change, unless every new run is better than
every base run (no mark) or worse than every base run (REGRESSION).
The raw wall times (``wall.*``) have no bound and are marked "ungated".
Records measured with another flow kernel, Python version, core count, run
length or trace mode are not comparable: the script says which and exits 1
without comparing.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENVIRONMENT = ("kernel", "python", "nproc", "seconds", "trace")


def load(paths):
    out = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            out.append(json.load(fh))
    return out


def values(records, workload, name):
    """The numeric values of one metric or extra in the workload's records."""
    out = []
    for r in records:
        if r["workload"] == workload:
            m = r["metrics"].get(name) or r["extra"].get(name)
            if m and not isinstance(m["value"], str):
                out.append(m["value"])
    return out


def verdict(metric, base, new, change):
    sign = 1 if metric["better"] == "lower" else -1
    if len(base) > 1:
        q = statistics.quantiles(base, n=4)
        spread = (q[2] - q[0]) / statistics.median(base)
        if spread > metric["bound"]:
            # the base runs cannot tell a change within the bound from noise
            if max(sign * v for v in new) < min(sign * v for v in base):
                return ""
            if min(sign * v for v in new) > max(sign * v for v in base):
                return "REGRESSION"
            return "unresolved (base spread %.2f)" % spread
    return "REGRESSION" if sign * change > metric["bound"] else ""


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", nargs="+")
    p.add_argument("--against", nargs="+", required=True)
    args = p.parse_args(argv)
    base, new = load(args.base), load(args.against)

    for key in ENVIRONMENT:
        seen = {str(r[key]) for r in base + new}
        if len(seen) > 1:
            print("not comparable: records differ in %s (%s)"
                  % (key, ", ".join(sorted(seen))))
            return 1

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for workload in sorted({r["workload"] for r in base + new}):
        names = sorted({m for r in base + new if r["workload"] == workload
                        for m in list(r["metrics"]) + list(r["extra"])})
        for name in names:
            sides = [values(rs, workload, name) for rs in (base, new)]
            if not all(sides):
                continue
            b, n = (statistics.median(v) for v in sides)
            change = (n - b) / b if b else (0.0 if n == b else float("inf"))
            mark = ""
            if name in bounds:
                mark = verdict(bounds[name], sides[0], sides[1], change)
            elif name.startswith("wall."):
                mark = "ungated"
            print("%-16s %-45s %12.6g %12.6g %+8.1f%% %s" % (
                workload, name, b, n, 100 * change, mark))
    return 0


if __name__ == "__main__":
    sys.exit(main())
