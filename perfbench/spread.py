#!/usr/bin/env python3
"""Run one workload on several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload refined-a --seeds 1-10 --seconds 30

For every metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, the
distance between the quartiles as a share of the median.  For the batch
workloads it also prints the spread of the raw (unscaled) throughput
next to the reference-scaled one.  --out DIR keeps each run's output;
--out DIR --reuse recomputes the table from outputs kept earlier.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out", help="keep each run's output in this directory")
    p.add_argument("--reuse", action="store_true",
                   help="read the outputs already in --out instead of running")
    a = p.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    metrics, raw = {}, []
    for seed in seeds(a.seeds):
        cmd = [sys.executable, os.path.join(here, "run.py"), "--workload", a.workload,
               "--seed", str(seed), "--seconds", str(a.seconds), "--trace", str(a.trace)]
        path = os.path.join(a.out or ".", "%s-%d.txt" % (a.workload, seed))
        if a.reuse:
            with open(path) as f:
                out = f.read()
        else:
            out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                 text=True).stdout
            if a.out:
                os.makedirs(a.out, exist_ok=True)
                with open(path, "w") as f:
                    f.write(out)
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            print("seed %d: output checks failed" % seed)
        for name, m in result["metrics"].items():
            metrics.setdefault(name, (m["unit"], []))[1].append(m["value"])
        match = re.search(r"raw experiments/s ([0-9.]+)", out)
        if match:
            raw.append(float(match.group(1)))

    print("%-36s %12s %12s %12s %8s" % ("metric", "q1", "median", "q3", "spread"))
    rows = sorted(metrics.items())
    if raw:
        rows.append(("raw experiments_per_s (unscaled)", ("1/s", raw)))
    for name, (unit, values) in rows:
        q1, med, q3, s = spread(values)
        print("%-36s %12.6g %12.6g %12.6g %8.4f %s" % (name, q1, med, q3, s, unit))


if __name__ == "__main__":
    main()
