#!/usr/bin/env python3
"""Gate the working tree against HEAD on the repository benchmark.

    python3 bench/perf_gate.py perf-check
    python3 bench/perf_gate.py service-perf-check

The argument names the gate (the Makefile target of the same name).
HEAD is checked out into a detached worktree, .perfbench-base/, and
perfbench/run.py runs in both trees on seeds 1-3, alternating which tree
runs first, for BENCHMARK.json's run_seconds each.  The script prints
every metric's median on both sides, then fails if any run's output
checks fail, if the working tree fails a larger share of operations, or
if a gated median is worse than HEAD's by more than its bound.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASE = os.path.join(ROOT, ".perfbench-base")
SEEDS = (1, 2, 3)

# Bound for a gated per-layer metric, which BENCHMARK.json leaves
# unbounded: the threshold of the generation-phase gate this replaces.
LAYER_BOUND = 0.25

# gate -> (workload, --trace, metric) triples.
GATES = {
    "perf-check": [
        ("refined-a", 0, "experiments_per_s"),
        ("refined-a", 1, "pipeline.prepare_s"),
        ("refined-a", 1, "pipeline.next_case_s"),
        ("unguided-c-rv64", 0, "experiments_per_s"),
    ],
    "service-perf-check": [
        ("served-small", 0, "campaigns_per_s"),
        ("served-small", 0, "campaign_p95_s"),
    ],
}


def run(tree, workload, trace, seed, seconds):
    print("== %s: %s --trace %d --seed %d" % (os.path.relpath(tree, ROOT), workload, trace, seed),
          file=sys.stderr, flush=True)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, stdout=subprocess.PIPE, text=True).stdout
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        sys.exit("perf gate: %s printed no result line" % tree)


def main():
    if len(sys.argv) != 2 or sys.argv[1] not in GATES:
        sys.exit("usage: perf_gate.py %s" % "|".join(GATES))
    gated = GATES[sys.argv[1]]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    info = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    configs = list(dict.fromkeys((w, t) for w, t, _ in gated))
    sides = [("HEAD", BASE), ("tree", ROOT)]

    subprocess.run(["git", "worktree", "remove", "--force", BASE], cwd=ROOT,
                   stderr=subprocess.DEVNULL)
    subprocess.run(["git", "worktree", "add", "--detach", BASE, "HEAD"], cwd=ROOT, check=True)
    results = {}
    try:
        for w, t in configs:
            for i, seed in enumerate(SEEDS):
                for side, tree in (sides if i % 2 == 0 else sides[::-1]):
                    r = run(tree, w, t, seed, spec["run_seconds"])
                    results.setdefault((side, w, t), []).append(r)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", BASE], cwd=ROOT)

    failures = []
    print("%-14s %-5s %-34s %12s %12s %8s %7s" %
          ("workload", "trace", "metric", "HEAD", "tree", "change", "bound"))
    for w, t in configs:
        runs = {side: results[(side, w, t)] for side, _ in sides}
        share = {}
        for side, rs in runs.items():
            if not all(r["correct"] for r in rs):
                failures.append("%s %s --trace %d: output checks failed" % (side, w, t))
            share[side] = sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
        if share["tree"] > share["HEAD"]:
            failures.append("%s --trace %d: failed share %.4f > HEAD's %.4f"
                            % (w, t, share["tree"], share["HEAD"]))
        bounds = {m: info[m].get("bound", LAYER_BOUND) for gw, gt, m in gated if (gw, gt) == (w, t)}
        names = [n for n in runs["HEAD"][0]["metrics"] if n in runs["tree"][0]["metrics"]]
        for name in names:
            head, tree = (statistics.median(r["metrics"][name]["value"] for r in runs[side])
                          for side in ("HEAD", "tree"))
            change = (tree - head) / head if head else 0.0
            bound = bounds.get(name)
            mark = "-"
            if bound is not None:
                mark = "%.2f" % bound
                worse = -change if info[name]["better"] == "higher" else change
                if worse > bound:
                    mark += " FAIL"
                    failures.append("%s %s: %.4g -> %.4g (%+.1f%%, bound %.0f%%)"
                                    % (w, name, head, tree, 100 * change, 100 * bound))
            print("%-14s %-5d %-34s %12.6g %12.6g %+7.1f%% %7s" % (w, t, name, head, tree,
                                                                 100 * change, mark))
    for f in failures:
        print("FAIL: " + f)
    if failures:
        sys.exit(1)
    print("OK: %s within bounds of HEAD" % sys.argv[1])


if __name__ == "__main__":
    main()
