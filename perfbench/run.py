#!/usr/bin/env python3
"""Build the repository from source and run one benchmark workload.

    python3 perfbench/run.py --workload refined-a --seed 1 --seconds 20 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the
lines before it print every metric by name with its unit, plus the raw
host seconds and reference-kernel timings behind the scaled numbers.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("refined-a", "unguided-c-rv64", "served-small")
BENCH_EXE = "_build/default/perfbench/scamv_perf.exe"
CLI_EXE = "_build/default/bin/scamv_cli.exe"
RUN_DIR = ".perfbench-run"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()

    root = os.getcwd()
    for need in ("dune-project", "lib", "bin", "perfbench/dune"):
        if not os.path.exists(os.path.join(root, need)):
            sys.exit("perfbench: %s not found; run from the repository root" % need)

    # The shared dune cache lives outside the checkout; keep the build inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/scamv_perf.exe",
         "./perfbench/spawn_ref.exe", "./bin/scamv_cli.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    cmd = [
        os.path.join(root, BENCH_EXE), "run",
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", str(a.trace),
        "--cli", os.path.join(root, CLI_EXE),
        "--expected", os.path.join(root, "perfbench", "expected.json"),
        "--dir", os.path.join(root, RUN_DIR),
    ]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
