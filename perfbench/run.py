#!/usr/bin/env python3
"""Build and run the TAC closed-loop benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `tac-perfbench` package in this
directory (a cargo workspace of its own that depends on the repository's
crates by path) in release mode into $CARGO_TARGET_DIR, default
`.bench_build`, then runs one workload. The last line of standard output
is the run's JSON result; build output and progress go to standard error.
With `--trace 1` the recorded spans are written to
`<target dir>/perfbench/trace-<workload>-seed<n>.json`.
See README.md beside this file for what is measured and why.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# The first build of a checkout may take long; a run must end well
# within three minutes.
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build did not finish: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1

    cmd = [
        os.path.join(target, "release", "tac-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
    ]
    if args.trace == "1":
        name = f"trace-{args.workload}-seed{args.seed}.json"
        cmd += ["--trace-out", os.path.join(target, "perfbench", name)]
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: benchmark did not finish: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
