#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The benchmark is a Cargo package of its own
(`perfbench/Cargo.toml`) with path dependencies on the workspace crates;
this script builds it in release mode into `$CARGO_TARGET_DIR` (default
`.bench_build`), runs one workload, and passes its exit code through. The
last line of standard output is the result as one JSON object. Scratch
files (stores, span files) go to `<target dir>/perfbench-work/`.

Without the repository sources next to this directory the build fails and
the script exits non-zero without printing a result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["decode-noisy", "recover-unlabeled", "store-rw", "serve-mixed"]
# The seed gain claims are tuned on, and the held-out seed they must also
# hold on.
DEFAULT_SEED = 20221
HELD_OUT_SEED = 7919


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument(
        "--inject-wrong-byte",
        action="store_true",
        help="corrupt delivered bytes to prove the correctness gate trips",
    )
    args = parser.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    command = [
        os.path.join(target, "release", "perfbench"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        args.trace,
        "--work-dir",
        os.path.join(target, "perfbench-work", args.workload),
    ]
    if args.inject_wrong_byte:
        command.append("--inject-wrong-byte")
    sys.stdout.flush()
    return subprocess.run(command, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
