#!/usr/bin/env python3
"""Build the campus benchmark from source, then run one workload.

Usage, from the repository root:

    python3 campusbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

The build goes to $CARGO_TARGET_DIR (default `.bench_build`). The last
line of standard output is the benchmark's JSON result. With `--trace 1`
the layer spans are also written to
`$CARGO_TARGET_DIR/campusbench-spans-<workload>.jsonl`.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def flag(args, name):
    """The value after `name` in `args`, or None."""
    for i, a in enumerate(args[:-1]):
        if a == name:
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", manifest],
        env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        print("campusbench: build failed", file=sys.stderr)
        return 2
    cmd = [os.path.join(target, "release", "campusbench")] + args
    if flag(args, "--trace") == "1":
        workload = flag(args, "--workload") or "unknown"
        cmd += ["--spans-out",
                os.path.join(target, f"campusbench-spans-{workload}.jsonl")]
    sys.stdout.flush()
    return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode


if __name__ == "__main__":
    sys.exit(main())
