#!/usr/bin/env python3
"""Build memhier and the benchmark harness, then run the harness.

Usage, from the root of a memhier checkout:

    python3 perfbench/run.py --workload sim-hits --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --bless

Both programs are built in release mode into $CARGO_TARGET_DIR (default
`.bench_build`): the `memhier` CLI from the memhier workspace (the
advisor-serve workload spawns `memhier serve`) and the harness from its
own workspace in this directory.  Build output goes to standard error,
so the last line of standard output is the harness's result.  Scratch
files (recorded traces, span logs, run records) go under
$CARGO_TARGET_DIR/perfbench-work.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    env.pop("MEMHIER_SIM_THREADS", None)
    builds = [
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", os.path.join(root, "Cargo.toml"), "-p", "memhier-cli"],
        # No --locked here: the harness's lock file is not tracked, so a
        # change to a memhier crate's dependencies cannot break this build.
        # Every dependency is a path crate, so resolution is deterministic.
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    harness = [
        os.path.join(target, "release", "memhier-perfbench"),
        *sys.argv[1:],
        "--memhier", os.path.join(target, "release", "memhier"),
        "--work", os.path.join(target, "perfbench-work"),
        "--expected", os.path.join(here, "expected", "digests.json"),
    ]
    return subprocess.run(harness, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
