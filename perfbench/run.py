#!/usr/bin/env python3
"""Build and run the tahoma-serve benchmark from the root of a checkout.

    python3 perfbench/run.py --workload lookup|scan|stream --seed N \
        --seconds S --trace 0|1 [--corrupt-reference]

Builds `tahoma-serve` (the product workspace) and the `perfbench` load generator
(its own workspace, perfbench/Cargo.toml) in release mode into
$CARGO_TARGET_DIR (default `.bench_build`), then runs it. Its last
line of standard output is the JSON result; build output
goes to standard error. Exits non-zero, printing no result, when the
checkout cannot be built.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "-q",
         "-p", "tahoma-serve", "--bin", "tahoma-serve"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
    ]
    for cmd in builds:
        # Build output must not reach stdout: its last line is the result.
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    bench = [os.path.join(release, "perfbench"),
              "--server", os.path.join(release, "tahoma-serve")]
    return subprocess.run(bench + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
