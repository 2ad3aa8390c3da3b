#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds, in release mode into
$CARGO_TARGET_DIR (default .bench_build), the `shard_server` binary (the
root `cargo build` does not build it) and the `perfbench` package, then
runs the benchmark with MS_SHARD_BIN pointing at the shard binary. Build
output goes to stderr; the last line on stdout is the JSON result.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(root, "Cargo.toml")) or not os.path.isdir(
        os.path.join(root, "crates")
    ):
        print("run.py: run from the repository root", file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "ms-net", "--bin", "shard_server"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", os.path.join(here, "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    env["MS_SHARD_BIN"] = os.path.join(target, "release", "shard_server")
    bench = os.path.join(target, "release", "perfbench")
    return subprocess.run([bench] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
