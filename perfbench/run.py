#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload read-uniform-8m --seed 1 --seconds 10 --trace 0

It builds the benchmark (this directory, a Go module of its own) and
cmd/hbserve from the checkout's sources into the build directory
($CARGO_TARGET_DIR, default .bench_build), with the Go build cache,
temporary files and the workload's data directories kept inside it, then
runs one workload. The benchmark's last line of standard output is its
JSON result; on any failure this script exits non-zero without one.
"""

import argparse
import ctypes
import os
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def die_with_parent():
    """Have the kernel kill the benchmark if this script dies first."""
    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "go.mod")) or not os.path.isdir(os.path.join(root, "cmd", "hbserve")):
        sys.exit("perfbench: %s holds no hbtree sources to build" % root)

    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOTMPDIR=os.path.join(build, "tmp"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=mod",
        CGO_ENABLED="0",
    )
    for d in ("gocache", "tmp", "gopath", "config", "work"):
        os.makedirs(os.path.join(build, d), exist_ok=True)

    bench_bin = os.path.join(build, "perfbench")
    hbserve_bin = os.path.join(build, "hbserve")
    try:
        for cmd, cwd in (
            (["go", "build", "-o", bench_bin, "."], bench_dir),
            (["go", "build", "-o", hbserve_bin, "./cmd/hbserve"], root),
        ):
            subprocess.run(cmd, cwd=cwd, env=env, check=True, timeout=BUILD_TIMEOUT_S, stdout=sys.stderr)
    except (subprocess.SubprocessError, OSError) as e:
        sys.exit("perfbench: build failed: %s" % e)

    cmd = [
        bench_bin,
        "-workload", args.workload,
        "-seed", str(args.seed),
        "-seconds", str(args.seconds),
        "-trace", str(args.trace),
        "-hbserve", hbserve_bin,
        "-workdir", os.path.join(build, "work"),
        "-spec", os.path.join(root, "BENCHMARK.json"),
    ]
    proc = subprocess.Popen(cmd, cwd=root, env=env, preexec_fn=die_with_parent)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("perfbench: %s did not finish within %ds" % (args.workload, RUN_TIMEOUT_S))
    sys.exit(rc)


if __name__ == "__main__":
    main()
