#!/usr/bin/env python3
"""Build ipgd and the benchmark from this checkout, then run one workload.

Run from the root of the checkout:

    python3 perfbench/run.py --workload warm-read --seed 1 --seconds 20 --trace 0

Everything the Go toolchain writes (build cache, binaries, span dumps)
goes under .bench_build/ in the checkout.  The last line of standard
output is the result JSON; progress goes to standard error.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        HOME=os.path.join(BUILD, "home"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "home", ".config"),
        XDG_CACHE_HOME=os.path.join(BUILD, "home", ".cache"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    return env


def build(env):
    os.makedirs(BUILD, exist_ok=True)
    steps = [
        (["go", "build", "-o", os.path.join(BUILD, "ipgd"), "./cmd/ipgd"], ROOT),
        (["go", "build", "-o", os.path.join(BUILD, "perfbench"), "."], os.path.join(ROOT, "perfbench")),
    ]
    for cmd, cwd in steps:
        r = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr, timeout=850)
        if r.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    env = go_env()
    build(env)
    cmd = [
        os.path.join(BUILD, "perfbench"),
        "-ipgd", os.path.join(BUILD, "ipgd"),
        "-out", BUILD,
        "-workload", args.workload,
        "-seed", str(args.seed),
        "-seconds", str(args.seconds),
        "-trace", str(args.trace),
    ]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, timeout=170)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
