#!/usr/bin/env python3
"""Smoke-test the benchmark against its own contract.

Run from the root of the checkout:

    python3 perfbench/selfcheck.py [--seconds 3]

For every workload in BENCHMARK.json it makes one short end-to-end run
and one short traced run, and checks that the last output line is the
result object, that every metric BENCHMARK.json names is emitted with its
unit and nothing else, that the outputs are correct, and that no request
failed.  It then checks that the command fails without printing a result
in a directory holding only BENCHMARK.json and the benchmark's own files.
"""
import argparse
import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec):
    errs = []
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for n in names:
        if not NAME.match(n):
            errs.append(f"bad name {n!r}")
    if len(set(names)) != len(names):
        errs.append("a name is used twice")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("higher", "lower"):
            errs.append(f"bad unit or direction on {m['name']}")
    for m in spec["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            errs.append(f"bound of {m['name']} outside (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        errs.append("setup_s missing or without the largest bound")
    for w in spec["workloads"]:
        if len(w["why"]) > 200 or "\n" in w["why"]:
            errs.append(f"why of {w['name']} is not one line of at most 200 characters")
    return errs


def run(cwd, workload, seconds, trace):
    cmd = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))["command"]
    args = cmd + ["--workload", workload, "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(args, cwd=cwd, capture_output=True, text=True, timeout=900)


def check_run(spec, workload, seconds, trace):
    r = run(ROOT, workload, seconds, trace)
    if r.returncode != 0:
        return [f"{workload} trace {trace}: exit {r.returncode}: {r.stderr[-2000:]}"]
    res = json.loads(r.stdout.strip().splitlines()[-1])
    errs = []
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        errs.append(f"{workload}: result keys {sorted(res)}")
    if res["correct"] is not True or res["failed"] != 0 or res["attempted"] < 1:
        errs.append(f"{workload} trace {trace}: correct={res['correct']} failed={res['failed']}: {r.stderr[-2000:]}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        errs.append(f"{workload} trace {trace}: metrics differ: missing {sorted(set(want) - set(got))}, "
                    f"extra {sorted(set(got) - set(want))}, units {[k for k in want if k in got and got[k] != want[k]]}")
    if trace and res["metrics"].get("error_frac", {}).get("value") != 0:
        errs.append(f"{workload}: error_frac is not 0")
    print(f"{workload} trace {trace}: {res['attempted']} requests, {len(got)} metrics", file=sys.stderr)
    return errs


def check_bare(spec):
    bare = os.path.join(ROOT, ".bench_build", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for p in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p))
    r = run(bare, spec["workloads"][0]["name"], 1, 0)
    shutil.rmtree(bare)
    if r.returncode == 0 or '"metrics"' in r.stdout:
        return ["bare directory: the command succeeded or printed a result"]
    return []


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=int, default=3)
    args = ap.parse_args()
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    errs = check_spec(spec)
    for w in spec["workloads"]:
        for trace in (0, 1):
            errs += check_run(spec, w["name"], args.seconds, trace)
    errs += check_bare(spec)
    for e in errs:
        print("selfcheck:", e, file=sys.stderr)
    print("selfcheck:", "FAIL" if errs else "ok", file=sys.stderr)
    sys.exit(1 if errs else 0)


if __name__ == "__main__":
    main()
