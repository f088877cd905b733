#!/usr/bin/env python3
"""Builds the benchmark and the release daemon, then runs workloads.

Run from the repository root:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <n> --trace <0|1>

Both builds go to $CARGO_TARGET_DIR (default: .bench_build). With
--trace 0 the benchmark prints the end-to-end metrics. With --trace 1 it
first runs the untraced binary for half the time, to get the untraced
gen_p50_ms, then the traced binary for the other half; the traced run
prints the per-layer metrics and the tracing overhead against that
baseline. The last line of standard output is the JSON result; with
--workload all it sums the workloads' counts and prefixes each metric
with its workload. The exit code is non-zero when any reply was wrong.
"""

import json
import os
import subprocess
import sys


def option(args, name):
    if name in args and args.index(name) + 1 < len(args):
        return args[args.index(name) + 1]
    return None


def replaced(args, name, value):
    out = list(args)
    out[out.index(name) + 1] = value
    return out


def run_one(release, args, capture):
    """Runs one workload; returns (exit code, parsed last line or None)."""
    common = ["--daemon", os.path.join(release, "cognicryptgen")]
    stdout = subprocess.PIPE if capture else None
    if option(args, "--trace") != "1":
        done = subprocess.run(
            [os.path.join(release, "perfbench"), *args, *common], stdout=stdout, text=True
        )
    else:
        try:
            half = max(float(option(args, "--seconds")) / 2, 1.0)
        except (TypeError, ValueError):
            print("perfbench: --seconds needs a number", file=sys.stderr)
            return 2, None
        halved = replaced(args, "--seconds", repr(half))
        baseline = subprocess.run(
            [os.path.join(release, "perfbench"), *replaced(halved, "--trace", "0"), *common],
            stdout=subprocess.PIPE,
            text=True,
        )
        sys.stderr.write(baseline.stdout)
        lines = baseline.stdout.strip().splitlines()
        if baseline.returncode != 0 or not lines:
            print("perfbench: the untraced baseline run failed", file=sys.stderr)
            return baseline.returncode or 1, None
        gen_p50 = json.loads(lines[-1])["metrics"]["gen_p50_ms"]["value"]
        traced = [os.path.join(release, "perfbench-traced"), *halved, *common]
        traced += ["--baseline-gen-p50-ms", repr(gen_p50)]
        done = subprocess.run(traced, stdout=stdout, text=True)
    if not capture:
        return done.returncode, None
    sys.stdout.write(done.stdout)
    lines = done.stdout.strip().splitlines()
    return done.returncode, json.loads(lines[-1]) if lines else None


def main():
    args = sys.argv[1:]
    env = dict(os.environ)
    target = os.path.abspath(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    build = ["cargo", "build", "--release", "--offline", "--quiet"]
    for extra in (["--bin", "cognicryptgen"], ["--manifest-path", "perfbench/Cargo.toml"]):
        if subprocess.run(build + extra, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 2
    release = os.path.join(target, "release")

    if option(args, "--workload") != "all":
        return run_one(release, args, capture=False)[0]

    with open("BENCHMARK.json") as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in names:
        rc, result = run_one(release, replaced(args, "--workload", name), capture=True)
        code = code or rc
        if result is None:
            summary["correct"] = False
            continue
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(summary))
    return code


if __name__ == "__main__":
    sys.exit(main())
